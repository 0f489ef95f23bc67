import csv
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import endtn
from endtn import pairs
from endtn.cli import main
from endtn.endomorphisms import enumerate_End, oracle_multiply


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 7
        assert {row["component"] for row in data} <= {"Aut", "E_1", "E_2", "C"}

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["element", "rank", "type", "component"]
        assert len(rows) == 41

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        _, second, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--format", "json",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())) == 7


class TestVerification:
    def test_verify_mult_exhaustive(self, capsys):
        code, out, _ = run(capsys, "verify-mult", "--n", "3")
        assert code == 0
        assert "all pairs agree" in out

    def test_verify_mult_sampled_deterministic(self, capsys):
        args = ("verify-mult", "--n", "5", "--samples", "2000", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2

    def test_verify_mult_checks_pairs_drawn_from_seed(self, capsys, monkeypatch):
        import endtn.cli as cli

        checked = []

        def recording(a, b):
            checked.append((a, b))
            return oracle_multiply(a, b)

        monkeypatch.setattr(cli, "oracle_multiply", recording)
        code, _, _ = run(
            capsys, "verify-mult", "--n", "5", "--samples", "50", "--seed", "3"
        )
        assert code == 0
        elements = sorted(enumerate_End(5))
        rng = random.Random(3)
        drawn = [(rng.randrange(3226), rng.randrange(3226)) for _ in range(50)]
        assert checked == [(elements[i], elements[j]) for i, j in drawn]

    def test_counts_with_brute(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--n", "3", "--verify", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "formula", "constructive", "brute"]
        for row in rows[1:]:
            assert row[1] == row[2] == row[3]

    # sha256 of the csv stdout of `counts`, recorded when U_n came from a
    # scalar test over T_n and the brute column from a scalar scan of it.
    PINNED_COUNTS = {
        "counts --n 1 --verify --format csv": "8bd2e4f986615b4c883d5300c21bf9e4d2a28c7cf56109dc289d1a4fbbcf5572",
        "counts --n 2 --verify --format csv": "e5b200ec835581cef9e9b695f5a7e8fd2a5ccbdcc057afe5cf588eb7ec9a173f",
        "counts --n 3 --verify --format csv": "b2ba07b1b8ac6c0d4f4d5a68b67648d9d2b09dc38bdae89c93de85ce92b9a405",
        "counts --n 4 --verify --format csv": "917188b1ba8a040db92b6ed5539914f6730c374b2d9ba5adcd4e00c0169438dd",
        "counts --n 5 --verify --format csv": "f0efa1d105cc5e8bb8cd3e9d6b125e358e949aa5dc5fdcd2777bd6a1a3a99405",
        "counts --n 6 --format csv": "72f8e57a6ede21f2e37758f0090bee87325d083e1bf2d3085ac5a3e138bdbdc1",
        # Recorded from the per-t partner generator; 44,144 lines.
        "counts --n 7 --format csv": "08c63617c96d231d062b28a619c22bc5b74425b0baae18e160109264144fc9f2",
    }

    @pytest.mark.parametrize("argv", list(PINNED_COUNTS))
    def test_pinned_counts_output(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_COUNTS[argv]

    def test_counts_brute_side_at_degree_six(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--n", "6", "--verify", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 4_927
        assert all(row[1] == row[2] == row[3] for row in rows[1:])
        pinned = "".join(",".join(row[:3]) + "\n" for row in rows)
        digest = hashlib.sha256(pinned.encode()).hexdigest()
        assert digest == self.PINNED_COUNTS["counts --n 6 --format csv"]

    def test_counts_builds_its_pairs_in_one_batch(self, capsys, monkeypatch):
        import endtn.cli as cli

        batches = []

        def recording(t_words):
            batches.append(len(t_words))
            return pairs._checked_pair_words(t_words)

        monkeypatch.setattr(cli, "_checked_pair_words", recording)
        code, _, _ = run(capsys, "counts", "--n", "4", "--format", "csv")
        assert code == 0 and batches == [len(pairs.u_words(4))]
        assert not hasattr(cli, "enumerate_pairs_for")

    def test_counts_exits_1_on_a_bad_constructed_pair(self, capsys, extra_partner):
        extra_partner((0, 0, 2), (1, 0, 2))
        code, out, err = run(capsys, "counts", "--n", "3")
        assert code == 1 and out == ""
        assert "(1 1 3, 2 1 3) is not a permissible pair" in err

    def test_presentation_check(self, capsys):
        code, out, _ = run(capsys, "presentation-check", "--n", "5", "--format", "csv")
        assert code == 0
        assert out == "n,relations,normal_forms,status\n5,21778,3226,all sound\n"

    def test_presentation_check_at_six(self, capsys):
        code, out, _ = run(capsys, "presentation-check", "--n", "6", "--format", "csv")
        assert code == 0
        assert out == "n,relations,normal_forms,status\n6,419841,38503,all sound\n"


class TestStructureVerbs:
    def test_green_single_relation(self, capsys):
        code, out, _ = run(
            capsys, "green", "--n", "3", "--relation", "L", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["relation"] == "L"

    def test_extended_summary(self, capsys):
        code, out, _ = run(capsys, "extended", "--n", "3")
        assert code == 0
        assert "left_abundant" in out

    @pytest.mark.parametrize("relation", ["R*", "L*"])
    def test_extended_verify_fails_on_an_intruder(self, capsys, monkeypatch, relation):
        """With one element past the fourth member of the brute side's
        largest class moved into it, the summary exits 1, printing nothing
        to stdout, and stderr names the relation and the pair ``_attest``
        reports: the intruder and the lesser of its two classes' least
        members."""
        import endtn.structure as structure
        from endtn.universe import get_universe

        uni, real = get_universe(4), structure._brute_labels
        labels = real(uni, relation).copy()
        members = max(structure._classes(labels), key=len)
        intruder = next(
            i for i in range(members[3] + 1, uni.size) if labels[i] != members[0]
        )
        own, labels[intruder] = int(labels[intruder]), members[0]
        monkeypatch.setattr(
            structure,
            "_brute_labels",
            lambda u, r: labels if r == relation else real(u, r),
        )
        code, out, err = run(capsys, "extended", "--n", "4")
        pair = (uni.elements[intruder], uni.elements[min(own, members[0])])
        assert (code, out) == (1, "")
        assert err == (
            f"verification failed: {relation}-classes disagree between "
            f"characterisation and brute force at {uni.elements[intruder]!r}\n"
            f"counterexample: {pair}\n"
        )

    def test_ideals(self, capsys):
        code, out, _ = run(capsys, "ideals", "--n", "3", "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data) == 7

    def test_idempotents(self, capsys):
        code, out, _ = run(capsys, "idempotents", "--n", "4", "--format", "csv")
        rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out)) if r}
        assert rows["E_7"] == "4"

    def test_regular(self, capsys):
        code, out, _ = run(capsys, "regular", "--n", "3", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 28

    def test_gens(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "5", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["size"] == 3 + data["r_3"] + data["r_2"]

    def test_gens_table(self, capsys):
        code, out, _ = run(capsys, "gens", "--n", "5", "--verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["generator", "value", "type"]
        assert lines[1].split() == ["size", "35"]
        assert ["verified", "generates"] in [line.split() for line in lines]
        generators = [line.split() for line in lines if line.startswith("phi:")]
        assert len(generators) == 33
        assert all(rank in ("1", "2", "3") for _, rank, _ in generators)

    # sha256 of the table output: at n = 4 recorded before the brute side
    # moved onto the row and column bitsets of the product table, at n = 5
    # the verb gates of the benchmark (perfbench/gates.json), and
    # ``ideals --n 3`` (one tie of size and least member) recorded while
    # every ideal was still a frozenset of element indices.
    PINNED = [
        ("ideals", 3, "69f398cbbd6db2f08d091973b8a5e555eb7d3b7aae95d445bffafb832053aa78"),
        ("green", 4, "c764df1335ec6752797e0f1311bcd387ffe83124a33676ab7fa4c7ebcdc978b8"),
        ("extended", 4, "9c4f4c6ca36c07998af512b23fcf9f2fbae390da5d79525bcfae6ba7b9f3dc67"),
        ("ideals", 4, "a39b697fa1e79b6d53a44b5f49d291b1e4616f0e9b9e3cf8c189d4f25722662a"),
        ("regular", 4, "2cffa1f76bf2a0ea217c4a32583a4c62b812c70d5c91b85ddb5058a2b6aec8ac"),
        ("idempotents", 4, "24b734f2ff74953689ad29eaa2ef25bd5845894e6bc24f907bdce5f1681344b0"),
        ("green", 5, "1b740eefaedd888182031cba06ddadcec2f4b4410b7291c4296ee444a923fe14"),
        ("extended", 5, "ff6318fec1414a84e2da26a5f1256751eb7aeb3fdd6d3d0463be80420d9a4f43"),
        ("ideals", 5, "6eb8430b564a1ee7b16298d12ba67255d2af87dc5dfc3bc71f7443228999d908"),
        ("regular", 5, "db8dbb451976a9ea2e630966cb7e760a3143494b69ac110c983a213645854c3c"),
        ("idempotents", 5, "7e721a74e653468e900150c783627af9e4774cddd6667f05d5e4380df27291d0"),
    ]

    @pytest.mark.parametrize(
        "verb, n, digest",
        PINNED,
        ids=[f"{verb}-{digest}" for verb, _, digest in PINNED],
    )
    def test_pinned_table_output(self, capsys, verb, n, digest):
        code, out, _ = run(capsys, verb, "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of stdout of the verbs that read the sorted element tuple or
    # the ideals' index sets, recorded when each verb still sorted its own
    # enumeration and built every ideal as a set of endomorphisms.
    PINNED_ARGV = [
        ("enumerate --n 5", "32839ff44e1f454b7dc0ea4a83e0f0679d27a91b4104021b2426bc69fe6751ba"),
        ("enumerate --n 6", "f5e32fd11ad53dca16b8514fdfdb145c2db3df8eba8032e1f9153765482f7e6a"),
        ("idempotents --n 6", "1f780490a0cd986c6d0227e451f449a4447b1112625677e3643a0786bc518fef"),
        (
            "ideals --n 5 --format json",
            "ec7c5cfc6f4868dbac8397e5c6c9eb1b03781960455aeb26d9e78d57dfe66fc4",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, digest", PINNED_ARGV, ids=[argv for argv, _ in PINNED_ARGV]
    )
    def test_pinned_output(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_fix(self, capsys):
        code, out, _ = run(
            capsys, "fix", "--n", "5", "--t", "1 3 2 1 5", "--e", "1 1 1 1 1"
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["1 2 3 4 5", "1 3 2 4 5"]

    def test_fix_is_attested_against_the_stabiliser(self, capsys, monkeypatch):
        """A stabiliser lookup that drops one permutation disagrees with
        the scan of S_5, and the mismatch names that permutation."""
        from endtn.cosets import Cosets
        from endtn.transformations import Transformation

        real = Cosets.stabiliser
        dropped = Transformation.from_text("1 3 2 4 5")
        monkeypatch.setattr(
            Cosets, "stabiliser", lambda self, alpha: real(self, alpha) - {dropped}
        )
        code, out, err = run(
            capsys, "fix", "--n", "5", "--t", "1 3 2 1 5", "--e", "1 1 1 1 1"
        )
        assert code == 1 and out == ""
        assert err.startswith("verification failed: fixers disagree")
        assert err.endswith("counterexample: Transformation[1 3 2 4 5]\n")


class TestExitCodes:
    def test_capacity(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9")
        assert code == 3 and "capacity" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--n", "7"),
            ("counts", "--n", "8"),
            ("verify-mult", "--n", "7"),
            ("green", "--n", "6"),
            ("extended", "--n", "6"),
            ("regular", "--n", "6"),
            ("ideals", "--n", "6"),
            ("gens", "--n", "6", "--verify"),
            ("idempotents", "--n", "7"),
            ("gens", "--n", "7"),
            ("presentation-check", "--n", "7"),
            ("presentation-check", "--n", "4"),
            ("fix", "--n", "7", "--t", "1 2 3 4 5 6 7", "--e", "1 1 1 1 1 1 1"),
        ],
        ids=[
            "enumerate-7", "counts-8", "verify-mult-7", "green-6", "extended-6",
            "regular-6", "ideals-6", "gens-verify-6", "idempotents-7", "gens-7",
            "presentation-check-7", "presentation-check-4", "fix-7",
        ],
    )
    def test_capacity_one_past_each_bound(self, capsys, monkeypatch, argv):
        """Each verb exits 3, printing nothing, one degree past its bound."""
        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("capacity: ")

    @pytest.mark.parametrize(
        "argv, unreached, message",
        [
            (
                ("counts", "--n", "7", "--verify"),
                "_checked_pair_words",
                "brute-force partner scan is guarded at n <= 6, got n = 7",
            ),
            (
                ("gens", "--n", "6", "--verify"),
                "minimal_generating_set",
                "product table construction is guarded at n <= 5, got n = 6",
            ),
        ],
        ids=["counts-verify-7", "gens-verify-6"],
    )
    def test_capacity_is_refused_before_any_work(
        self, capsys, monkeypatch, argv, unreached, message
    ):
        """The guard of the check that ``--verify`` adds runs before the
        verb's own work, with the message that check gives."""
        import endtn.cli as cli

        def forbidden(*args):
            raise AssertionError(f"{unreached} ran before the refusal")

        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        monkeypatch.setattr(cli, unreached, forbidden)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"capacity: {message}\n")

    def test_usage_bad_relation(self, capsys):
        for verb in ("green", "extended"):
            with pytest.raises(SystemExit) as excinfo:
                main([verb, "--n", "3", "--relation", "Q"])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_usage_flag_on_verb_that_ignores_it(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["green", "--n", "3", "--seed", "4"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_usage_bad_flag(self, capsys):
        for value in ("not-a-number", "0", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["enumerate", "--n", value])
            assert excinfo.value.code == 2
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # ``extended`` and ``presentation-check`` sample nothing, so
            # they have neither flag.
            (
                ("extended", "--n", "5", "--relation", "R*", "--samples", "7"),
                "unrecognized arguments: --samples 7",
            ),
            (
                ("extended", "--n", "5", "--relation", "R*", "--seed", "3"),
                "unrecognized arguments: --seed 3",
            ),
            # Every brute side of ``extended`` is its relation's definition,
            # so it has no extra check to switch on.
            (("extended", "--n", "4", "--verify"), "unrecognized arguments: --verify"),
            (
                ("presentation-check", "--n", "5", "--samples", "3"),
                "unrecognized arguments: --samples 3",
            ),
            (
                ("presentation-check", "--n", "5", "--seed", "3"),
                "unrecognized arguments: --seed 3",
            ),
            (("verify-mult", "--n", "5", "--seed", "-1"), "must be non-negative"),
            (("verify-mult", "--n", "5", "--samples", "-3"), "must be positive"),
            # Zero samples would check nothing and report that all agree.
            (("verify-mult", "--n", "5", "--samples", "0"), "must be positive, got 0"),
        ],
        ids=[
            "extended-samples", "extended-seed", "extended-verify",
            "presentation-samples", "presentation-seed", "mult-seed", "mult-samples",
            "mult-samples-zero",
        ],
    )
    def test_usage_negative_seed_or_samples(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_usage_bad_fix_pair(self, capsys):
        code, _, err = run(
            capsys, "fix", "--n", "3", "--t", "2 3 1", "--e", "1 1 1"
        )
        assert code == 2 and "permissible" in err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        import endtn.cli as cli

        def broken(n, relation):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "green_partition", broken)
        code, out, err = run(capsys, "green", "--n", "3")
        assert code == 4 and out == ""
        assert "Traceback" in err and "ValueError: internal fault" in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "absent" / "out.txt" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, "enumerate", "--n", "2", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "t, point, n",
        [("0 1 1", 0, 3), ("1 3 2 1 9", 9, 5)],
        ids=["zero", "past-n"],
    )
    def test_usage_fix_point_out_of_range(self, capsys, t, point, n):
        """The point is named as the user gave it, 1-indexed."""
        e = " ".join(["1"] * n)
        code, out, err = run(capsys, "fix", "--n", str(n), "--t", t, "--e", e)
        assert (code, out) == (2, "")
        assert err == f"error: image point {point} out of range for degree {n}\n"

    def test_usage_fix_degree_mismatch(self, capsys):
        code, out, err = run(
            capsys, "fix", "--n", "9", "--t", "1 2 3", "--e", "1 1 1"
        )
        assert code == 2 and out == "" and "degree" in err


# Starts the command in its argv and prints its exit code and ``ru_maxrss``
# from ``os.wait4``, the rusage of that one child (``RUSAGE_CHILDREN`` is a
# maximum over every child so far, so it cannot tell verbs apart).
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@functools.cache
def _peak_rss(argv):
    """Exit code and peak RSS in KiB of one fresh run of the verb ``argv``,
    with the capacity override unset."""
    src = str(Path(endtn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("ENDTN_CAPACITY_OVERRIDE", None)
    verb = [sys.executable, "-m", "endtn.cli", *argv.split()]
    launched = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *verb],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kib = map(int, launched.stdout.split())
    return code, peak_kib


class TestMemoryBounds:
    """Each verb's own peak RSS, run in a fresh process.

    Linux keeps a process's ``ru_maxrss`` across ``execve``, so a verb
    started straight from the test process would report that process's
    peak.  A small launcher process starts it instead.  ``ru_maxrss`` is
    in KiB.
    """

    @pytest.mark.parametrize(
        "argv, bound_mb",
        [
            # 88-89 MB with int32 product-table cells, 66-70 MB with uint16
            # (the 80 MB bound), 59-61 MB with each ideal a packed mask,
            # kernel keys in uint16 and the idempotent lines read a block at
            # a time (the 64 MB bound).  Each verb is run once for both.
            ("extended --n 5", 80),
            ("extended --n 5", 64),
            ("ideals --n 5", 80),
            ("ideals --n 5", 64),
            # Builds no table: 47 MB.
            ("idempotents --n 6", 60),
            # 89 MB while every R4 record was stored, 49-50 MB with R4 kept
            # as its same-type pairs, for 1,000 sampled words or for every
            # element's normal form.
            ("presentation-check --n 6", 65),
            # 62 MB while U_7 was tested in one pass and every pair of U_7
            # was made an object, 59-60 MB with neither.
            ("counts --n 7", 62),
        ],
    )
    def test_peak_rss_is_bounded(self, argv, bound_mb):
        code, peak_kib = _peak_rss(argv)
        assert code == 0
        assert peak_kib / 1024 < bound_mb


class TestEnvironmentMatrix:
    """The same stdout under ``python -O`` and under fixed hash seeds.

    ``-O`` strips ``assert`` statements and ``__debug__`` blocks, and the
    hash seed reorders sets and dicts keyed by strings, so a check that
    depended on either, or an output that followed set order, would change
    the bytes.  The digests were recorded under plain ``python``.
    """

    ENVIRONMENTS = [
        (["-O"], {}),
        ([], {"PYTHONHASHSEED": "0"}),
        ([], {"PYTHONHASHSEED": "424242"}),
    ]

    PINNED = [
        ("verify-mult --n 4", "5bc663e7afce22e9d2efe4fdcb3ca8783be022fd4dc72066ddfc5602b913565e"),
        (
            "verify-mult --n 5 --samples 20000 --seed 7",
            "dcaff03ccc01ae9501d827217f18522b4de29255438bf83689d872ec93ee1bf0",
        ),
        ("counts --n 5 --verify", "60c99db6645b32c5ab3827f8657b517338d6322bb0259d4be153351e14f43aa0"),
        ("presentation-check --n 5", "f653d186244170df6902521d303ff4d55a8f7d092a69f2fd2fc0d7274e497a67"),
        # 15 ties of size and least member, in the iteration order of a set
        # of frozensets of element indices.
        ("ideals --n 4", "a39b697fa1e79b6d53a44b5f49d291b1e4616f0e9b9e3cf8c189d4f25722662a"),
    ]

    @pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
    def test_stdout_is_pinned_in_every_environment(self, monkeypatch, argv, digest):
        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        src = str(Path(endtn.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # The three environments run side by side, one process each.
        children = [
            subprocess.Popen(
                [sys.executable, *flags, "-m", "endtn.cli", *argv.split()],
                env={**os.environ, "PYTHONPATH": path, **extra},
                stdout=subprocess.PIPE,
            )
            for flags, extra in self.ENVIRONMENTS
        ]
        try:
            outputs = [child.communicate(timeout=60)[0] for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait()
        assert [child.returncode for child in children] == [0, 0, 0]
        assert {hashlib.sha256(out).hexdigest() for out in outputs} == {digest}

import csv
import hashlib
import io
import json
import random

import pytest

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

    def test_presentation_check(self, capsys):
        code, out, _ = run(
            capsys, "presentation-check", "--n", "5", "--samples", "50"
        )
        assert code == 0 and "all sound" in out


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

    # sha256 of the table output at n = 4, recorded before the brute side
    # moved onto the row and column bitsets of the product table.
    @pytest.mark.parametrize(
        "verb, digest",
        [
            ("green", "c764df1335ec6752797e0f1311bcd387ffe83124a33676ab7fa4c7ebcdc978b8"),
            ("extended", "9c4f4c6ca36c07998af512b23fcf9f2fbae390da5d79525bcfae6ba7b9f3dc67"),
            ("ideals", "a39b697fa1e79b6d53a44b5f49d291b1e4616f0e9b9e3cf8c189d4f25722662a"),
            ("regular", "2cffa1f76bf2a0ea217c4a32583a4c62b812c70d5c91b85ddb5058a2b6aec8ac"),
            ("idempotents", "24b734f2ff74953689ad29eaa2ef25bd5845894e6bc24f907bdce5f1681344b0"),
        ],
    )
    def test_pinned_table_output(self, capsys, verb, digest):
        code, out, _ = run(capsys, verb, "--n", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_fix(self, capsys):
        code, out, _ = run(
            capsys, "fix", "--n", "5", "--t", "1 3 2 1 5", "--e", "1 1 1 1 1"
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["1 2 3 4 5", "1 3 2 4 5"]


class TestExitCodes:
    def test_capacity(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9")
        assert code == 3 and "capacity" in err

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

    def test_usage_fix_degree_mismatch(self, capsys):
        code, out, err = run(
            capsys, "fix", "--n", "9", "--t", "1 2 3", "--e", "1 1 1"
        )
        assert code == 2 and out == "" and "degree" in err

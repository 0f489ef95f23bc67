"""Batch command-line front end.

Every verb is a deterministic, machine-readable run: the same flags (and
seed) produce byte-identical output.  Verification verbs exit with
status 1 and print the first counterexample; capacity guards exit with
status 3; flag errors (``UsageError`` or argparse), an unwritable
``--output`` among them, exit with status 2.
Any other exception is a fault of the program: its traceback goes to
stderr and the status is 4.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import traceback

from .endomorphisms import elements, multiply, oracle_multiply
from .errors import CapacityError, UsageError, VerificationError
from .pairs import (
    PermissiblePair,
    _checked_pair_words,
    brute_force_partners,
    pair_counts,
    u_words,
)
from .presentation import (
    check_normal_forms,
    minimal_generating_set,
    presentation,
    rank_counts,
    verify_generates,
)
from .structure import (
    EXTENDED_RELATIONS,
    GREEN_RELATIONS,
    abundance_report,
    component_of,
    enumerate_ideals,
    extended_partition,
    fix_set,
    green_partition,
    idempotent_partition,
    regular_elements,
)
from .transformations import (
    MAX_END_DEGREE,
    MAX_TABLE_DEGREE,
    Transformation,
    check_capacity,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_FAULT = 4


# -- output -----------------------------------------------------------------


def _emit(args, header: list[str], rows: list[list], payload=None) -> None:
    """Write rows in the chosen format.  ``payload`` overrides the JSON
    rendering when the row shape is a poor fit for it."""
    if args.format == "json":
        data = payload if payload is not None else [
            dict(zip(header, row)) for row in rows
        ]
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        lines = [
            "  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
            for row in [header, *rows]
        ]
        text = "\n".join(lines) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc


# -- verbs ------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    rows = []
    for el in elements(args.n):
        rows.append([el.key(), el.rank, el.type_tag.value, component_of(el)])
    _emit(args, ["element", "rank", "type", "component"], rows)
    return EXIT_OK


def cmd_counts(args) -> int:
    if args.verify:
        # brute_force_partners' own guard, before any pair is built.
        check_capacity(args.n, MAX_END_DEGREE, "brute-force partner scan")
    rows = []
    words = u_words(args.n)
    # Every pair of U_n built and checked in one batch, counted per t; a t
    # whose construction gives nothing still gets its row, with 0.
    sizes = _checked_pair_words(words)[0]
    counts = zip(words.tolist(), pair_counts(words).tolist(), sizes.tolist())
    for word, formula, constructive in counts:
        row = [" ".join(str(x + 1) for x in word), formula, constructive]
        if args.verify:
            t = Transformation(tuple(word))
            brute = len(brute_force_partners(t))
            row.append(brute)
            if brute != formula:
                raise VerificationError(
                    "pair count disagrees with brute force",
                    counterexample=(t, formula, brute),
                )
        if constructive != formula:
            raise VerificationError(
                "pair count disagrees with constructive enumeration",
                counterexample=(Transformation(tuple(word)), formula, constructive),
            )
        rows.append(row)
    header = ["t", "formula", "constructive"]
    if args.verify:
        header.append("brute")
    _emit(args, header, rows)
    return EXIT_OK


def cmd_verify_mult(args) -> int:
    members = elements(args.n)
    size = len(members)
    if args.n <= 4:
        pairs = [(i, j) for i in range(size) for j in range(size)]
    else:
        rng = random.Random(args.seed)
        pairs = [
            (rng.randrange(size), rng.randrange(size)) for _ in range(args.samples)
        ]
    for i, j in pairs:
        a, b = members[i], members[j]
        symbolic = multiply(a, b)
        oracle = oracle_multiply(a, b)
        if symbolic is not oracle:
            raise VerificationError(
                "symbolic product disagrees with composition oracle",
                counterexample=(a.key(), b.key(), symbolic.key(), oracle.key()),
            )
    _emit(
        args,
        ["n", "pairs", "status"],
        [[args.n, len(pairs), "all pairs agree"]],
    )
    return EXIT_OK


def _emit_partitions(args, partitions) -> None:
    if args.format == "json":
        _emit(args, [], [], payload=[p.to_json() for p in partitions])
        return
    rows = []
    for part in partitions:
        for k, cls in enumerate(part.classes):
            members = sorted(el.key() for el in cls)
            rows.append([part.relation, k, len(cls), ";".join(members)])
    _emit(args, ["relation", "class", "size", "members"], rows)


def cmd_green(args) -> int:
    relations = [args.relation] if args.relation else list(GREEN_RELATIONS)
    _emit_partitions(args, [green_partition(args.n, rel) for rel in relations])
    return EXIT_OK


def cmd_extended(args) -> int:
    """One relation's partition, or the class counts and abundance summary,
    each relation's closed form attested against its definition on the
    table."""
    if args.relation:
        _emit_partitions(args, [extended_partition(args.n, args.relation)])
        return EXIT_OK
    rows = []
    for rel in EXTENDED_RELATIONS:
        part = extended_partition(args.n, rel)
        rows.append([rel, len(part.classes)])
    report = abundance_report(args.n)
    for field_name, value in report.to_json().items():
        if field_name != "n":
            rows.append([field_name, value])
    _emit(args, ["relation_or_property", "value"], rows)
    return EXIT_OK


def cmd_ideals(args) -> int:
    ideals = enumerate_ideals(args.n)
    if args.format == "json":
        _emit(args, [], [], payload=[d.to_json() for d in ideals])
        return EXIT_OK
    rows = [
        [d.form, d.size, ";".join(sorted(d.X)), ";".join(sorted(d.Y)),
         ";".join(sorted(d.Z))]
        for d in ideals
    ]
    _emit(args, ["form", "size", "X", "Y", "Z"], rows)
    return EXIT_OK


def cmd_idempotents(args) -> int:
    part = idempotent_partition(args.n)
    rows = []
    for name in ("epsilon", "E_7", "E_3", "E_2", "E_1"):
        members = sorted(el.key() for el in getattr(part, name))
        rows.append([name, len(members), ";".join(members)])
    _emit(args, ["family", "size", "members"], rows)
    return EXIT_OK


def cmd_regular(args) -> int:
    regular = sorted(regular_elements(args.n))
    rows = [[el.key(), component_of(el)] for el in regular]
    _emit(args, ["element", "component"], rows)
    return EXIT_OK


def cmd_gens(args) -> int:
    if args.verify:
        # verify_generates reads the product table: refuse before the orbits.
        check_capacity(args.n, MAX_TABLE_DEGREE, "product table construction")
    gens = sorted(minimal_generating_set(args.n))
    r3, r2 = rank_counts(args.n)
    verified = ""
    if args.verify:
        if not verify_generates(gens, args.n):
            raise VerificationError(
                "mandated generating set fails to generate", counterexample=None
            )
        verified = "generates"
    rows = [[el.key(), el.rank, el.type_tag.value] for el in gens]
    payload = {
        "n": args.n,
        "size": len(gens),
        "r_3": r3,
        "r_2": r2,
        "generators": [el.key() for el in gens],
    }
    if verified:
        payload["verified"] = verified
    if args.format == "json":
        _emit(args, [], [], payload=payload)
    else:
        summary = [["size", len(gens), ""], ["r_3", r3, ""], ["r_2", r2, ""]]
        if verified:
            summary.append(["verified", verified, ""])
        _emit(args, ["generator", "value", "type"], summary + rows)
    return EXIT_OK


def cmd_presentation_check(args) -> int:
    pres = presentation(args.n)
    for rel in pres.relations:
        if pres.theta(rel.lhs) is not pres.theta(rel.rhs):
            raise VerificationError(
                "relation is not theta-sound",
                counterexample=(rel.family, rel.lhs, rel.rhs),
            )
    checked = check_normal_forms(pres)
    _emit(
        args,
        ["n", "relations", "normal_forms", "status"],
        [[args.n, len(pres.relations), checked, "all sound"]],
    )
    return EXIT_OK


def cmd_fix(args) -> int:
    try:
        pair = PermissiblePair(
            Transformation.from_text(args.t), Transformation.from_text(args.e)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if pair.t.n != args.n:
        raise UsageError(f"--n {args.n} differs from the degree {pair.t.n} of --t")
    result = fix_set(pair)
    rows = [[g.to_text()] for g in sorted(result.elements)]
    _emit(args, ["g"], rows)
    return EXIT_OK


# -- plumbing ---------------------------------------------------------------


def non_negative(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def positive(text: str) -> int:
    """argparse type of --n and --samples: a positive integer (a sampled
    run checks at least one pair)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endtn",
        description="Computations in the endomorphism monoid of the full "
        "transformation semigroup T_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, verify=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--n", type=positive, required=True, help="degree")
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            default="table",
            help="output format",
        )
        p.add_argument("--output", default="-", help="output path, - for stdout")
        if verify:
            p.add_argument(
                "--verify",
                action="store_true",
                help="run the extra cross-checks for this verb",
            )
        return p

    add("enumerate", cmd_enumerate, "list every element with rank and type")
    add("counts", cmd_counts, "pair counts per square-root-compatible t", verify=True)
    m = add("verify-mult", cmd_verify_mult, "symbolic product vs composition oracle")
    m.add_argument("--seed", type=non_negative, default=0, help="sampling seed")
    m.add_argument("--samples", type=positive, default=100_000, help="sample count")
    g = add("green", cmd_green, "Green's relation partitions")
    g.add_argument(
        "--relation", choices=GREEN_RELATIONS, help="one relation (default: all)"
    )
    x = add("extended", cmd_extended, "extended Green's relations and abundance")
    x.add_argument(
        "--relation",
        choices=EXTENDED_RELATIONS,
        help="one relation (default: summary)",
    )
    add("ideals", cmd_ideals, "two-sided ideals in classified form")
    add("idempotents", cmd_idempotents, "idempotents grouped by rank")
    add("regular", cmd_regular, "regular elements")
    add("gens", cmd_gens, "minimal generating set and orbit counts", verify=True)
    add(
        "presentation-check",
        cmd_presentation_check,
        "relation soundness and every element's normal form",
    )
    f = add("fix", cmd_fix, "conjugation-fixing subgroup of a pair")
    f.add_argument("--t", required=True, help='t as 1-indexed images, e.g. "1 3 2 1 5"')
    f.add_argument("--e", required=True, help='e as 1-indexed images, e.g. "1 1 1 1 1"')
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        if exc.counterexample is not None:
            print(f"counterexample: {exc.counterexample}", file=sys.stderr)
        return EXIT_VERIFICATION
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())

"""One workload of the endtn benchmark, in the interpreter it was started in.

``run.py`` starts this script in a fresh interpreter for every run; it is
not meant to be run by hand.  It prints one JSON line: the milestones of
the run as absolute ``time.perf_counter`` readings (a system-wide
monotonic clock, so ``run.py`` can subtract its own spawn time), the
operation counts, the peak RSS, and, when traced, the per-layer metrics.

Every operation is attempted on its own: an exception counts as one
failed operation and the run goes on, and a wrong answer counts as a
failed operation and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
GATES_PATH = os.path.join(HERE, "gates.json")

# The query phase is a fixed number of operations per --seconds, sized to
# take about that long with the code the benchmark was written against (a
# 2-core x86-64 VM, Python 3.11), so that a faster program ends sooner and
# every time metric shows it.
STRUCTURE_STEPS_PER_SECOND = 1_200  # one principal_ideals and one j_leq each
ORACLE_PAIRS_PER_SECOND = 10_000
WORDS_PER_SECOND = 1_000

# The normal_form output gate rewrites the first words of this seed.
DEFAULT_SEED = 0

# The verbs as README documents them: default (table) format, to a file.
VERB_RUNS = (
    ("green", "--n", "5"),
    ("extended", "--n", "5"),
    ("regular", "--n", "5"),
    ("idempotents", "--n", "5"),
    ("ideals", "--n", "5"),
    ("gens", "--n", "5", "--verify"),
)

FAILED = object()


class Ledger:
    """Counts attempted and failed operations and remembers why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[str] = Counter()

    def attempt(self, what: str, fn, *args):
        """``fn(*args)``, or FAILED if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every exception is one failed operation
            reason = f"{what}: {type(exc).__name__}"
            if reason not in self.reasons:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.reasons[reason] += 1
            return FAILED

    def fail(self, what: str, why: str, wrong: bool) -> None:
        """An attempted operation that returned but did not succeed."""
        reason = f"{what}: {why}"
        if reason not in self.reasons:
            print(f"perfbench: {reason}", file=sys.stderr)
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1


class Run:
    def __init__(self, args):
        self.args = args
        # Each repeat of a run draws its own inputs from the seed.
        self.stream = f"{args.seed}:{args.repeat}"
        self.tracer = tracing.Tracer() if args.trace else None
        self.ledger = Ledger()
        self.phases: dict[str, list[float]] = {}
        self.ready = 0.0
        self.relations = 0
        self.chunk_rates: list[float] = []
        self.gate_failures: list[str] = []
        self.extra = {"presentation.relations": 0, "cli.output_bytes": 0}
        with open(GATES_PATH) as handle:
            self.gates = json.load(handle)

    @contextmanager
    def phase(self, name: str):
        """A benchmark phase; a top-level span when traced."""
        start = perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span("bench." + name):
                yield
        self.phases[name] = [start, perf_counter()]

    def gate(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.gate_failures.append(name)
            print(f"perfbench: output gate {name} failed: {detail}", file=sys.stderr)

    def query_chunk(self, steps: int, per_step: int, step) -> None:
        """``step()`` ``steps`` times, each ``per_step`` checked queries;
        records the rate of this stretch of query work."""
        start = perf_counter()
        for _ in range(steps):
            step()
        self.chunk_rates.append(steps * per_step / (perf_counter() - start))

    def query_loop(self, steps: int, per_step: int, step) -> None:
        with self.phase("queries"):
            self.query_chunk(steps, per_step, step)

    def import_endtn(self) -> None:
        # ``endtn.presentation`` is rebound to the function of that name by
        # the package, so modules are always taken from sys.modules.
        with self.phase("import"):
            import endtn.cli  # noqa: F401  (the package loads the other submodules)

        src = os.path.join(os.path.dirname(HERE), "src")
        if not os.path.abspath(sys.modules["endtn"].__file__).startswith(src + os.sep):
            raise SystemExit(f"perfbench: endtn was not imported from {src}")
        if self.tracer is not None:
            tracing.install(self.tracer)


def module(name: str):
    return sys.modules["endtn." + name]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- workloads ---------------------------------------------------------------


def structure_n5(run: Run) -> None:
    with run.phase("setup"):
        uni = module("universe").get_universe(5)
    run.gate("elements", uni.size == run.gates["elements_n5"], f"{uni.size} elements")
    run.ready = perf_counter()
    if run.args.setup_only:
        return

    ledger = run.ledger
    main = module("cli").main
    structure = module("structure")
    principal_ideals, j_leq = structure.principal_ideals, structure.j_leq
    rng = random.Random(f"structure_n5:{run.stream}")
    elements = uni.elements

    def verb(argv):
        name = argv[0]
        path = os.path.join(run.args.out, name + ".txt")
        code = ledger.attempt(name, main, [*argv, "--output", path])
        if code is FAILED:
            return
        if code != 0:
            ledger.fail(name, f"exit code {code}", wrong=False)
            return
        with open(path, "rb") as handle:
            data = handle.read()
        run.extra["cli.output_bytes"] += len(data)
        problem = check_verb_output(run.gates, name, data)
        if problem:
            ledger.fail(name, problem, wrong=True)

    def step():
        a = elements[rng.randrange(len(elements))]
        b = elements[rng.randrange(len(elements))]
        ideals = ledger.attempt("principal_ideals", principal_ideals, a)
        if ideals is not FAILED and not (
            a in ideals.left
            and a in ideals.right
            and ideals.left <= ideals.two_sided
            and ideals.right <= ideals.two_sided
        ):
            ledger.fail("principal_ideals", "ideals not nested", wrong=True)
        leq = ledger.attempt("j_leq", j_leq, a, b)
        if leq is not FAILED and ideals is not FAILED and leq != (b in ideals.two_sided):
            ledger.fail("j_leq", "disagrees with principal_ideals", wrong=True)

    # A chunk of queries follows each verb, so that the query rate is
    # sampled across the whole run and not in one window of the host's
    # drifting speed.  The first verb (green) has filled every cache the
    # queries read.
    steps = STRUCTURE_STEPS_PER_SECOND * run.args.seconds // len(VERB_RUNS)
    with run.phase("verify"):
        for argv in VERB_RUNS:
            verb(argv)
            run.query_chunk(steps, 2, step)


def check_verb_output(gates: dict, verb: str, data: bytes) -> str | None:
    if verb != "gens":
        digest = sha256(data)
        if digest != gates["verb_sha256"][verb]:
            return f"output sha256 {digest} differs from the recorded one"
        return None
    # The table form of gens crashed when the gates were recorded, so the
    # gate is the generator set (recorded from the JSON form) and the
    # verification line, not the bytes.
    expected = gates["gens"]
    text = data.decode()
    keys = sorted(
        line.split()[0]
        for line in text.splitlines()
        if line.startswith(("aut:", "phi:", "sigma4:"))
    )
    if len(keys) != expected["size"] or sha256("\n".join(keys).encode()) != expected["keys_sha256"]:
        return f"generator set differs ({len(keys)} generators)"
    if not any(line.split()[:2] == ["verified", "generates"] for line in text.splitlines()):
        return "no 'verified generates' line"
    return None


def oracle_n5(run: Run) -> None:
    endomorphisms = module("endomorphisms")
    with run.phase("setup"):
        elements = sorted(endomorphisms.enumerate_End(5))
    run.gate("elements", len(elements) == run.gates["elements_n5"], f"{len(elements)} elements")
    run.ready = perf_counter()
    if run.args.setup_only:
        return

    multiply, oracle_multiply = endomorphisms.multiply, endomorphisms.oracle_multiply

    def agrees(a, b):
        return multiply(a, b) is oracle_multiply(a, b)

    ledger = run.ledger
    rng = random.Random(f"oracle_n5:{run.stream}")

    def step():
        a = elements[rng.randrange(len(elements))]
        b = elements[rng.randrange(len(elements))]
        if ledger.attempt("pair", agrees, a, b) is False:
            ledger.fail("pair", "multiply differs from oracle_multiply", wrong=True)

    run.query_loop(ORACLE_PAIRS_PER_SECOND * run.args.seconds, 1, step)


def presentation_n6(run: Run) -> None:
    presentation = module("presentation")
    with run.phase("setup"):
        pres = presentation.presentation(6)
    run.extra["presentation.relations"] = len(pres.relations)
    run.gate(
        "relations",
        len(pres.relations) == run.gates["relations_n6"],
        f"{len(pres.relations)} relations",
    )
    run.ready = perf_counter()
    if run.args.setup_only:
        return

    ledger = run.ledger
    theta = pres.theta

    def sound(relation):
        return theta(relation.lhs) is theta(relation.rhs)

    with run.phase("relations"):
        for relation in pres.relations:
            if ledger.attempt("relation", sound, relation) is False:
                ledger.fail("relation", "relation is not theta-sound", wrong=True)
            run.relations += 1

    normal_form, theta_eval = presentation.normal_form, presentation.theta_eval

    def words(stream: str):
        rng = random.Random(f"presentation_n6:{stream}")
        alphabet = list(pres.q_symbols) + list(pres.p_symbols)
        while True:
            yield tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))

    def rewrite(word):
        reduced = normal_form(word, 6)
        return reduced, theta_eval(reduced, 6) is theta_eval(word, 6)

    def checked_normal_form(word):
        """The normal form of word, or None if rewriting failed."""
        result = ledger.attempt("normal_form", rewrite, word)
        if result is FAILED:
            return None
        if not result[1]:
            ledger.fail("normal_form", "normal form changed the element", wrong=True)
        return result[0]

    with run.phase("gate"):
        gate_words = words(str(DEFAULT_SEED))
        forms = [
            checked_normal_form(next(gate_words))
            for _ in range(run.gates["normal_form_words"])
        ]
        digest = sha256(json.dumps(forms).encode())
        run.gate(
            "normal_form",
            digest == run.gates["normal_form_sha256"],
            f"sha256 {digest} of the seed-{DEFAULT_SEED} normal forms differs",
        )

    seeded = words(run.stream)
    run.query_loop(
        WORDS_PER_SECOND * run.args.seconds, 1, lambda: checked_normal_form(next(seeded))
    )


WORKLOADS = {
    "structure_n5": structure_n5,
    "oracle_n5": oracle_n5,
    "presentation_n6": presentation_n6,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=0, help="which repeat of the run")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for verb outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    run = Run(args)
    run.import_endtn()
    WORKLOADS[args.workload](run)
    end = perf_counter()

    result = {
        "start": start,
        "ready": run.ready,
        "end": end,
        "phases": run.phases,
        "relations": run.relations,
        "chunk_rates": run.chunk_rates,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "wrong": run.ledger.wrong,
        "reasons": dict(run.ledger.reasons),
        "gate_failures": run.gate_failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if run.tracer is not None:
        layers = tracing.layer_metrics(run.tracer, run.extra)
        result["layers"] = {name: list(pair) for name, pair in layers.items()}
        result["top_level"] = tracing.top_level(run.tracer)
        result["hot_by_parent"] = tracing.hot_by_parent(run.tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

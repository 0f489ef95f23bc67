"""End-to-end and per-layer benchmark of endtn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name and unit.  Untraced runs report the end-to-end
metrics, traced runs the per-layer ones.  The exit code is 0 only when every
run finished and printed a result.

Workloads (``workload.py``), each a closed loop with one caller in one
process and no threads.  Inputs are drawn from ``random.Random`` seeded
with ``"<workload>:<seed>:<repeat>"``, where ``repeat`` counts the workload
processes of one run:

* ``structure_n5`` runs the table-driven CLI verbs at n = 5 in their
  default table format, writing to files (``green``, ``extended``,
  ``regular``, ``idempotents``, ``ideals``, ``gens --verify``), each
  followed by a chunk of ``principal_ideals`` and ``j_leq`` queries on
  random elements.  It is the only workload that builds the dense product
  table ``Universe(5)``.
* ``oracle_n5`` checks ``multiply(a, b) is oracle_multiply(a, b)`` on
  uniformly drawn pairs of ``enumerate_End(5)``.  It builds no table.
* ``presentation_n6`` builds ``presentation(6)``, checks all of its
  relations with ``Presentation.theta``, then rewrites random words with
  ``normal_form`` and checks each with ``theta_eval``.  It builds no table.

Isolation.  Every run starts a fresh interpreter, because every cache of
endtn (``lru_cache`` on ``get_universe``/``_orbits``/``presentation``, the
intern tables, ``_component_cache``, ``_fix_key_cache``) is process-global
and a CLI user pays for filling it on each invocation.  The child gets
``PYTHONPATH=src``, no ``ENDTN_CAPACITY_OVERRIDE``, one BLAS/OpenMP thread,
and a random hash seed: the verb outputs are byte-identical across hash
seeds, so the digest gates also check hash-order independence.

End-to-end metrics (untraced).  A run first starts ``SETUP_PROBES``
set-up-only processes and then ``REPEATS`` workload processes, and
reports medians over them:

* ``wall_s``: from spawning the workload process to its last checked answer;
* ``setup_s``: from spawning until the workload's substrate is ready
  (``get_universe(5)``, ``enumerate_End(5)`` or ``presentation(6)``), over
  the set-up-only and the workload processes;
* ``verify_s``: ``wall_s`` minus that process's own set-up time;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process;
* ``queries_per_s``: checked queries per second (query pairs on
  ``structure_n5``, product pairs on ``oracle_n5``, words on
  ``presentation_n6``): the median over the run's stretches of query work,
  which are the query phase of each process, or on ``structure_n5`` the
  query chunk after each verb.

The lines above the JSON also give ``failed_frac`` with its base, the rate
of each workload's own checks (``oracle_pairs_per_s``, ``relations_per_s``,
``words_per_s``) and ``host.ref_loop_s``, a fixed pure-Python loop that
shows slow periods of the host when sets of runs are compared.

Per-layer metrics (traced, ``tracing.py``) come from wrappers around the
public functions of ``transformations``, ``pairs``, ``endomorphisms``,
``universe``, ``structure``, ``presentation`` and ``cli``.  A traced run
also runs the workload untraced first: ``bench.trace_overhead_s`` is the
difference of the two ``wall_s``.  The benchmark's own phases are the
top-level spans; ``bench.uncovered_s`` is the part of ``wall_s`` they and
the interpreter start (``bench.startup_s``) leave uncovered.

Import hygiene: ``endtn/__init__.py`` rebinds ``endtn.presentation`` to the
function ``presentation``, so ``from endtn import presentation`` is not the
module.  The benchmark takes every submodule from ``sys.modules``.

Output gates (``gates.json``, recorded when the benchmark was added): the
sha256 of each verb output, 3,226 elements at n = 5, 419,841 relations at
n = 6, and the sha256 of the normal forms of the first 200 words of seed 0,
which every ``presentation_n6`` process rewrites.  The table form of ``gens`` crashed
when they were recorded; its gate is the generator set of the JSON form.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_SCRIPT = os.path.join(ROOT, "perfbench", "workload.py")
WORKLOADS = ("structure_n5", "oracle_n5", "presentation_n6")

# Processes of an untraced run.  The speed of a shared host drifts by 10-25%
# over tens of seconds, so the shorter workloads run more than once.
SETUP_PROBES = {"structure_n5": 1, "oracle_n5": 2, "presentation_n6": 0}
REPEATS = {"structure_n5": 1, "oracle_n5": 3, "presentation_n6": 2}

# Every run of one workload ends within this many seconds or is killed.
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
)
# The rate of each workload's own checks, printed under their own names.
OWN_RATES = {
    "oracle_n5": ("oracle_pairs_per_s",),
    "presentation_n6": ("words_per_s",),
}


class BenchmarkError(Exception):
    """A workload process failed or returned no result."""


def ref_loop() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFF
        times.append(perf_counter() - start)
    return statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("ENDTN_CAPACITY_OVERRIDE", "PYTHONHASHSEED"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Runner:
    def __init__(self, args, out_dir: str, deadline: float):
        self.args = args
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, workload: str, trace: int, setup_only: bool = False, repeat: int = 0) -> dict:
        """One workload process; its result, with ``spawn`` and ``wall`` added."""
        cmd = [
            sys.executable, WORKLOAD_SCRIPT, workload,
            "--seed", str(self.args.seed),
            "--repeat", str(repeat),
            "--seconds", str(self.args.seconds),
            "--trace", str(trace),
            "--out", self.out_dir,
        ]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchmarkError(f"{workload}: out of time before starting")
        spawn = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload}: killed after {timeout:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{workload}: exit code {proc.returncode}, no result")
        result = json.loads(lines[-1])
        result["spawn"] = spawn
        result["wall"] = result["end"] - spawn
        return result

    def end_to_end(self, workload: str) -> tuple[dict, dict, list[str]]:
        """Outcome, end-to-end metrics and report lines of an untraced run."""
        setups = []
        for _ in range(SETUP_PROBES[workload]):
            probe = self.spawn(workload, trace=0, setup_only=True)
            setups.append(probe["ready"] - probe["spawn"])
        mains = [self.spawn(workload, trace=0, repeat=r) for r in range(REPEATS[workload])]
        setups += [main["ready"] - main["spawn"] for main in mains]

        def median(key):
            return statistics.median(key(main) for main in mains)

        values = {
            "wall_s": median(lambda m: m["wall"]),
            "setup_s": statistics.median(setups),
            "verify_s": median(lambda m: m["end"] - m["ready"]),
            "peak_rss_mb": median(lambda m: m["rss_mb"]),
            "queries_per_s": statistics.median(r for m in mains for r in m["chunk_rates"]),
        }
        lines = [f"{name} {values['queries_per_s']:.6g} 1/s" for name in OWN_RATES.get(workload, ())]
        if workload == "presentation_n6":
            relations = median(lambda m: m["relations"] / phase_s(m, "relations"))
            lines.append(f"relations_per_s {relations:.6g} 1/s")
        lines.append("setup samples (s): " + ", ".join(f"{s:.4g}" for s in setups))
        lines.append("wall samples (s): " + ", ".join(f"{m['wall']:.4g}" for m in mains))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        return outcome(mains), metrics, lines

    def layers(self, workload: str, untraced_wall: float) -> tuple[dict, dict, list[str]]:
        """Outcome, per-layer metrics and report lines of a traced run."""
        traced = self.spawn(workload, trace=1)
        metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
        startup = traced["start"] - traced["spawn"]
        covered = sum(seconds for _, seconds in traced["top_level"])
        metrics["bench.trace_overhead_s"] = (traced["wall"] - untraced_wall, "s")
        metrics["bench.startup_s"] = (startup, "s")
        metrics["bench.uncovered_s"] = (traced["wall"] - startup - covered, "s")
        lines = [f"traced wall_s {traced['wall']:.6g} s, top-level spans:"]
        lines.append(f"  {'startup':44} {startup:.6g} s")
        lines += [f"  {name:44} {seconds:.6g} s" for name, seconds in traced["top_level"]]
        lines.append(f"  {'uncovered':44} {metrics['bench.uncovered_s'][0]:.6g} s")
        lines.append("hot calls by enclosing span (calls, s):")
        lines += [
            f"  {name:32} {where:40} {calls:>9} {seconds:.4g}"
            for name, where, calls, seconds in traced["hot_by_parent"]
        ]
        return outcome([traced]), metrics, lines


def phase_s(result: dict, phase: str) -> float:
    start, end = result["phases"][phase]
    return end - start


def outcome(results: list[dict]) -> dict:
    """Operation counts and failures summed over workload processes."""
    reasons = Counter()
    for result in results:
        reasons.update(result["reasons"])
    return {
        "correct": all(r["wrong"] == 0 and not r["gate_failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "reasons": reasons,
        "gate_failures": sorted({g for r in results for g in r["gate_failures"]}),
    }


def report(title: str, done: dict, metrics: dict, lines: list[str]) -> None:
    print(f"workload {title}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:48} {shown} {unit}")
    attempted, failed = done["attempted"], done["failed"]
    print(f"  {'failed_frac':48} {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for reason, count in sorted(done["reasons"].items()):
        print(f"    failed: {reason} x{count}")
    for gate in done["gate_failures"]:
        print(f"    output gate failed: {gate}")
    for line in lines:
        print("  " + line)


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(args, out_dir: str, ref_s: float) -> dict:
    runner = Runner(args, out_dir, perf_counter() + DEADLINE_S)
    if args.trace:
        untraced = runner.spawn(args.workload, trace=0)
        done, metrics, lines = runner.layers(args.workload, untraced["wall"])
        done["correct"] = done["correct"] and outcome([untraced])["correct"]
        metrics["host.ref_loop_s"] = (ref_s, "s")
    else:
        done, metrics, lines = runner.end_to_end(args.workload)
        lines.append(f"host.ref_loop_s {ref_s:.6g} s")
    report(args.workload, done, metrics, lines)
    return {key: done[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": as_json(metrics)
    }


def run_all(args, out_dir: str, ref_s: float) -> dict:
    """Every workload: end-to-end metrics untraced, then layers traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {"host.ref_loop_s": (ref_s, "s")}
    for workload in WORKLOADS:
        runner = Runner(args, out_dir, perf_counter() + 2 * DEADLINE_S)
        done, e2e, lines = runner.end_to_end(workload)
        report(workload, done, e2e, lines)
        traced, layers, lines = runner.layers(workload, e2e["wall_s"][0])
        report(workload + " (traced)", traced, layers, lines)
        summary["correct"] = summary["correct"] and done["correct"] and traced["correct"]
        summary["attempted"] += done["attempted"]
        summary["failed"] += done["failed"]
        for name, pair in {**e2e, **layers}.items():
            metrics[f"{workload}.{name}"] = pair
    print(f"host.ref_loop_s {ref_s:.6g} s")
    return summary | {"metrics": as_json(metrics)}


def main() -> int:
    parser = argparse.ArgumentParser(description="endtn benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="report per-layer metrics of a traced run (one workload)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "endtn", "__init__.py")):
        print(f"perfbench: no endtn sources under {ROOT}/src", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and waits for the running
    # workload process, and the output directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ref_s = ref_loop()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        try:
            run = run_all if args.workload == "all" else run_one
            summary = run(args, out_dir, ref_s)
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

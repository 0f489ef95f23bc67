"""Record the benchmark of HEAD against a parent commit.

Run from anywhere in a checkout:

    python3 tools/bench_record.py PARENT

Both commits are extracted with ``git archive`` into temporary
directories (the repository's ``.git`` and working tree are left alone),
and each runs the command ``BENCHMARK.json`` declares, untraced:

    <command> --workload W --seed S --seconds <run_seconds> --trace 0

for every workload and the seeds 1 to 10, one run of each commit per
(seed, workload): the parent first on odd seeds, HEAD first on even ones.
The runs go one at a time.  ``BENCH_<HEAD short sha>.json`` is written to
the root of the checkout: each run's final JSON line with its exit code
and ``host.ref_loop_s``, the seeds, and per workload and end-to-end
metric the median and quartiles of each side, the ratio of the medians,
and in how many pairs HEAD was the better.  The exit code is 0 only when
every run exited 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(commit: str, into: Path) -> None:
    archive = subprocess.Popen(
        ["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")


def run(
    tree: Path, command: list[str], workload: str, seed: int, seconds: int
) -> dict:
    """One untraced run: its exit code, final JSON line and reference loop."""
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"exit": proc.returncode, "result": None, "ref_loop_s": None}
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("host.ref_loop_s "):
            record["ref_loop_s"] = float(line.split()[1])
    return record


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles."""
    if len(values) < 2:
        return values * 2
    first, _, third = statistics.quantiles(values, n=4)
    return [first, third]


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric, each side's median and quartiles, the ratio
    of the medians (HEAD over parent) and HEAD's wins over its pairs."""
    def value(record, name):
        result = record["result"]
        return result["metrics"][name]["value"] if result else None

    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = {}
        for record in runs:
            pairs.setdefault(record["seed"], {})[record["side"]] = value(record, name)
        both = [(p["parent"], p["head"]) for p in pairs.values()
                if p.get("parent") is not None and p.get("head") is not None]
        if not both:
            continue
        parent, head = ([pair[i] for pair in both] for i in (0, 1))
        wins = sum((h < p) if lower else (h > p) for p, h in both)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "head_median": statistics.median(head),
            "head_quartiles": quartiles(head),
            "ratio": statistics.median(head) / statistics.median(parent),
            "head_better_pairs": f"{wins} of {len(both)}",
        }
    return out


def operations(runs: list[dict]) -> dict:
    """Failed and attempted operations summed per side."""
    out = {}
    for record in runs:
        side = out.setdefault(record["side"], {"failed": 0, "attempted": 0})
        for key in side:
            side[key] += record["result"][key] if record["result"] else 0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare HEAD against")
    args = parser.parse_args()
    commits = {
        "parent": git("rev-parse", args.parent),
        "head": git("rev-parse", "HEAD"),
    }
    head_short = git("rev-parse", "--short", "HEAD")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-record-") as workdir:
        trees = {side: Path(workdir) / side for side in commits}
        for side, commit in commits.items():
            extract(commit, trees[side])
        bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        for seed in SEEDS:
            order = ("parent", "head") if seed % 2 else ("head", "parent")
            for spec in bench["workloads"]:
                for side in order:
                    record = run(
                        trees[side], bench["command"], spec["name"], seed,
                        bench["run_seconds"],
                    )
                    record |= {"workload": spec["name"], "seed": seed, "side": side}
                    runs.append(record)
                    print(f"{spec['name']} seed {seed} {side}: exit {record['exit']}",
                          file=sys.stderr)
    summary = {}
    for spec in bench["workloads"]:
        mine = [r for r in runs if r["workload"] == spec["name"]]
        summary[spec["name"]] = {
            "operations": operations(mine),
            "metrics": summarise(mine, bench["end_to_end"]),
        }
    target = ROOT / f"BENCH_{head_short}.json"
    target.write_text(json.dumps({
        "commits": commits,
        "seeds": list(SEEDS),
        "run_seconds": bench["run_seconds"],
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    for workload, rows in summary.items():
        print(f"{workload:16} operations {rows['operations']}")
        for name, row in rows["metrics"].items():
            print(f"{workload:16} {name:14} parent {row['parent_median']:.4g} "
                  f"[{row['parent_quartiles'][0]:.4g}, {row['parent_quartiles'][1]:.4g}]"
                  f"  head {row['head_median']:.4g}  ratio {row['ratio']:.3f}"
                  f"  head better {row['head_better_pairs']}")
    print(f"wrote {target.name}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare the benchmark's end-to-end metrics between two revisions.

    python3 tools/ab_bench.py --workload W [--parent REV] [--pairs N]
                              [--seconds S] [--parent-dir DIR]

Runs from the root of a checkout of the repository, which is the change.
The parent revision (default HEAD~1) is checked out with `git worktree`
into a temporary directory, removed afterwards; --parent-dir names an
existing checkout of the parent instead.  The tool then runs N pairs of
`python3 bench/run.py --workload W --seconds S`, one in each checkout,
parent first in even pairs and change first in odd ones, one run at a
time.  For every end-to-end metric of BENCHMARK.json it prints

    primal_s: 1.052 [0.951, 1.196] -> 0.705 [0.621, 0.780] s, better in 10 of 10;
      median gain 0.347 against a parent quartile spread of 0.245

medians with [first, third] quartiles (statistics.quantiles, inclusive),
and in how many pairs the change was better in the metric's direction;
then the failed operations of each side, and in how many pairs the two
checkouts wrote the same bench/out/W/round-0/outputs, byte for byte:

    outputs byte-identical in 10 of 10 pairs
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """One report line pair per metric from the paired runs' metric values.

    parent[i] and change[i] map metric names to values for pair i; metrics
    are BENCHMARK.json's end-to-end entries (name, unit, better).
    """
    lines = []
    for metric in metrics:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gain = a2 - b2 if lower else b2 - a2
        lines.append(f"{name}: {a2:.3f} [{a1:.3f}, {a3:.3f}] -> {b2:.3f} "
                     f"[{b1:.3f}, {b3:.3f}] {unit}, better in {wins} of {len(a)};")
        lines.append(f"  median gain {gain:.3f} against a parent quartile "
                     f"spread of {a3 - a1:.3f}")
    return lines


def same_outputs(a: Path, b: Path) -> bool:
    """True when directories a and b hold the same file names, each with the
    same bytes."""
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


def run_bench(checkout: Path, workload: str, seconds: float) -> dict:
    """Run bench/run.py once in a checkout; return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(parent_dir: Path, workload: str, pairs: int, seconds: float) -> int:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": (parent_dir, []), "change": (ROOT, [])}
    outputs = Path("bench", "out", workload, "round-0", "outputs")
    identical = 0
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            checkout, runs = sides[side]
            runs.append(run_bench(checkout, workload, seconds))
            values = {k: v["value"] for k, v in runs[-1]["metrics"].items()}
            print(f"pair {i} {side}: " + ", ".join(
                f"{m['name']} {values[m['name']]:.3f}" for m in metrics), flush=True)
        identical += same_outputs(parent_dir / outputs, ROOT / outputs)
    parent, change = ([{k: v["value"] for k, v in run["metrics"].items()} for run in runs]
                      for _, runs in sides.values())
    print(f"{workload}, {pairs} pairs, --seconds {seconds:g}")
    for line in summarize(parent, change, metrics):
        print(line)
    for side, (_, runs) in sides.items():
        print(f"{side}: {sum(r['failed'] for r in runs)} failed operations "
              f"of {sum(r['attempted'] for r in runs)}")
    print(f"outputs byte-identical in {identical} of {pairs} pairs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--parent-dir", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.parent_dir is not None:
        return compare(args.parent_dir.resolve(), args.workload, args.pairs, args.seconds)
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.parent],
                       cwd=ROOT, check=True)
        try:
            return compare(tree, args.workload, args.pairs, args.seconds)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, check=True)


if __name__ == "__main__":
    sys.exit(main())

"""The mfplan benchmark: time to a checked solution, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository.  Each round is a fresh
interpreter (bench/round.py) that runs one `mfplan solve` or `mfplan sweep`
to completion and writes its outputs; the next round starts after it ends
(a closed loop with one client).  Every round pins BLAS and OpenMP to one
thread.  A run takes

* two set-up probes: fresh interpreters that stop once the instance is
  validated (`--dry-run`), so that setup_s is a median of several samples;
* untraced rounds until S seconds of rounds have passed, at least one;
* with --trace 1, one more round with every layer wrapped in spans, whose
  outputs must be byte-identical to those of the first untraced round.

Every round's outputs go through the workload's checks (bench/checks.py);
each check and each identity comparison is one operation.  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
The instances are analytic and fixed, so --seed changes nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from checks import Check, Instance, check_round, identical_outputs
from spans import clock
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# per-layer metric -> (span or counter name, field of the span summary, unit)
LAYER_SPANS = {
    "config.load_s": ("config.load", "self_s", "s"),
    "hamiltonian.phi.calls": ("hamiltonian.phi", "calls", "count"),
    "hamiltonian.phi.s": ("hamiltonian.phi", "self_s", "s"),
    "hamiltonian.legendre_L.calls": ("hamiltonian.legendre_L", "calls", "count"),
    "hamiltonian.legendre_L.s": ("hamiltonian.legendre_L", "self_s", "s"),
    "functional.prox_block.calls": ("functional.prox_block", "calls", "count"),
    "functional.prox_block.s": ("functional.prox_block", "self_s", "s"),
    "functional.prox_cell.calls": ("functional.prox_cell", "calls", "count"),
    "functional.prox_cell.s": ("functional.prox_cell", "self_s", "s"),
    "functional.integrand.s": ("functional.integrand", "self_s", "s"),
    "primal.factor.calls": ("primal.factor", "calls", "count"),
    "primal.factor.s": ("primal.factor", "self_s", "s"),
    "primal.lu_solve.calls": ("primal.lu_solve", "calls", "count"),
    "primal.lu_solve.s": ("primal.lu_solve", "self_s", "s"),
    "primal.self_s": ("primal", "self_s", "s"),
    "dual.total_s": ("dual", "total_s", "s"),
    "dual.residual.calls": ("dual.residual", "calls", "count"),
    "dual.residual.s": ("dual.residual", "self_s", "s"),
    "dual.jacobian.calls": ("dual.jacobian", "calls", "count"),
    "dual.jacobian.s": ("dual.jacobian", "self_s", "s"),
    "dual.linsolve.calls": ("dual.linsolve", "calls", "count"),
    "dual.linsolve.s": ("dual.linsolve", "self_s", "s"),
    "dual.self_s": ("dual", "self_s", "s"),
    "estimates.checks.s": ("estimates.checks", "self_s", "s"),
    "estimates.oracle.s": ("estimates.oracle", "self_s", "s"),
    "cli.write.s": ("cli.write", "self_s", "s"),
}
LAYER_COUNTS = {
    "functional.grad_evals": "functional.grad_evals",
    "primal.dr_iters": "primal.dr_iters",
    "dual.stages": "dual.stages",
    "dual.newton_steps": "dual.newton_steps",
}


def round_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_round(workload: str, out: Path, deadline: float, *, trace=False,
              setup_only=False) -> dict:
    """Start one round, wait for it, and return its record with its timings."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(out / "stdout.txt", "wb") as log:
        spawn = clock()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=round_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - spawn))
    if proc.returncode != 0:
        raise RuntimeError(f"round {out.name} ended with code {proc.returncode};"
                           f" see {out / 'stdout.txt'}")
    rec = json.loads((out / "round.json").read_text())
    rec["setup_s"] = rec["setup_done"] - spawn
    rec["run_s"] = rec["end"] - rec["setup_done"]
    return rec


def span_s(rec: dict, name: str, field: str = "total_s"):
    """A field of a span's summary; 0 where the round never made that span."""
    return rec["spans"].get(name, {}).get(field, 0)


def layer_metrics(traced: dict, untraced_run_s: float) -> dict:
    absent = set(traced["absent"])
    metrics = {}
    for metric, (span, field, unit) in LAYER_SPANS.items():
        if span not in absent:
            metrics[metric] = (span_s(traced, span, field), unit)
    for metric, counter in LAYER_COUNTS.items():
        if counter not in absent:
            metrics[metric] = (traced["counts"].get(counter, 0), "count")
    if "functional.prox_block" not in absent:
        busy = span_s(traced, "functional.prox_block", "self_s")
        cells = traced["counts"].get("functional.prox_block.cells", 0)
        metrics["functional.prox_block.cells_per_s"] = (
            cells / busy if busy > 0 else 0.0, "1/s")
    metrics["cli.output_bytes"] = (traced["output_bytes"], "B")
    metrics["trace.overhead_s"] = (traced["run_s"] - untraced_run_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = clock() + RUN_DEADLINE_S

    config = ROOT / WORKLOADS[args.workload].config
    if not (ROOT / "src" / "mfplan" / "cli.py").is_file() or not config.is_file():
        print(f"error: run from a checkout of mfplan: need src/mfplan and {config}",
              file=sys.stderr)
        return 2
    inst = Instance.from_config(config)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)

    setups = [run_round(args.workload, out / f"setup-{i}", deadline,
                        setup_only=True)["setup_s"] for i in range(SETUP_PROBES)]
    rounds = []
    while not rounds or sum(r["setup_s"] + r["run_s"] for r in rounds) < args.seconds:
        rounds.append(run_round(args.workload, out / f"round-{len(rounds)}", deadline))
    labelled = [(f"round-{i}", r) for i, r in enumerate(rounds)]
    if args.trace:
        labelled.append(("traced", run_round(args.workload, out / "traced",
                                             deadline, trace=True)))

    ops: list[Check] = []
    figures: dict[str, float] = {}
    first = out / "round-0" / "outputs"
    for label, rec in labelled:
        print(f"{label}: exit {rec['exit_code']}, setup {rec['setup_s']:.3f} s, "
              f"run {rec['run_s']:.3f} s, cpu {rec['cpu_s']:.3f} s")
        checks, figs = check_round(args.workload, inst, out / label / "outputs",
                                   rec["exit_code"])
        ops += checks
        figures.update(figs)
        if label != "round-0":
            ops += identical_outputs(first, out / label / "outputs")
    for op in ops:
        print(f"{'ok  ' if op.ok else 'FAIL'} {op.name}: {op.detail}")
    for name, value in figures.items():
        print(f"figure {name} = {value!r}")

    if args.trace:
        base = statistics.median(r["run_s"] for r in rounds)
        metrics = layer_metrics(labelled[-1][1], base)
    else:
        metrics = {
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
            "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
            "primal_s": (statistics.median(span_s(r, "primal") for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

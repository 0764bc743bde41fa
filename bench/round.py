"""One round of a workload, in a fresh interpreter.

    python3 bench/round.py --workload NAME --out DIR [--trace] [--setup-only]

Runs `mfplan solve` or `mfplan sweep` in this process, through
mfplan.cli.main, with the program's outputs in DIR/outputs.  Before it
does, it wraps module-level names of mfplan from outside, so that calls
into them leave spans:

* always the top-level calls: config loading, instance validation (whose
  return ends the set-up), solve_primal and solve_dual;
* with --trace, also the calls into every layer the benchmark reports.

With --setup-only the round stops after validation (the CLI's --dry-run).
It writes DIR/round.json: exit code, the clock when set-up ended and when
the outputs were written, peak resident memory, output bytes, and per span
name the calls, total and self time, and the wrapped names the program
no longer has; with --trace also DIR/spans.npz.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from spans import SpanRecorder, clock, counted, spanned, wrap_attr
from workloads import WORKLOADS, cli_args


def wrap_top_level(rec: SpanRecorder, marks: dict) -> None:
    from mfplan import cli, dual, primal

    def setup_done(_report):
        marks.setdefault("setup_done", clock())

    def primal_counts(result):
        rec.count("primal.dr_iters", result[1].iters)

    def dual_counts(result):
        stages = result[2].stages
        rec.count("dual.stages", len(stages))
        rec.count("dual.newton_steps", sum(s["newton_iters"] for s in stages))

    wrap_attr([cli], "load_config", lambda f: spanned(rec, f, "config.load"))
    wrap_attr([cli], "validate_problem",
              lambda f: spanned(rec, f, "grids.validate", on_return=setup_done))
    wrap_attr([primal, cli], "solve_primal",
              lambda f: spanned(rec, f, "primal", on_return=primal_counts))
    wrap_attr([dual, cli], "solve_dual",
              lambda f: spanned(rec, f, "dual", on_return=dual_counts))


class _TracedLU:
    """A SuperLU factor whose solves leave primal.lu_solve spans."""

    def __init__(self, rec: SpanRecorder, lu):
        self._lu = lu
        self.solve = spanned(rec, lu.solve, "primal.lu_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def wrap_layers(rec: SpanRecorder) -> list[str]:
    """Wrap every layer; return the span names whose function is gone."""
    from mfplan import cli, dual, estimates, functional, hamiltonian, primal

    def count_cells(f):
        def on_call(args, kwargs):
            rec.count("functional.prox_block.cells", args[0].size)
        return spanned(rec, f, "functional.prox_block", on_call=on_call)

    def assemble_mode(args, kwargs):
        jac = args[5] if len(args) > 5 else kwargs.get("with_jacobian")
        return "dual.jacobian" if jac else "dual.residual"

    def traced_factor(f):
        span = spanned(rec, f, "primal.factor")
        return lambda *a, **k: _TracedLU(rec, span(*a, **k))

    absent: list[str] = []

    def layer(owners, attr, make, *spans):
        if not wrap_attr(owners, attr, make):
            absent.extend(spans)

    def span(name):
        return lambda f: spanned(rec, f, name)

    layer([hamiltonian.CouplingSpec], "phi", span("hamiltonian.phi"),
          "hamiltonian.phi")
    layer([hamiltonian, functional], "legendre_L", span("hamiltonian.legendre_L"),
          "hamiltonian.legendre_L")
    layer([functional, primal], "prox_block", count_cells, "functional.prox_block")
    layer([functional], "_reduced_gradient",
          lambda f: counted(rec, f, "functional.grad_evals"), "functional.grad_evals")
    layer([functional], "prox_cell", span("functional.prox_cell"),
          "functional.prox_cell")
    layer([primal], "integrand", span("functional.integrand"), "functional.integrand")
    layer([primal], "splu", traced_factor, "primal.factor", "primal.lu_solve")
    layer([dual], "_assemble",
          lambda f: spanned(rec, f, "dual.assemble", on_call=assemble_mode),
          "dual.residual", "dual.jacobian")
    layer([dual], "spsolve", span("dual.linsolve"), "dual.linsolve")
    layer([cli], "_run_checks", span("estimates.checks"), "estimates.checks")
    layer([estimates], "geodesic_oracle_1d", span("estimates.oracle"),
          "estimates.oracle")
    layer([cli], "_write_fields_csv", span("cli.write"), "cli.write")
    layer([cli], "_write_json", span("cli.write"))
    return absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from mfplan import cli

    rec = SpanRecorder()
    marks: dict = {}
    wrap_top_level(rec, marks)
    absent = wrap_layers(rec) if args.trace else []
    outputs = args.out / "outputs"
    code = cli.main(cli_args(WORKLOADS[args.workload], outputs, args.setup_only))
    end = clock()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()

    record = {
        "exit_code": code,
        "setup_done": marks.get("setup_done"),
        "end": end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": usage.ru_maxrss,
        "output_bytes": sum(p.stat().st_size for p in outputs.glob("*")),
        "spans": rec.summary(),
        "counts": rec.counts,
        "absent": absent,
    }
    if args.trace:
        rec.save(args.out / "spans.npz")
    (args.out / "round.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line orchestration: solve, verify, sweep.

Exit codes: 0 success, 1 configuration or usage error, 2 solver
non-convergence, 3 estimate-check failure or a non-finite value in a JSON
output (written as null).  Outputs (fields.csv, log.json, report.json,
eps_error.csv) are deterministic: fixed summation order,
17-significant-digit decimal floats, no timestamps — reruns are
byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import estimates
from .config import KNOWN_CHECKS, ConfigError, RunConfig, load_config
from .dual import solve_dual
from .grids import validate_problem
from .hamiltonian import SolveError
from .primal import solve_primal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_CHECK_FAILED = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_fields_csv(path: Path, fields: dict[str, np.ndarray]):
    lines = ["field,t_index,x_index,value"]
    for name in sorted(fields):
        # one row of Python floats at a time: .17g of each is _fmt's text,
        # without a numpy scalar per value
        for k, row in enumerate(np.asarray(fields[name], dtype=float)):
            lines.extend(f"{name},{k},{i},{v:.17g}" for i, v in enumerate(row.tolist()))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj, key: str, nonfinite: list[str]):
    """obj in JSON types; a non-finite float becomes None and its key is
    appended to nonfinite."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{key}.{k}" if key else k, nonfinite)
                for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{key}[{i}]", nonfinite) for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        nonfinite.append(key)
        return None
    return obj


def _write_json(path: Path, payload: dict) -> list[str]:
    """Write strict JSON; name on stderr, and return, the keys whose
    non-finite values were written as null."""
    nonfinite: list[str] = []
    text = json.dumps(_jsonable(payload, "", nonfinite), indent=2,
                      sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    for key in nonfinite:
        print(f"non-finite value written as null: {path.name} {key}",
              file=sys.stderr)
    return nonfinite


def _describe(cfg: RunConfig) -> str:
    g = cfg.spec.grid
    H, C = cfg.spec.hamiltonian, cfg.spec.coupling
    lines = [
        f"grid: {g.n_t}x{g.n_x} on [0,{_fmt(g.T)}]x[{_fmt(g.x_min)},{_fmt(g.x_max)}]"
        f" ({g.topology})",
        f"hamiltonian: H = scale/2 (p^2 + varpi^2)^(q/2), q={_fmt(H.q)}"
        f" varpi={_fmt(H.varpi)} scale={_fmt(H.scale)}",
        f"coupling: eps={_fmt(C.epsilon)} f = "
        + ("0" if C.f_zero else f"c log m, c={_fmt(C.c)}" if C.a is None
           else f"c m^a, c={_fmt(C.c)} a={_fmt(C.a)}"),
        f"method: {cfg.method}",
        f"checks: {list(cfg.checks)}",
        f"mass defects: m0={_fmt(cfg.spec.mass_defect_m0)}"
        f" m1={_fmt(cfg.spec.mass_defect_m1)}",
    ]
    return "\n".join(lines)


def _run_checks(cfg: RunConfig, primal_state, u, m_dual):
    """Each configured check of estimates.CHECKS on the dual fields, in
    order; a check that takes the primal state gets it too.  A check whose
    solves did not all run is skipped."""
    results = []
    for name in cfg.checks:
        check = estimates.CHECKS[name]
        takes_primal = "primal_state" in inspect.signature(check).parameters
        if u is None or (takes_primal and primal_state is None):
            results.append(estimates.CheckResult(
                name, 0.0, 0.0, 0.0, True, skipped=True,
                reason="needs both solves" if takes_primal
                else "needs a dual solve"))
            continue
        extra = (primal_state,) if takes_primal else ()
        results.append(check(u, m_dual, cfg.spec, *extra))
    return results


def run(config_path: str, verb: str = "solve", method: str | None = None,
        out: str | None = None, dry_run: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        if method is not None:
            cfg = dataclasses.replace(cfg, method=method)
        # refused before --dry-run returns and before --out is made
        if verb == "sweep" and not cfg.sweep_eps:
            raise ConfigError("sweep.eps_list", "missing required key")
        if verb == "sweep" and not cfg.spec.coupling.f_zero:
            raise ConfigError("problem.coupling.f_family",
                              "the eps sweep requires f = 0")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if verb == "verify":
        cfg = dataclasses.replace(cfg, checks=KNOWN_CHECKS)

    report = validate_problem(cfg.spec)
    if dry_run:
        print(_describe(cfg))
        return EXIT_OK

    outdir = Path(out or cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    if verb == "sweep":
        return _run_sweep(cfg, outdir)

    primal_state = primal_log = None
    u = m_dual = dual_log = None
    log_payload: dict = {}
    if cfg.method in ("primal", "both"):
        try:
            primal_state, primal_log = solve_primal(cfg.spec, cfg.primal)
        except SolveError as exc:
            print(f"primal solve failed: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        log_payload["primal"] = dataclasses.asdict(primal_log)
        if not primal_log.converged:
            _write_json(outdir / "log.json", log_payload)
            print(f"primal solve did not converge: {primal_log.reason}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
    if cfg.method in ("dual", "both"):
        try:
            u, m_dual, dual_log = solve_dual(cfg.spec)
        except SolveError as exc:
            print(f"dual solve failed: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        log_payload["dual"] = {"stages": dual_log.stages}

    fields = {}
    if primal_state is not None:
        fields["m_primal"] = primal_state.m.values
        fields["w_primal"] = primal_state.w.values
    if u is not None:
        fields["u_dual"] = u.values
        fields["m_dual"] = m_dual.values
    _write_fields_csv(outdir / "fields.csv", fields)
    nonfinite = _write_json(outdir / "log.json", log_payload)

    checks = _run_checks(cfg, primal_state, u, m_dual)
    nonfinite += _write_json(outdir / "report.json", {
        "checks": [dataclasses.asdict(c) for c in checks],
        "validation": dataclasses.asdict(report),
    })
    for c in checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        print(f"{status} {c.name}: lhs={_fmt(c.lhs)} rhs={_fmt(c.rhs)} "
              f"tol={_fmt(c.tolerance)}")
    if any(not c.passed and not c.skipped for c in checks) or nonfinite:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _run_sweep(cfg: RunConfig, outdir: Path) -> int:
    try:
        sweep = estimates.eps_sweep(cfg.spec, cfg.sweep_eps, cfg.primal)
    except SolveError as exc:
        print(f"sweep member solve failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    lines = ["eps,error"]
    for eps, err in zip(sweep.eps_list, sweep.errors):
        lines.append(f"{_fmt(eps)},{_fmt(err)}")
    (outdir / "eps_error.csv").write_text("\n".join(lines) + "\n")
    nonfinite = _write_json(outdir / "report.json", {
        "sweep": dataclasses.asdict(sweep),
    })
    if not all(sweep.converged):
        print("sweep member solve did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if not sweep.passed:
        print("sweep error profile is not monotone", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if nonfinite:
        return EXIT_CHECK_FAILED
    print("sweep: monotone nonincreasing error profile")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfplan",
        description="Entropy-regularized dynamic transport planning solver",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("solve", "verify", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--dry-run", action="store_true")
        if verb == "solve":
            p.add_argument("--method", choices=("primal", "dual", "both"),
                           default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    return run(
        args.config,
        verb=args.verb,
        method=getattr(args, "method", None),
        out=args.out,
        dry_run=args.dry_run,
    )


if __name__ == "__main__":
    sys.exit(main())

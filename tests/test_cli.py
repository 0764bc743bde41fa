import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfplan
from mfplan import cli

from mfplan.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    main,
    run,
)
from mfplan.config import KNOWN_CHECKS, ConfigError, load_config, parse_config
from mfplan.dual import NEWTON_TOL
from mfplan.hamiltonian import KernelSolveError

GIBBS_YAML = """\
grid:
  t_horizon: 1.0
  x_min: -2.0
  x_max: 2.0
  n_t: 12
  n_x: 12
problem:
  hamiltonian: {family: quadratic}
  coupling: {epsilon: 0.5}
  potential: {family: quadratic, scale: 1.0, center: 0.0}
  m0: {family: gibbs}
  m1: {family: gibbs}
method: both
checks: [energy_identity, duality_gap, maximum_principle_ut]
"""

SWEEP_YAML = """\
grid:
  t_horizon: 1.0
  x_min: 0.0
  x_max: 1.0
  n_t: 16
  n_x: 16
  topology: torus
problem:
  coupling: {epsilon: 0.4}
  m0: {family: bump, center: 0.25, width: 0.12, floor: 0.2}
  m1: {family: bump, center: 0.5, width: 0.12, floor: 0.2}
sweep:
  eps_list: [0.4, 0.1]
"""


@pytest.fixture()
def gibbs_cfg(tmp_path):
    p = tmp_path / "gibbs.yaml"
    p.write_text(GIBBS_YAML)
    return p


def test_solve_writes_outputs(gibbs_cfg, tmp_path):
    out = tmp_path / "out"
    assert run(str(gibbs_cfg), "solve", out=str(out)) == EXIT_OK
    assert (out / "fields.csv").exists()
    assert (out / "log.json").exists()
    assert (out / "report.json").exists()
    header = (out / "fields.csv").read_text().splitlines()[0]
    assert header == "field,t_index,x_index,value"
    log = json.loads((out / "log.json").read_text())
    assert log["primal"]["converged"]
    assert log["primal"]["anderson_steps"] > 0
    assert log["dual"]["stages"][-1]["residual"] <= NEWTON_TOL
    assert set(log["dual"]) == {"stages"}
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert names == {"energy_identity", "duality_gap", "maximum_principle_ut"}
    assert all(c["passed"] for c in report["checks"])


def test_rerun_byte_identical(gibbs_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(str(gibbs_cfg), "solve", out=str(out1)) == EXIT_OK
    assert run(str(gibbs_cfg), "solve", out=str(out2)) == EXIT_OK
    for name in ("fields.csv", "log.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fields_round_trip_17_digits(gibbs_cfg, tmp_path):
    out = tmp_path / "out"
    assert run(str(gibbs_cfg), "solve", method="dual", out=str(out)) == EXIT_OK
    rows = (out / "fields.csv").read_text().splitlines()[1:]
    m = {}
    for row in rows:
        field, k, i, v = row.split(",")
        if field == "m_dual":
            m[(int(k), int(i))] = float(v)
    cfg = load_config(gibbs_cfg)
    from mfplan.dual import solve_dual
    _, m_dual, _ = solve_dual(cfg.spec)
    for (k, i), v in m.items():
        assert v == m_dual.values[k, i]  # 17 significant digits are lossless


def test_dry_run_writes_nothing(gibbs_cfg, tmp_path, capsys):
    out = tmp_path / "nope"
    assert run(str(gibbs_cfg), "solve", out=str(out), dry_run=True) == EXIT_OK
    assert not out.exists()
    text = capsys.readouterr().out
    assert "grid: 12x12" in text
    assert "method: both" in text


def test_method_override(gibbs_cfg, tmp_path):
    out = tmp_path / "out"
    assert run(str(gibbs_cfg), "solve", method="primal", out=str(out)) == EXIT_OK
    fields = (out / "fields.csv").read_text()
    assert "m_primal" in fields and "u_dual" not in fields
    report = json.loads((out / "report.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["energy_identity"]["skipped"]
    assert by_name["duality_gap"]["skipped"]


def test_invalid_grid_names_key(tmp_path, capsys):
    bad = GIBBS_YAML.replace("n_t: 12", "n_t: 1")
    p = tmp_path / "bad.yaml"
    p.write_text(bad)
    assert run(str(p), "solve", out=str(tmp_path / "o")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "grid" in err


def test_unknown_key_named(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(GIBBS_YAML + "turbo: true\n")
    assert run(str(p), "solve", out=str(tmp_path / "o")) == EXIT_CONFIG
    assert "turbo" in capsys.readouterr().err


def test_unknown_check_named(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(GIBBS_YAML.replace(
        "checks: [energy_identity, duality_gap, maximum_principle_ut]",
        "checks: [perpetual_motion]"))
    assert run(str(p), "solve", out=str(tmp_path / "o")) == EXIT_CONFIG
    assert "perpetual_motion" in capsys.readouterr().err


def _edited(tmp_path, text: str, key: str, value) -> Path:
    """Write the YAML text with the dotted key set to value; return its path."""
    raw = yaml.safe_load(text)
    *parents, last = key.split(".")
    block = raw
    for name in parents:
        block = block.setdefault(name, {})
    block[last] = value
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(raw))
    return p


@pytest.mark.parametrize("key, value", [
    ("grid", 3), ("problem", "gibbs"), ("problem.hamiltonian", "quadratic"),
    ("problem.coupling", None), ("primal", 3), ("problem.potential", None),
    ("sweep", [1]),
])
def test_non_mapping_block_named(tmp_path, capsys, key, value):
    p = _edited(tmp_path, GIBBS_YAML, key, value)
    # in process, a traceback would be an exception raised out of main
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert f"config key {key!r}: expected a mapping" in capsys.readouterr().err


GIBBS_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "gibbs.yaml"
COMPONENTS = [{"family": "gaussian", "mean": 0.8, "std": 0.45}, {"family": "uniform"}]
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("key, value, named", [
    ("grid.n_t", INF, "grid.n_t"),
    ("problem.potential", {"family": "quadratic", "scale": "abc"},
     "problem.potential.scale"),
    ("problem.m1", {"family": "gaussian", "std": "abc"}, "problem.m1.std"),
    ("problem.m1", {"family": "mixture", "components": COMPONENTS, "weights": 3},
     "problem.m1.weights"),
    ("problem.m1", {"family": "mixture", "components": 5, "weights": [0.9, 0.1]},
     "problem.m1.components"),
    ("problem.coupling.epsilon", INF, "problem.coupling.epsilon"),
    ("problem.potential", {"family": "cosine", "periods": 1.5},
     "problem.potential.periods"),
    ("grid.x_max", INF, "grid.x_max"),
    ("problem.coupling.epsilon", NAN, "problem.coupling.epsilon"),
    ("problem.m1", {"family": "bump", "width": NAN}, "problem.m1.width"),
    ("problem.m1", {"family": "gaussian", "mean": INF}, "problem.m1.mean"),
    ("checks", ["lp_bounds", "energy_identity", "lp_bounds"], "checks[2]"),
    # the quadratic table has no q or varpi
    ("problem.hamiltonian.q", 3.0, "problem.hamiltonian.q"),
    ("problem.hamiltonian.varpi", 0.7, "problem.hamiltonian.varpi"),
    ("problem.hamiltonian.family", "cubic", "problem.hamiltonian.family"),
    # the coupling family table: zero (), power (c, a), log (c,)
    ("problem.coupling.f_family", "cubic", "problem.coupling.f_family"),
    ("problem.coupling", {"epsilon": 0.5, "f_family": "power", "f_params": [1.0]},
     "problem.coupling.f_params"),
    ("problem.coupling", {"epsilon": 0.5, "f_family": "zero", "f_params": [1.0]},
     "problem.coupling.f_params"),
])
def test_malformed_value_named(tmp_path, capsys, key, value, named):
    p = _edited(tmp_path, GIBBS_CONFIG.read_text(), key, value)
    assert main(["solve", "--config", str(p), "--dry-run"]) == EXIT_CONFIG
    assert f"config key {named!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("coupling, line", [
    ({"epsilon": 0.5}, "coupling: eps=0.5 f = 0\n"),
    ({"epsilon": 0.5, "f_family": "power", "f_params": [1.0, 2.0]},
     "coupling: eps=0.5 f = c m^a, c=1 a=2\n"),
    ({"epsilon": 0.5, "f_family": "log", "f_params": [0.25]},
     "coupling: eps=0.5 f = c log m, c=0.25\n"),
])
def test_dry_run_describes_coupling_form(tmp_path, capsys, coupling, line):
    p = _edited(tmp_path, GIBBS_CONFIG.read_text(), "problem.coupling", coupling)
    assert main(["solve", "--config", str(p), "--dry-run"]) == EXIT_OK
    assert line in capsys.readouterr().out


@pytest.mark.parametrize("key, value, message", [
    ("grid.n_t", 1, "'grid': need n_t >= 2 and n_x >= 2"),
    ("primal.tol_kkt", 0.0, "'primal': tol_kkt must be positive"),
    ("problem.coupling.epsilon", -0.5, "'problem.coupling': epsilon must be >= 0"),
    ("sweep.eps_list", [0.1, -0.1], "'sweep.eps_list': every eps must be >= 0"),
    ("sweep.eps_list", [0.0, 0.4], "'sweep.eps_list[1]': eps must be strictly decreasing"),
    ("sweep.eps_list", [], "'sweep.eps_list': expected at least one eps"),
])
def test_range_error_names_block(tmp_path, capsys, key, value, message):
    p = _edited(tmp_path, GIBBS_YAML, key, value)
    assert main(["solve", "--config", str(p), "--dry-run"]) == EXIT_CONFIG
    assert f"config key {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["solve", "--config", "gibbs.yaml", "--method", "foo"], EXIT_CONFIG),
    (["solve"], EXIT_CONFIG),
    (["sweep", "--config", "gibbs.yaml", "--method", "primal"], EXIT_CONFIG),
    (["--help"], EXIT_OK),
])
def test_usage_exit_codes(argv, code):
    assert main(argv) == code


def test_method_override_checked(gibbs_cfg, capsys):
    assert run(str(gibbs_cfg), "solve", method="foo", dry_run=True) == EXIT_CONFIG
    assert "config key 'method': must be primal, dual, or both" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert run(str(tmp_path / "missing.yaml"), "solve") == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_non_convergence_exit(gibbs_cfg, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mfplan.primal.MAX_ITERS", 5)
    p = tmp_path / "tight.yaml"
    p.write_text(GIBBS_YAML + "primal:\n  tol_kkt: 1.0e-14\n")
    assert run(str(p), "solve", method="primal",
               out=str(tmp_path / "o")) == EXIT_NOT_CONVERGED
    assert "did not converge: max_iters (5) reached" in capsys.readouterr().err


BUMP_INTERVAL_YAML = """\
grid:
  t_horizon: 1.0
  x_min: 0.0
  x_max: 1.0
  n_t: 32
  n_x: 32
  topology: interval-neumann
problem:
  coupling: {epsilon: 0.2}
  m0: {family: bump, center: 0.25, width: 0.12, floor: 0.2}
  m1: {family: bump, center: 0.5, width: 0.12, floor: 0.2}
method: dual
"""


def test_dual_bump_interval(tmp_path, capsys):
    # the bump pair is not symmetric on the interval, so the data are not
    # exactly compatible on the grid and kappa is nonzero
    p = tmp_path / "bump.yaml"
    p.write_text(BUMP_INTERVAL_YAML)
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(p), "--method", "dual", "--out", str(out)])
    assert rc == EXIT_OK, capsys.readouterr().err
    stages = json.loads((out / "log.json").read_text())["dual"]["stages"]
    # one entry per mesh level, from 16 cells per axis up to the target mesh
    assert [(st["n_t"], st["n_x"]) for st in stages] == [(16, 16), (32, 32)]
    assert 0.0 < abs(stages[-1]["kappa"]) < 1e-3


DEGENERATE_YAML = """\
grid:
  t_horizon: 1.0
  x_min: 0.0
  x_max: 1.0
  n_t: 2
  n_x: 4
  topology: torus
problem:
  hamiltonian: {family: power, q: 1.5, varpi: 0.0, scale: 1.0}
  coupling: {epsilon: 0.3, f_family: power, f_params: [0.5, 2.0]}
  m0: {family: bump, center: 0.25, width: 0.12, floor: 0.2}
  m1: {family: bump, center: 0.5, width: 0.12, floor: 0.2}
method: primal
"""


def test_degenerate_power_hamiltonian_primal(tmp_path, capsys):
    # H = |p|^1.5 has H_pp = inf at p = 0; the primal solver is the one
    # meant for it and must finish, or fail by name, without a traceback
    p = tmp_path / "degenerate.yaml"
    p.write_text(DEGENERATE_YAML)
    rc = main(["solve", "--config", str(p), "--method", "primal",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc == EXIT_OK or (rc == EXIT_NOT_CONVERGED and "primal solve" in err)


def test_degenerate_power_hamiltonian_dual(tmp_path, capsys):
    p = tmp_path / "degenerate.yaml"
    p.write_text(DEGENERATE_YAML)
    assert main(["solve", "--config", str(p), "--method", "dual",
                 "--out", str(tmp_path / "o")]) == EXIT_NOT_CONVERGED
    assert "dual solve failed: degenerate H_pp" in capsys.readouterr().err


def _nan_gradient(m, *args):
    nan = np.full_like(m, np.nan)
    return nan, nan, nan


def _failing_phi(self, r):
    raise KernelSolveError("phi did not converge")


@pytest.mark.parametrize("method, target, replacement", [
    ("primal", "mfplan.functional._reduced_gradient", _nan_gradient),
    ("dual", "mfplan.hamiltonian.CouplingSpec.phi", _failing_phi),
])
def test_kernel_failure_exit(gibbs_cfg, tmp_path, capsys, monkeypatch,
                             method, target, replacement):
    monkeypatch.setattr(target, replacement)
    assert run(str(gibbs_cfg), "solve", method=method,
               out=str(tmp_path / "o")) == EXIT_NOT_CONVERGED
    assert f"{method} solve failed" in capsys.readouterr().err


ZERO_ENTROPY_YAML = """\
grid: {t_horizon: 1.0, x_min: 0.0, x_max: 1.0, n_t: 4, n_x: 4}
problem:
  coupling: {epsilon: 0.0}
  m0: {family: uniform}
  m1: {family: uniform}
"""


def test_dual_zero_entropy_exit(tmp_path, capsys):
    p = tmp_path / "zero_entropy.yaml"
    p.write_text(ZERO_ENTROPY_YAML)
    assert run(str(p), "solve", method="dual",
               out=str(tmp_path / "o")) == EXIT_NOT_CONVERGED
    assert "dual solve failed: dual solver requires eps > 0" in capsys.readouterr().err


OVERFLOW_YAML = """\
grid: {t_horizon: 1.0, x_min: 0.0, x_max: 1.0, n_t: 16, n_x: 16}
problem:
  coupling: {epsilon: 0.1}
  potential: {family: cosine, amplitude: 1000.0, periods: 1}
  m0: {family: uniform}
  m1: {family: uniform}
"""

TWO_CELL_TORUS_YAML = """\
grid: {t_horizon: 1.0, x_min: 0.0, x_max: 1.0, n_t: 2, n_x: 2, topology: torus}
problem:
  coupling: {epsilon: 0.1}
  potential: {family: cosine, amplitude: 1.0, periods: 1}
  m0: {family: uniform}
  m1: {family: bump, center: 0.5, width: 0.12, floor: 0.2}
"""


@pytest.mark.parametrize("text, reason", [
    (OVERFLOW_YAML, "non-finite start residual"),
    (TWO_CELL_TORUS_YAML, "dual solver requires at least 3 cells on a torus"),
], ids=["overflow", "two-cell-torus"])
def test_dual_refused_instance_exit(tmp_path, capsys, text, reason):
    # a failed dual solve exits 2 by name and writes no fields.csv
    p = tmp_path / "refused.yaml"
    p.write_text(text)
    out = tmp_path / "o"
    assert run(str(p), "solve", method="dual", out=str(out)) == EXIT_NOT_CONVERGED
    assert f"dual solve failed: {reason}" in capsys.readouterr().err
    assert not (out / "fields.csv").exists()


def _assembly_bug(*args, **kwargs):
    raise ValueError("programming error in the assembly")


def test_dual_programming_error_not_reported_as_solve_failure(
        gibbs_cfg, tmp_path, capsys, monkeypatch):
    # only typed solver failures map to exit 2; anything else propagates
    monkeypatch.setattr("mfplan.dual._assemble", _assembly_bug)
    with pytest.raises(ValueError, match="programming error"):
        run(str(gibbs_cfg), "solve", method="dual", out=str(tmp_path / "o"))
    assert "dual solve failed" not in capsys.readouterr().err


def _nan_prox(mbar, wbar, *args):
    return np.full_like(mbar, np.nan), np.full_like(wbar, np.nan)


def test_non_finite_primal_residual_exit(gibbs_cfg, tmp_path, capsys, monkeypatch):
    # a NaN fixed-point residual never passes fp <= tol_kkt; the solve must
    # stop on it at once rather than spin to max_iters
    monkeypatch.setattr("mfplan.primal.prox_block", _nan_prox)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(gibbs_cfg), "--method", "primal",
                 "--out", str(out)]) == EXIT_NOT_CONVERGED
    primal = _strict_json(out / "log.json")["primal"]
    assert not primal["converged"] and primal["iters"] <= 3
    assert "non-finite" in primal["reason"]
    assert primal["final_value"] is None
    err = capsys.readouterr().err
    assert "non-finite value written as null: log.json primal.final_value" in err
    assert "non-finite fixed-point residual" in err


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_non_finite_output_value_exits_3(gibbs_cfg, tmp_path, capsys, monkeypatch):
    # a run that would succeed fails once a JSON value is not finite
    monkeypatch.setattr("mfplan.dual._sup_bound_rhs", lambda spec: float("nan"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(gibbs_cfg), "--method", "dual",
                 "--out", str(out)]) == EXIT_CHECK_FAILED
    stages = _strict_json(out / "log.json")["dual"]["stages"]
    assert all(s["sup_bound_rhs"] is None for s in stages)
    assert "log.json dual.stages[0].sup_bound_rhs" in capsys.readouterr().err


def test_csv_marginal_end_nodes_stay_positive(tmp_path):
    # linear extrapolation to the end node, 1.5*1 - 0.5*5, made this
    # marginal negative there and the dual's sup bound NaN
    n = 16
    (tmp_path / "m.csv").write_text("\n".join(["1"] + ["5"] * (n - 1)))
    p = tmp_path / "csv.yaml"
    p.write_text(f"""\
grid: {{t_horizon: 1.0, x_min: 0.0, x_max: 1.0, n_t: {n}, n_x: {n}}}
problem:
  coupling: {{epsilon: 0.5}}
  m0: {{family: csv, path: m.csv}}
  m1: {{family: csv, path: m.csv}}
""")
    assert np.all(load_config(p).spec.m0_nodes > 0.0)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(p), "--method", "dual",
                 "--out", str(out)]) == EXIT_OK
    stages = _strict_json(out / "log.json")["dual"]["stages"]
    assert all(np.isfinite(s["sup_bound_rhs"]) for s in stages)


def _python(*args, check=True):
    """Run a fresh interpreter that imports this checkout's mfplan."""
    src = str(Path(mfplan.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is the slowest import; no path of the program needs it,
    # the torus oracle included
    code = (
        "import sys, numpy as np, mfplan.cli\n"
        "from mfplan.estimates import geodesic_oracle_1d\n"
        "from mfplan.grids import SpaceTimeGrid\n"
        "x = (np.arange(16) + 0.5) / 16\n"
        "geodesic_oracle_1d(1.5 + np.cos(2 * np.pi * x), 1.5 + np.sin(2 * np.pi * x),\n"
        "                   SpaceTimeGrid(1.0, 0.0, 1.0, 4, 16, 'torus'))\n"
        "print('scipy.optimize' in sys.modules)"
    )
    assert _python("-c", code).stdout.strip() == "False"


def test_gibbs_8x5_solves(tmp_path, capsys):
    # 1^T C = 0, so C C^T is singular; on this grid an LU of it finds no
    # pivot, and the pseudo-inverse from the 1-D factors must still solve
    cfg = tmp_path / "gibbs-8x5.yaml"
    cfg.write_text(GIBBS_YAML.replace("n_t: 12", "n_t: 8").replace("n_x: 12", "n_x: 5"))
    assert run(str(cfg), "solve", method="both", out=str(tmp_path / "o")) == EXIT_OK, \
        capsys.readouterr().err


@pytest.mark.parametrize("n_t", [2, 3])
def test_solve_two_cell_interval(tmp_path, capsys, n_t):
    # every check, displacement convexity included, runs on two cells
    cfg = tmp_path / "gibbs-2.yaml"
    cfg.write_text(GIBBS_YAML.replace("n_t: 12", f"n_t: {n_t}").replace("n_x: 12", "n_x: 2")
                   .replace("[energy_identity, duality_gap, maximum_principle_ut]", "all"))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED), capsys.readouterr().err


def test_sweep_4x15_solves(tmp_path, capsys):
    cfg = tmp_path / "sweep-4x15.yaml"
    cfg.write_text(SWEEP_YAML.replace("n_t: 16", "n_t: 4").replace("n_x: 16", "n_x: 15"))
    assert run(str(cfg), "sweep", out=str(tmp_path / "o")) == EXIT_OK, \
        capsys.readouterr().err


def test_readme_config_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```yaml\n(.*?)```", readme.read_text(), re.S).group(1)
    cfg = parse_config(yaml.safe_load(block))
    assert cfg.method == "both" and cfg.spec.grid.n_t == 64


def test_verify_runs_all_checks(tmp_path, capsys):
    no_checks = GIBBS_YAML.replace(
        "checks: [energy_identity, duality_gap, maximum_principle_ut]", "")
    for n, text in enumerate([no_checks, GIBBS_YAML]):  # GIBBS_YAML lists three
        p = tmp_path / f"verify{n}.yaml"
        p.write_text(text)
        out = tmp_path / f"out{n}"
        assert run(str(p), "verify", out=str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["checks"]) == 6
        # each result is named by its table key, in the table's order
        assert tuple(c["name"] for c in report["checks"]) == KNOWN_CHECKS
        assert "PASS" in capsys.readouterr().out


def test_sweep(tmp_path, capsys):
    p = tmp_path / "sweep.yaml"
    p.write_text(SWEEP_YAML)
    out = tmp_path / "out"
    assert run(str(p), "sweep", out=str(out)) == EXIT_OK
    rows = (out / "eps_error.csv").read_text().splitlines()
    assert rows[0] == "eps,error"
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(errs) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["sweep"]["passed"]


def test_sweep_nonzero_coupling_names_key(tmp_path, capsys):
    # refused before --dry-run returns and before the output directory is made
    p = tmp_path / "sweep.yaml"
    p.write_text(SWEEP_YAML.replace(
        "{epsilon: 0.4}", "{epsilon: 0.4, f_family: power, f_params: [1.0, 1.0]}"))
    out = tmp_path / "o"
    for dry_run in (False, True):
        assert run(str(p), "sweep", out=str(out), dry_run=dry_run) == EXIT_CONFIG
        assert "'problem.coupling.f_family'" in capsys.readouterr().err
        assert not out.exists()
    # a power coupling with c = 0 is f = 0, so the sweep runs
    p.write_text(SWEEP_YAML.replace(
        "{epsilon: 0.4}", "{epsilon: 0.4, f_family: power, f_params: [0.0, 1.0]}"))
    assert run(str(p), "sweep", out=str(out)) == EXIT_OK
    assert (out / "eps_error.csv").exists()


def _primal_bug(*args, **kwargs):
    raise ValueError("programming error in the primal solve")


def test_sweep_programming_error_not_reported_as_config_error(
        tmp_path, capsys, monkeypatch):
    # only ConfigError maps to exit 1; anything else propagates
    p = tmp_path / "sweep.yaml"
    p.write_text(SWEEP_YAML)
    monkeypatch.setattr("mfplan.primal.solve_primal", _primal_bug)
    with pytest.raises(ValueError, match="programming error"):
        run(str(p), "sweep", out=str(tmp_path / "o"))
    assert "config key" not in capsys.readouterr().err


def test_sweep_requires_eps_list(gibbs_cfg, tmp_path, capsys):
    # the sweep passes when e(eps) does not grow along the list, which says
    # something about eps -> 0 only if eps falls along it
    out = tmp_path / "o"
    for eps_list, message in (
            (None, "'sweep.eps_list': missing required key"),
            ([], "'sweep.eps_list': expected at least one eps"),
            ([0.0, 0.4], "'sweep.eps_list[1]': eps must be strictly decreasing")):
        config = gibbs_cfg if eps_list is None else _edited(
            tmp_path, SWEEP_YAML, "sweep.eps_list", eps_list)
        for dry_run in (False, True):
            assert run(str(config), "sweep", out=str(out), dry_run=dry_run) == EXIT_CONFIG
            assert f"config key {message}" in capsys.readouterr().err
            assert not out.exists()


def test_main_entry_point(gibbs_cfg, tmp_path):
    rc = main(["solve", "--config", str(gibbs_cfg), "--method", "dual",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK


def test_parse_config_strictness():
    with pytest.raises(ConfigError) as exc:
        parse_config({"grid": {"t_horizon": 1.0, "x_min": 0.0, "x_max": 1.0,
                               "n_t": 4, "n_x": 4, "warp": 9},
                      "problem": {"m0": {"family": "uniform"},
                                  "m1": {"family": "uniform"}}})
    assert "grid.warp" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config({"problem": {}})
    assert "grid" in str(exc.value)


def test_power_spelling_of_quadratic_is_one_spec():
    # scale * (p^2 + 0)^(2/2) at scale 1/2 is the quadratic p^2/2
    raw = {"grid": {"t_horizon": 1.0, "x_min": 0.0, "x_max": 1.0,
                    "n_t": 4, "n_x": 4},
           "problem": {"m0": {"family": "uniform"}, "m1": {"family": "uniform"}}}
    specs = [parse_config({**raw, "problem": {**raw["problem"], "hamiltonian": h}}
                          ).spec.hamiltonian
             for h in ({"family": "quadratic"},
                       {"family": "power", "q": 2, "varpi": 0, "scale": 0.5})]
    assert specs[0] == specs[1]


@pytest.mark.parametrize("extra", [
    {"seed": 3},
    {"primal": {"tol_mass": 1e-8}},
    {"dual": {"rho_sequence": [1.0, 1e-8]}},
    {"dual": {"delta_sequence": [1.0, 1e-8]}},
    {"dual": {"use_picard": True}},
    {"dual": {"tau_sequence": [0.0, 0.5, 1.0]}},
    {"primal": {"sigma": 0.5}},
    {"primal": {"theta": 1.5}},
    {"dual": {"step_tol": 1e-12}},
    {"dual": {"newton_tol": 1e-10}},
    {"primal": {"max_iters": 5}},
])
def test_keys_without_effect_rejected(extra):
    raw = {"grid": {"t_horizon": 1.0, "x_min": 0.0, "x_max": 1.0,
                    "n_t": 4, "n_x": 4},
           "problem": {"m0": {"family": "uniform"}, "m1": {"family": "uniform"}}}
    with pytest.raises(ConfigError) as exc:
        parse_config({**raw, **extra})
    # the whole dual block is unknown; a primal key is named inside its block
    (block, value), = extra.items()
    key = f"{block}.{next(iter(value))}" if block == "primal" else block
    assert str(exc.value) == f"config key {key!r}: unknown key"


def test_csv_mass_defect_reported(tmp_path, capsys):
    # csv values are data, not a density: their mass (here 2) is reported
    p = tmp_path / "csv.yaml"
    p.write_text("""\
grid: {t_horizon: 1.0, x_min: 0.0, x_max: 1.0, n_t: 4, n_x: 4}
problem:
  coupling: {epsilon: 0.5}
  m0: {family: csv, values: [2, 2, 2, 2]}
  m1: {family: uniform}
method: primal
""")
    assert run(str(p), "solve", dry_run=True) == EXIT_OK
    assert "mass defects: m0=1 m1=0\n" in capsys.readouterr().out
    out = tmp_path / "o"
    assert run(str(p), "solve", out=str(out)) == EXIT_OK
    validation = json.loads((out / "report.json").read_text())["validation"]
    assert validation["mass_defect_m0"] == 1.0
    assert validation["mass_defect_m1"] == 0.0


def test_csv_fields(tmp_path):
    # marginals and potential supplied as CSV columns
    n = 8
    x = (np.arange(n) + 0.5) / n
    m = 1.0 + 0.2 * np.cos(2 * np.pi * x)
    (tmp_path / "m.csv").write_text("\n".join(format(v, ".17g") for v in m))
    (tmp_path / "v.csv").write_text("\n".join("0.0" for _ in range(n)))
    cfg_text = f"""\
grid:
  t_horizon: 1.0
  x_min: 0.0
  x_max: 1.0
  n_t: 4
  n_x: {n}
  topology: torus
problem:
  coupling: {{epsilon: 0.5}}
  potential: {{family: csv, path: v.csv}}
  m0: {{family: csv, path: m.csv}}
  m1: {{family: csv, path: m.csv}}
"""
    p = tmp_path / "csv.yaml"
    p.write_text(cfg_text)
    cfg = load_config(p)
    assert np.max(np.abs(cfg.spec.m0 - m)) <= 1e-12
    assert run(str(p), "solve", method="primal",
               out=str(tmp_path / "o")) == EXIT_OK


def test_fields_csv_writes_fmt_of_each_value(tmp_path):
    # the row-wise writer gives the text of _fmt, value by value, on signed
    # zeros, nan, infinities and subnormals too
    values = np.array([[0.0, -0.0, np.nan, np.inf],
                       [-np.inf, 5e-324, -2.2e-308, 1.0 / 3.0]])
    fields = {"b": values, "a": -values[::-1]}
    path = tmp_path / "fields.csv"
    cli._write_fields_csv(path, fields)
    want = ["field,t_index,x_index,value"] + [
        f"{name},{k},{i},{cli._fmt(fields[name][k, i])}"
        for name in ("a", "b") for k in range(2) for i in range(4)]
    assert path.read_text() == "\n".join(want) + "\n"

"""Strict YAML configuration parsing into solver inputs.

Parsing is total: every failure raises ConfigError naming the offending
key, and unknown keys are rejected by name.  The resolved RunConfig holds
a fully validated ProblemSpec plus solver/check settings.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from .dual import DualConfig
from .families import FamilyError, marginal_on_grid, potential_on_grid
from .grids import INTERVAL, TORUS, ProblemSpec, SpaceTimeGrid
from .hamiltonian import CouplingSpec, HamiltonianSpec
from .primal import PrimalConfig

KNOWN_CHECKS = (
    "displacement_convexity",
    "lp_bounds",
    "local_gradient_estimate",
    "energy_identity",
    "duality_gap",
    "maximum_principle_ut",
)


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    method: str = "both"
    primal: PrimalConfig = dc_field(default_factory=PrimalConfig)
    dual: DualConfig = dc_field(default_factory=DualConfig)
    checks: tuple[str, ...] = ()
    sweep_eps: tuple[float, ...] = ()
    output_dir: str = "out"


def _take(block: dict, block_name: str, key: str, default=None, required=False):
    if key in block:
        return block.pop(key)
    if required:
        raise ConfigError(f"{block_name}.{key}", "missing required key")
    return default


def _reject(block: dict, block_name: str):
    if block:
        key = sorted(block)[0]
        raise ConfigError(f"{block_name}.{key}", "unknown key")


def _mapping(block, key: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(key, "expected a mapping")
    return dict(block)


def _number(value, key, *, integer=False, minimum=None, strict=False):
    try:
        out = int(value) if integer else float(value)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {value!r}") from None
    if integer and float(value) != out:
        raise ConfigError(key, f"expected an integer, got {value!r}")
    if minimum is not None and (out <= minimum if strict else out < minimum):
        op = ">" if strict else ">="
        raise ConfigError(key, f"must be {op} {minimum}, got {out}")
    return out


def _load_csv_column(path_value, key, base_dir: Path) -> list[float]:
    path = Path(path_value)
    if not path.is_absolute():
        path = base_dir / path
    try:
        with open(path, newline="") as fh:
            return [float(row[0]) for row in csv.reader(fh) if row]
    except (OSError, ValueError) as exc:
        raise ConfigError(key, f"cannot read CSV column from {path}: {exc}") from None


def _resolve_field_block(block, key, base_dir):
    """Allow {family: csv, path: file.csv} to load its values eagerly."""
    if not isinstance(block, dict):
        raise ConfigError(key, "expected a mapping with a 'family' key")
    block = dict(block)
    if block.get("family") == "csv" and "path" in block:
        block["values"] = _load_csv_column(block.pop("path"), f"{key}.path", base_dir)
    return block


def parse_config(raw: dict, base_dir: Path | str = ".") -> RunConfig:
    base_dir = Path(base_dir)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a mapping")
    raw = dict(raw)

    grid_block = _mapping(_take(raw, "<root>", "grid", required=True), "grid")
    topology = _take(grid_block, "grid", "topology", INTERVAL)
    if topology not in (INTERVAL, TORUS):
        raise ConfigError("grid.topology", f"must be one of {INTERVAL!r}, {TORUS!r}")
    try:
        grid = SpaceTimeGrid(
            T=_number(_take(grid_block, "grid", "t_horizon", required=True),
                      "grid.t_horizon", minimum=0.0, strict=True),
            x_min=_number(_take(grid_block, "grid", "x_min", required=True),
                          "grid.x_min"),
            x_max=_number(_take(grid_block, "grid", "x_max", required=True),
                          "grid.x_max"),
            n_t=_number(_take(grid_block, "grid", "n_t", required=True),
                        "grid.n_t", integer=True, minimum=2),
            n_x=_number(_take(grid_block, "grid", "n_x", required=True),
                        "grid.n_x", integer=True, minimum=2),
            topology=topology,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("grid", str(exc)) from None
    _reject(grid_block, "grid")

    prob = _mapping(_take(raw, "<root>", "problem", required=True), "problem")

    ham_block = _mapping(_take(prob, "problem", "hamiltonian", {}), "problem.hamiltonian")
    try:
        hamiltonian = HamiltonianSpec(
            family=_take(ham_block, "problem.hamiltonian", "family", "quadratic"),
            q=_number(_take(ham_block, "problem.hamiltonian", "q", 2.0),
                      "problem.hamiltonian.q"),
            varpi=_number(_take(ham_block, "problem.hamiltonian", "varpi", 0.0),
                          "problem.hamiltonian.varpi"),
            scale=_number(_take(ham_block, "problem.hamiltonian", "scale", 1.0),
                          "problem.hamiltonian.scale"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("problem.hamiltonian", str(exc)) from None
    _reject(ham_block, "problem.hamiltonian")

    coup_block = _mapping(_take(prob, "problem", "coupling", {}), "problem.coupling")
    f_params = _take(coup_block, "problem.coupling", "f_params", [])
    if not isinstance(f_params, (list, tuple)):
        raise ConfigError("problem.coupling.f_params", "expected a list")
    try:
        coupling = CouplingSpec(
            epsilon=_number(_take(coup_block, "problem.coupling", "epsilon", 1.0),
                            "problem.coupling.epsilon", minimum=0.0),
            f_family=_take(coup_block, "problem.coupling", "f_family", "zero"),
            f_params=tuple(f_params),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("problem.coupling", str(exc)) from None
    _reject(coup_block, "problem.coupling")

    pot_block = _resolve_field_block(
        _take(prob, "problem", "potential", {"family": "zero"}),
        "problem.potential", base_dir,
    )
    try:
        V_cells, V_nodes = potential_on_grid(pot_block, grid)
    except (FamilyError, KeyError) as exc:
        raise ConfigError("problem.potential", str(exc)) from None

    marginals = {}
    for name in ("m0", "m1"):
        block = _resolve_field_block(
            _take(prob, "problem", name, required=True), f"problem.{name}", base_dir
        )
        try:
            marginals[name] = marginal_on_grid(
                block, grid, V_cells, V_nodes, coupling.epsilon
            )
        except (FamilyError, KeyError) as exc:
            raise ConfigError(f"problem.{name}", str(exc)) from None
    _reject(prob, "problem")

    try:
        spec = ProblemSpec(
            grid=grid,
            m0=marginals["m0"][0],
            m1=marginals["m1"][0],
            V=V_cells,
            hamiltonian=hamiltonian,
            coupling=coupling,
            m0_nodes=marginals["m0"][1],
            m1_nodes=marginals["m1"][1],
            V_nodes=V_nodes,
        )
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None

    method = _take(raw, "<root>", "method", "both")
    if method not in ("primal", "dual", "both"):
        raise ConfigError("method", "must be primal, dual, or both")

    primal_block = _mapping(_take(raw, "<root>", "primal", {}), "primal")
    primal_cfg = PrimalConfig(
        tol_kkt=_number(
            _take(primal_block, "primal", "tol_kkt", PrimalConfig.tol_kkt),
            "primal.tol_kkt", minimum=0.0, strict=True),
        max_iters=_number(
            _take(primal_block, "primal", "max_iters", PrimalConfig.max_iters),
            "primal.max_iters", integer=True, minimum=1),
    )
    _reject(primal_block, "primal")

    dual_block = _mapping(_take(raw, "<root>", "dual", {}), "dual")
    dual_cfg = DualConfig(
        newton_tol=_number(
            _take(dual_block, "dual", "newton_tol", DualConfig.newton_tol),
            "dual.newton_tol", minimum=0.0, strict=True),
        max_newton_iters=_number(
            _take(dual_block, "dual", "max_newton_iters", DualConfig.max_newton_iters),
            "dual.max_newton_iters", integer=True, minimum=1),
    )
    _reject(dual_block, "dual")

    checks_val = _take(raw, "<root>", "checks", [])
    if checks_val == "all":
        checks = KNOWN_CHECKS
    else:
        if not isinstance(checks_val, (list, tuple)):
            raise ConfigError("checks", "expected a list of check names or 'all'")
        for name in checks_val:
            if name not in KNOWN_CHECKS:
                raise ConfigError(f"checks.{name}", "unknown check name")
        checks = tuple(checks_val)

    sweep_block = _mapping(_take(raw, "<root>", "sweep", {}), "sweep")
    eps_list = _take(sweep_block, "sweep", "eps_list", [])
    if not isinstance(eps_list, (list, tuple)):
        raise ConfigError("sweep.eps_list", "expected a list")
    sweep_eps = tuple(
        _number(x, "sweep.eps_list", minimum=0.0) for x in eps_list
    )
    _reject(sweep_block, "sweep")

    output_dir = _take(raw, "<root>", "output_dir", "out")
    _reject(raw, "<root>")

    return RunConfig(
        spec=spec,
        method=method,
        primal=primal_cfg,
        dual=dual_cfg,
        checks=checks,
        sweep_eps=sweep_eps,
        output_dir=str(output_dir),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"invalid YAML in {path}: {exc}") from None
    return parse_config(raw, base_dir=path.parent)

"""Strict YAML configuration parsing into solver inputs.

Parsing is total: every failure raises ConfigError naming the offending
key, and unknown keys are rejected by name.  One reader, ``_read``, reads
every block through a schema {name: (convert, default)}.  The settings
blocks pass only the keys present to their dataclass, which keeps the
defaults and range checks; a range error names the block.  The Hamiltonian,
coupling, potential and marginal families are tables of the same kind, so
their errors name the exact parameter.  The resolved RunConfig holds a fully
validated ProblemSpec plus solver/check settings.

Marginals and potentials are sampled both at cell centers and at cell
edges (nodes).  The two samplings share a single normalization constant,
the cell-sum one, so that closed-form relations like
log m = -V/eps - log Z hold exactly at the nodes as well; the dual
solver's boundary rows depend on that.  Each family is sampled once, and a
mixture normalizes each component once.  csv marginals have no nodes and
reach the ProblemSpec as given, which normalizes them and records their
mass defect.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from .estimates import CHECKS
from .grids import ProblemSpec, SpaceTimeGrid
from .hamiltonian import CouplingSpec, HamiltonianSpec
from .primal import PrimalConfig

KNOWN_CHECKS = tuple(CHECKS)
REQUIRED = object()  # schema default of a name that must be present


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    method: str = "both"
    primal: PrimalConfig = dc_field(default_factory=PrimalConfig)
    checks: tuple[str, ...] = ()
    sweep_eps: tuple[float, ...] = ()
    output_dir: str = "out"

    def __post_init__(self):
        if self.method not in ("primal", "dual", "both"):
            raise ConfigError("method", "must be primal, dual, or both")


# ---------------------------------------------------------------------------
# the reader and its converters: each takes (value, key) and names the key
# when it rejects the value
# ---------------------------------------------------------------------------

def _read(block, key: str, schema: dict) -> dict:
    """The entries of a mapping, each passed through its converter in schema
    {name: (convert, default)}.  An absent name takes its default, is refused
    if the default is REQUIRED, and is left out if the default is None."""
    block = _mapping(block, key)
    prefix = f"{key}." if key else ""
    unknown = sorted(set(block) - set(schema), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown key")
    out = {}
    for name, (convert, default) in schema.items():
        value = block.get(name, default)
        if value is REQUIRED:
            raise ConfigError(prefix + name, "missing required key")
        if name in block or default is not None:
            out[name] = convert(value, prefix + name)
    return out


def _finite(value, key: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigError(key, f"expected a finite number, got {value!r}")
    return out


def _integer(value, key: str) -> int:
    out = _finite(value, key)
    if out != int(out):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return int(out)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(key, f"expected a string, got {value!r}")
    return value


def _mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(key or "<root>", "expected a mapping")
    return value


def _list(value, key: str, item) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(key, "expected a list")
    return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))


def _floats(value, key: str) -> tuple[float, ...]:
    return _list(value, key, _finite)


def _eps_list(value, key: str) -> tuple[float, ...]:
    """The sweep's eps: at least one, each >= 0, strictly decreasing."""
    eps = _floats(value, key)
    if not eps:
        raise ConfigError(key, "expected at least one eps")
    if min(eps) < 0:
        raise ConfigError(key, "every eps must be >= 0")
    for i in range(1, len(eps)):
        if eps[i] >= eps[i - 1]:
            raise ConfigError(f"{key}[{i}]", "eps must be strictly decreasing")
    return eps


def _mappings(value, key: str) -> tuple[dict, ...]:
    return _list(value, key, _mapping)


def _checks(value, key: str) -> tuple[str, ...]:
    if value == "all":
        return KNOWN_CHECKS
    names = _list(value, key, _string)
    for i, name in enumerate(names):
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"{key}[{i}]", f"unknown check {name!r}")
        if name in names[:i]:
            raise ConfigError(f"{key}[{i}]", f"repeated check {name!r}")
    return names


def _settings(cls, schema: dict, **rename):
    """Converter of a block whose keys present go to the dataclass cls (under
    their rename, if any), which keeps its own defaults and range checks."""
    def convert(block, key):
        values = _read(block, key, schema)
        try:
            return cls(**{rename.get(k, k): v for k, v in values.items()})
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
    return convert


_GRID = _settings(SpaceTimeGrid, {
    "t_horizon": (_finite, REQUIRED), "x_min": (_finite, REQUIRED),
    "x_max": (_finite, REQUIRED), "n_t": (_integer, REQUIRED),
    "n_x": (_integer, REQUIRED), "topology": (_string, None),
}, t_horizon="T")
_PRIMAL = _settings(PrimalConfig, {"tol_kkt": (_finite, None)})


# ---------------------------------------------------------------------------
# potential and marginal families
# ---------------------------------------------------------------------------

def _family(block, key: str, tables: dict, default=REQUIRED) -> tuple[str, dict]:
    """(name, params) of a block {family: name, ...}; the params are read by
    the named family's table."""
    name = _mapping(block, key).get("family", default)
    if name is REQUIRED:
        raise ConfigError(f"{key}.family", "missing required key")
    if _string(name, f"{key}.family") not in tables:
        raise ConfigError(f"{key}.family", f"unknown family {name!r}")
    return name, _read(block, key, {"family": (_string, None), **tables[name]})


def _hamiltonian(block, key: str) -> HamiltonianSpec:
    """H of {family: quadratic, scale}, scale/2 p^2, or of {family: power,
    q, varpi, scale}, scale (p^2 + varpi^2)^(q/2)."""
    family, p = _family(block, key, {
        "quadratic": {"scale": (_finite, 1.0)},
        "power": {"q": (_finite, 2.0), "varpi": (_finite, 0.0), "scale": (_finite, 1.0)},
    }, default="quadratic")
    try:
        if family == "quadratic":
            return HamiltonianSpec(scale=p["scale"])
        return HamiltonianSpec(p["q"], p["varpi"], 2.0 * p["scale"])
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


# the f_params of each coupling family: CouplingSpec's c and a, in order
_F_FAMILIES = {"zero": (), "power": ("c", "a"), "log": ("c",)}


def _coupling(block, key: str) -> CouplingSpec:
    """f^eps of {epsilon, f_family, f_params}: f = c m^a of power (c, a),
    c log m of log (c,), or 0 of zero ()."""
    p = _read(block, key, {"epsilon": (_finite, CouplingSpec.epsilon),
                           "f_family": (_string, "zero"), "f_params": (_floats, ())})
    family, params = p["f_family"], p["f_params"]
    if family not in _F_FAMILIES:
        raise ConfigError(f"{key}.f_family", f"unknown family {family!r}")
    names = _F_FAMILIES[family]
    if len(params) != len(names):
        raise ConfigError(f"{key}.f_params", f"the {family} family takes "
                          f"{len(names)} parameters, got {len(params)}")
    try:
        return CouplingSpec(p["epsilon"], **dict(zip(names, params)))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _csv_table(base_dir: Path) -> dict:
    """Table of the csv family: a path to one value per line, or the values."""
    def column(value, key):
        path = base_dir / _string(value, key)
        try:
            with open(path, newline="") as fh:
                rows = [row[0] for row in csv.reader(fh) if row]
        except OSError as exc:
            raise ConfigError(key, f"cannot read CSV column from {path}: {exc}") from None
        return _floats(rows, key)
    return {"path": (column, None), "values": (_floats, None)}


def _cell_values(params: dict, key: str, n: int) -> np.ndarray:
    values = params.get("path", params.get("values"))
    if values is None:
        raise ConfigError(f"{key}.path", "missing required key")
    if len(values) != n:
        raise ConfigError(key, f"the csv family needs {n} cell values, got {len(values)}")
    return np.asarray(values, dtype=float)


def _torus_dist(x: np.ndarray, center: float, grid: SpaceTimeGrid) -> np.ndarray:
    if not grid.periodic:
        return np.abs(x - center)
    L = grid.length
    d = np.abs((x - center) % L)
    return np.minimum(d, L - d)


def potential_on_grid(block: dict, grid: SpaceTimeGrid, key: str = "potential",
                      base_dir: Path | str = ".") -> tuple[np.ndarray, np.ndarray | None]:
    """(V at cells, V at nodes) of a potential block {family, ...}; the nodes
    are None for the csv family (the ProblemSpec interpolates them)."""
    family, p = _family(block, key, {
        "zero": {},
        "quadratic": {"scale": (_finite, 1.0), "center": (_finite, 0.0)},
        "cosine": {"amplitude": (_finite, 1.0), "periods": (_integer, 1)},
        "csv": _csv_table(Path(base_dir)),
    }, default="zero")
    if family == "csv":
        return _cell_values(p, key, grid.n_x), None
    if family == "zero":
        fn = np.zeros_like
    elif family == "quadratic":
        fn = lambda x: 0.5 * p["scale"] * (x - p["center"]) ** 2
    else:
        fn = lambda x: p["amplitude"] * np.cos(
            2.0 * np.pi * p["periods"] * (x - grid.x_min) / grid.length
        )
    return fn(grid.x_cells()), fn(grid.x_nodes())


def _marginal(block, key: str, grid: SpaceTimeGrid, V: tuple, epsilon: float,
              base_dir: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Unnormalized (cells, nodes) sampling of a marginal block; the nodes
    are None where the block has no values there: csv marginals and gibbs
    ones over a csv potential.  A mixture normalizes each component once."""
    mid, L = 0.5 * (grid.x_min + grid.x_max), grid.length
    family, p = _family(block, key, {
        "uniform": {},
        "gaussian": {"mean": (_finite, mid), "std": (_finite, 0.25 * L)},
        "gibbs": {},
        "bump": {"center": (_finite, mid), "width": (_finite, 0.1 * L),
                 "floor": (_finite, 1e-3)},
        "mixture": {"components": (_mappings, REQUIRED),
                    "weights": (_floats, REQUIRED)},
        "csv": _csv_table(base_dir),
    })
    for name in ("std", "width"):
        if name in p and p[name] <= 0:
            raise ConfigError(f"{key}.{name}", "must be positive")
    if family == "csv":
        return _cell_values(p, key, grid.n_x), None
    if family == "gibbs":
        if epsilon <= 0:
            raise ConfigError(key, "gibbs marginal requires coupling.epsilon > 0")
        return tuple(None if v is None else np.exp(-v / epsilon) for v in V)
    if family == "mixture":
        weights = p["weights"]
        if len(weights) != len(p["components"]) or min(weights, default=0.0) < 0:
            raise ConfigError(f"{key}.weights", "need one weight >= 0 per component")
        parts = [_marginal(c, f"{key}.components[{i}]", grid, V, epsilon, base_dir)
                 for i, c in enumerate(p["components"])]
        cells = np.zeros(grid.n_x)
        nodes = None if any(n is None for _, n in parts) else np.zeros(grid.n_xnodes)
        for wgt, (c, n) in zip(weights, parts):
            Z = np.sum(c * grid.dx)
            cells += wgt * c / Z
            if nodes is not None:
                nodes += wgt * n / Z
        return cells, nodes
    if family == "uniform":
        fn = np.ones_like
    elif family == "gaussian":
        fn = lambda x: np.exp(-0.5 * ((x - p["mean"]) / p["std"]) ** 2)
    else:
        fn = lambda x: np.exp(
            -0.5 * (_torus_dist(x, p["center"], grid) / p["width"]) ** 2
        ) + p["floor"]
    return fn(grid.x_cells()), fn(grid.x_nodes())


def marginal_on_grid(block: dict, grid: SpaceTimeGrid, V_cells: np.ndarray,
                     V_nodes: np.ndarray | None, epsilon: float,
                     key: str = "marginal", base_dir: Path | str = "."
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """(cells, nodes) sampling of a marginal block, sharing one normalizer;
    the nodes are None where the ProblemSpec is to interpolate them.  csv
    values are passed on as given, so that the ProblemSpec, which
    normalizes them, records their mass defect."""
    cells, nodes = _marginal(block, key, grid, (V_cells, V_nodes), epsilon,
                             Path(base_dir))
    Z = float(np.sum(cells) * grid.dx)
    if Z <= 0 or not np.all(np.isfinite(cells)) or np.any(cells <= 0):
        raise ConfigError(key, "the density is not strictly positive")
    if block["family"] == "csv":
        return cells, None
    return cells / Z, None if nodes is None else nodes / Z


# ---------------------------------------------------------------------------
# the whole file
# ---------------------------------------------------------------------------

def parse_config(raw: dict, base_dir: Path | str = ".") -> RunConfig:
    top = _read(raw, "", {
        "grid": (_GRID, REQUIRED), "problem": (_mapping, REQUIRED),
        "method": (_string, None), "primal": (_PRIMAL, {}),
        "checks": (_checks, None), "sweep": (_mapping, {}),
        "output_dir": (_string, None),
    })
    grid = top.pop("grid")
    prob = _read(top.pop("problem"), "problem", {
        "hamiltonian": (_hamiltonian, {}), "coupling": (_coupling, {}),
        "potential": (_mapping, {}), "m0": (_mapping, REQUIRED),
        "m1": (_mapping, REQUIRED),
    })
    sweep = _read(top.pop("sweep"), "sweep", {"eps_list": (_eps_list, None)})

    eps = prob["coupling"].epsilon
    V = potential_on_grid(prob["potential"], grid, "problem.potential", base_dir)
    m0, m1 = (marginal_on_grid(prob[name], grid, *V, eps, f"problem.{name}", base_dir)
              for name in ("m0", "m1"))
    try:
        spec = ProblemSpec(grid, m0[0], m1[0], V[0], prob["hamiltonian"],
                           prob["coupling"], m0[1], m1[1], V[1])
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None
    return RunConfig(spec=spec, sweep_eps=sweep.get("eps_list", RunConfig.sweep_eps),
                     **top)


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

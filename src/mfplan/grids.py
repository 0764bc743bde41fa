"""Staggered space-time grids and the field/problem value types.

Discretization of Q = (0,T) x Omega for Omega an interval (no-flux) or a
circle.  The grid is staggered:

* densities m live at (time-node, space-cell)            -> (n_t+1, n_x)
* momenta w = m*v live at (time-cell, space-face)        -> (n_t, n_faces)
* potentials u live at (time-node, space-node)           -> (n_t+1, n_nodes)

with n_faces = n_nodes = n_x+1 on the interval and n_x on the torus (faces
and nodes coincide with cell edges; the space index wraps).  This layout
makes the discrete continuity equation m_t = D_x w and the discrete
integration by parts exact, which the duality checks rely on.

The grid owns the layout's stencils, so both solvers share one copy:

* edge -> cell, along time (first axis) and space (last axis): the
  difference quotients diff_t, diff_x and the means avg_t, avg_x;
* node -> node: the first derivatives diff_t_nodes, diff_x_nodes and the
  second differences diff2_t_nodes, diff2_x_nodes;
* the no-flux edge sets: free, the slice of faces (and space nodes) off the
  boundary, all of them on the torus and the inner ones on an interval, and
  lateral, the boundary ones: [0, -1] on an interval and [] on the torus.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hamiltonian import CouplingSpec, HamiltonianSpec

INTERVAL = "interval-neumann"
TORUS = "torus"
_TOPOLOGIES = (INTERVAL, TORUS)


def _frozen(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform staggered grid on (0,T) x (x_min,x_max)."""

    T: float
    x_min: float
    x_max: float
    n_t: int
    n_x: int
    topology: str = INTERVAL

    def __post_init__(self):
        if not (self.T > 0 and self.x_max > self.x_min):
            raise ValueError("need T > 0 and x_max > x_min")
        if self.n_t < 2 or self.n_x < 2:
            raise ValueError("need n_t >= 2 and n_x >= 2")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def periodic(self) -> bool:
        return self.topology == TORUS

    @property
    def n_faces(self) -> int:
        # on the torus face i is the left edge of cell i; face n_x == face 0
        return self.n_x if self.periodic else self.n_x + 1

    @property
    def n_xnodes(self) -> int:
        return self.n_faces

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)

    def x_cells(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_x) + 0.5) * self.dx

    def x_nodes(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_xnodes) * self.dx

    @property
    def free(self) -> slice:
        """The faces (and space nodes) off the no-flux boundary."""
        return slice(None) if self.periodic else slice(1, -1)

    @property
    def lateral(self) -> list[int]:
        """The faces (and space nodes) on the no-flux boundary."""
        return [] if self.periodic else [0, -1]

    # the two time-node -> time-cell stencils along the first axis; each
    # edge -> cell stencil writes into out, a float array of the cell
    # shape, when it is given
    def diff_t(self, values: np.ndarray, out=None) -> np.ndarray:
        """Difference quotient across each time cell of time-node values."""
        out = np.subtract(values[1:], values[:-1], out=out)
        out /= self.dt
        return out

    def avg_t(self, values: np.ndarray, out=None) -> np.ndarray:
        """Mean of time-node values over each time cell."""
        out = np.add(values[:-1], values[1:], out=out)
        out *= 0.5
        return out

    # the two edge -> cell stencils along the last axis
    def diff_x(self, values: np.ndarray, out=None) -> np.ndarray:
        """Difference quotient across each cell of edge values."""
        out = self._edges(np.subtract, values, out)
        out /= self.dx
        return out

    def avg_x(self, values: np.ndarray, out=None) -> np.ndarray:
        """Mean of edge values over each cell."""
        out = self._edges(np.add, values, out)
        out *= 0.5
        return out

    def _edges(self, op, values: np.ndarray, out) -> np.ndarray:
        """op(right edge, left edge) of each cell, into out (new if None); on
        the torus the right edge of the last cell is edge 0."""
        right, left = values[..., 1:], values[..., :-1]
        if not self.periodic:
            return op(right, left, out=out)
        out = np.empty(values.shape) if out is None else out
        op(right, left, out=out[..., :-1])
        op(values[..., :1], values[..., -1:], out=out[..., -1:])
        return out

    # the two node -> node first derivatives: centered inside, wrapped on the
    # torus and one-sided second order at the ends of an interval
    def diff_t_nodes(self, values: np.ndarray) -> np.ndarray:
        """Time derivative at the time nodes of node values (first axis)."""
        return _diff_nodes(values.T, self.dt, False).T

    def diff_x_nodes(self, values: np.ndarray) -> np.ndarray:
        """Space derivative at the space nodes of node values (last axis); at
        the ends of an interval these are the lateral Neumann rows."""
        return _diff_nodes(values, self.dx, self.periodic)

    # the two node -> node centered second differences: wrapped on the torus
    # and zero at t in {0, T} and at the ends of an interval
    def diff2_t_nodes(self, values: np.ndarray) -> np.ndarray:
        """Second time difference at the time nodes (first axis)."""
        return _diff2_nodes(values.T, self.dt, False).T

    def diff2_x_nodes(self, values: np.ndarray) -> np.ndarray:
        """Second space difference at the space nodes (last axis)."""
        return _diff2_nodes(values, self.dx, self.periodic)


def _diff_nodes(v: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    out = np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)
    if not periodic:
        out[..., 0] = -3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]
        out[..., -1] = 3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]
    return out / (2 * h)


def _diff2_nodes(v: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    out = (np.roll(v, -1, axis=-1) - 2 * v + np.roll(v, 1, axis=-1)) / h**2
    if not periodic:
        out[..., [0, -1]] = 0.0
    return out


@dataclass(frozen=True)
class DensityField:
    grid: SpaceTimeGrid
    values: np.ndarray  # (n_t+1, n_x)

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.n_t + 1, self.grid.n_x):
            raise ValueError(f"density shape {v.shape} does not match grid")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class MomentumField:
    grid: SpaceTimeGrid
    values: np.ndarray  # (n_t, n_faces)

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.n_t, self.grid.n_faces):
            raise ValueError(f"momentum shape {v.shape} does not match grid")
        if np.any(v[:, self.grid.lateral] != 0.0):
            raise ValueError("no-flux boundary faces must carry w = 0")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PotentialField:
    grid: SpaceTimeGrid
    values: np.ndarray  # (n_t+1, n_xnodes)

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.n_t + 1, self.grid.n_xnodes):
            raise ValueError(f"potential shape {v.shape} does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite at every node")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ProblemSpec:
    """One planning-problem instance on a fixed grid.

    Marginals and the potential are cell-sampled; node-sampled companions
    (used by the dual solver's boundary rows) may be supplied when analytic
    expressions are available, otherwise they are filled by interpolation.
    Marginals must be positive in every cell (the standing hypothesis) and
    are renormalized to unit mass on construction.
    """

    grid: SpaceTimeGrid
    m0: np.ndarray  # (n_x,) cells
    m1: np.ndarray
    V: np.ndarray  # (n_x,) cells
    hamiltonian: "HamiltonianSpec"
    coupling: "CouplingSpec"
    m0_nodes: np.ndarray | None = None
    m1_nodes: np.ndarray | None = None
    V_nodes: np.ndarray | None = None
    mass_defect_m0: float = field(default=0.0, compare=False)
    mass_defect_m1: float = field(default=0.0, compare=False)

    def __post_init__(self):
        g = self.grid
        for name in ("m0", "m1", "V"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (g.n_x,):
                raise ValueError(f"{name} must be cell-sampled with shape ({g.n_x},)")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, v)
        for name in ("m0", "m1"):
            v = getattr(self, name)
            if not np.all(v > 0.0):
                raise ValueError(f"{name} must be positive in every cell")
            total = float(np.sum(v) * g.dx)
            object.__setattr__(self, f"mass_defect_{name}", abs(total - 1.0))
            object.__setattr__(self, name, _frozen(v / total))
        object.__setattr__(self, "V", _frozen(self.V))
        for name in ("m0_nodes", "m1_nodes", "V_nodes"):
            v = getattr(self, name)
            if v is None:
                # a density keeps its sign at the ends; V may be negative
                v = cells_to_nodes(getattr(self, name[:-6]), g,
                                   positive=name != "V_nodes")
            else:
                v = np.asarray(v, dtype=float)
                if v.shape != (g.n_xnodes,):
                    raise ValueError(f"{name} must have shape ({g.n_xnodes},)")
            object.__setattr__(self, name, _frozen(v))

    @property
    def lipschitz_V(self) -> float:
        return float(np.max(np.abs(self.grid.diff_x(self.V))))


def cells_to_nodes(cells: np.ndarray, grid: SpaceTimeGrid,
                   positive: bool = False) -> np.ndarray:
    """Second-order interpolation of cell values to cell edges (last axis).

    The end nodes of an interval are extrapolated from the two nearest
    cells: linearly, 1.5 c0 - 0.5 c1, or with positive=True linearly in
    log space, c0^1.5 c1^-0.5, which keeps positive data positive.
    """
    if grid.periodic:
        return 0.5 * (cells + np.roll(cells, 1, axis=-1))
    inner = 0.5 * (cells[..., 1:] + cells[..., :-1])
    ends = [(cells[..., :1], cells[..., 1:2]), (cells[..., -1:], cells[..., -2:-1])]
    if positive:
        left, right = (c0 * np.sqrt(c0 / c1) for c0, c1 in ends)
    else:
        left, right = (1.5 * c0 - 0.5 * c1 for c0, c1 in ends)
    return np.concatenate([left, inner, right], axis=-1)


@dataclass(frozen=True)
class ValidationReport:
    mass_defect_m0: float
    mass_defect_m1: float
    min_density: float
    lipschitz_log_m0: float
    lipschitz_log_m1: float
    lipschitz_V: float


def validate_problem(spec: ProblemSpec) -> ValidationReport:
    """Figures of the instance: the mass defects of the data before
    renormalization, the smallest density and Lipschitz constants.  The
    hypotheses themselves (positive, finite data) are ProblemSpec's own."""
    g = spec.grid
    return ValidationReport(
        mass_defect_m0=spec.mass_defect_m0,
        mass_defect_m1=spec.mass_defect_m1,
        min_density=float(min(spec.m0.min(), spec.m1.min())),
        lipschitz_log_m0=float(np.max(np.abs(g.diff_x(np.log(spec.m0))))),
        lipschitz_log_m1=float(np.max(np.abs(g.diff_x(np.log(spec.m1))))),
        lipschitz_V=spec.lipschitz_V,
    )

"""Shared instance builders and cached solves for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from mfplan.dual import solve_dual
from mfplan.config import marginal_on_grid, potential_on_grid
from mfplan.grids import ProblemSpec, SpaceTimeGrid
from mfplan.hamiltonian import CouplingSpec, HamiltonianSpec
from mfplan.primal import PrimalConfig, solve_primal


def build_spec(grid: SpaceTimeGrid, m0_cfg: dict, m1_cfg: dict,
               pot_cfg: dict, hamiltonian: HamiltonianSpec,
               coupling: CouplingSpec) -> ProblemSpec:
    V_cells, V_nodes = potential_on_grid(pot_cfg, grid)
    m0c, m0n = marginal_on_grid(dict(m0_cfg), grid, V_cells, V_nodes,
                                coupling.epsilon)
    m1c, m1n = marginal_on_grid(dict(m1_cfg), grid, V_cells, V_nodes,
                                coupling.epsilon)
    return ProblemSpec(grid, m0c, m1c, V_cells, hamiltonian, coupling,
                       m0n, m1n, V_nodes)


def make_gibbs_spec(n: int, eps: float = 0.5) -> ProblemSpec:
    grid = SpaceTimeGrid(1.0, -2.0, 2.0, n, n)
    return build_spec(
        grid,
        {"family": "gibbs"},
        {"family": "gibbs"},
        {"family": "quadratic", "scale": 1.0, "center": 0.0},
        HamiltonianSpec(),
        CouplingSpec(epsilon=eps),
    )


def gaussian_with_floor(mean: float, std: float = 0.45,
                        floor: float = 0.1) -> dict:
    # the uniform component keeps the marginals away from vacuum, where
    # first-order splitting slows to a crawl without changing the physics
    return {
        "family": "mixture",
        "components": [{"family": "gaussian", "mean": mean, "std": std},
                       {"family": "uniform"}],
        "weights": [1.0 - floor, floor],
    }


def make_congestion_spec(n: int) -> ProblemSpec:
    # crowd-aversion coupling f(m) = m between two displaced gaussians
    grid = SpaceTimeGrid(1.0, -2.0, 2.0, n, n)
    return build_spec(
        grid,
        gaussian_with_floor(-0.8),
        gaussian_with_floor(0.8),
        {"family": "quadratic", "scale": 0.5},
        HamiltonianSpec(),
        CouplingSpec(epsilon=0.25, c=1.0, a=1.0),
    )


def make_bump_spec(n: int, eps: float = 0.2, topology: str = "torus") -> ProblemSpec:
    grid = SpaceTimeGrid(1.0, 0.0, 1.0, n, n, topology)
    return build_spec(
        grid,
        {"family": "bump", "center": 0.25, "width": 0.12, "floor": 0.2},
        {"family": "bump", "center": 0.5, "width": 0.12, "floor": 0.2},
        {"family": "zero"},
        HamiltonianSpec(),
        CouplingSpec(epsilon=eps),
    )


def make_power_spec(n: int) -> ProblemSpec:
    # non-quadratic H = (p^2 + 0.5^2)^{1.25} with congestion f(m) = 0.5 m^2,
    # carrying the bump pair a quarter-turn around the circle
    grid = SpaceTimeGrid(1.0, 0.0, 1.0, n, n, "torus")
    return build_spec(
        grid,
        {"family": "bump", "center": 0.25, "width": 0.12, "floor": 0.2},
        {"family": "bump", "center": 0.5, "width": 0.12, "floor": 0.2},
        {"family": "zero"},
        HamiltonianSpec(q=2.5, varpi=0.5, scale=2.0),
        CouplingSpec(epsilon=0.3, c=0.5, a=2.0),
    )


BENCHMARKS = {
    "gibbs": make_gibbs_spec,
    "congestion": make_congestion_spec,
    "bump": make_bump_spec,
    "power": make_power_spec,
}

_PRIMAL_CFG = {
    "gibbs": PrimalConfig(tol_kkt=1e-8),
    "congestion": PrimalConfig(),
    "bump": PrimalConfig(),
    "power": PrimalConfig(),
}


class SolveCache:
    """Runs each (instance, resolution) pair at most once per session."""

    def __init__(self):
        self._specs = {}
        self._primal = {}
        self._dual = {}

    def spec(self, name: str, n: int) -> ProblemSpec:
        key = (name, n)
        if key not in self._specs:
            self._specs[key] = BENCHMARKS[name](n)
        return self._specs[key]

    def primal(self, name: str, n: int):
        key = (name, n)
        if key not in self._primal:
            self._primal[key] = solve_primal(self.spec(name, n),
                                             _PRIMAL_CFG[name])
        return self._primal[key]

    def dual(self, name: str, n: int):
        key = (name, n)
        if key not in self._dual:
            self._dual[key] = solve_dual(self.spec(name, n))
        return self._dual[key]


@pytest.fixture(scope="session")
def solves() -> SolveCache:
    return SolveCache()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260824)

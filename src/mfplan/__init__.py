"""Entropy-regularized dynamic optimal transport (mean-field planning) in 1-D.

Two independent routes to the same optimum:

* a primal Douglas-Rachford splitting of the kinetic+entropy+congestion
  functional under the discrete continuity constraint (``primal``), and
* a nested-mesh Newton solver for the quasilinear space-time elliptic
  equation satisfied by the dual potential (``dual``),

plus numerical checks of the associated a-priori estimates (``estimates``)
and a config-driven CLI (``cli``).
"""
from .dual import m_from_u, solve_dual
from .functional import PrimalState, continuity_residual, functional_value, prox_cell
from .grids import (
    DensityField,
    MomentumField,
    PotentialField,
    ProblemSpec,
    SpaceTimeGrid,
    validate_problem,
)
from .hamiltonian import (
    CouplingSpec,
    HamiltonianSpec,
    h_eval,
    legendre_L,
)
from .primal import PrimalConfig, solve_primal

__all__ = [
    "SpaceTimeGrid", "DensityField", "MomentumField", "PotentialField",
    "ProblemSpec", "validate_problem",
    "HamiltonianSpec", "CouplingSpec", "h_eval", "legendre_L",
    "PrimalState", "functional_value", "continuity_residual", "prox_cell",
    "PrimalConfig", "solve_primal",
    "m_from_u", "solve_dual",
]

__version__ = "0.1.0"

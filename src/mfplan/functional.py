"""Discrete primal functional in (m, w), continuity residual, and cell prox.

The convex objective

    J(m, w) = dt*dx * sum [ m L(w/m) + eps*m(log m - 1) + V m + F(m) ]

is evaluated on cell-centered averages of the staggered fields: density is
averaged between consecutive time nodes and momentum between the two faces
of each cell, so every summand lives at (time-cell, space-cell).  The
kinetic term uses the perspective form m*L(w/m), which is jointly convex in
(m, w) — do not "simplify" it to m*L(v).

F is the antiderivative of the coupling f, anchored by F(1) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DensityField, MomentumField, ProblemSpec, SpaceTimeGrid
from .hamiltonian import (
    CouplingSpec,
    HamiltonianSpec,
    invert_hp,
    kinetic_density,
    safeguarded_newton,
)


@dataclass(frozen=True)
class PrimalState:
    m: DensityField
    w: MomentumField

    def __post_init__(self):
        if self.m.grid != self.w.grid:
            raise ValueError("m and w live on different grids")

    @property
    def grid(self) -> SpaceTimeGrid:
        return self.m.grid


def integrand(m_c, w_c, spec: ProblemSpec) -> np.ndarray:
    """Per-(time-cell, space-cell) integrand of the objective."""
    eps = spec.coupling.epsilon
    kinetic = kinetic_density(spec.hamiltonian, m_c, w_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = m_c * (np.log(m_c) - 1.0)
    ent = np.where(m_c == 0.0, 0.0, ent)
    return kinetic + eps * ent + spec.V * m_c + spec.coupling.F(m_c)


def functional_value(state: PrimalState, spec: ProblemSpec) -> float:
    if state.grid != spec.grid:
        raise ValueError("state grid does not match problem grid")
    m_c = spec.grid.avg_t(state.m.values)
    w_c = spec.grid.avg_x(state.w.values)
    if np.any(m_c < 0.0):
        return math.inf
    vals = integrand(m_c, w_c, spec)
    if np.any(np.isposinf(vals)):
        return math.inf
    return float(np.sum(vals) * spec.grid.dt * spec.grid.dx)


def continuity_residual(state: PrimalState, spec: ProblemSpec) -> np.ndarray:
    """Residual of m_t = D_x w per (time-cell, space-cell).

    Endpoint rows use the problem data m0, m1 in place of the state's
    endpoint slices (they are hard constraints, not variables).
    """
    g = spec.grid
    m = state.m.values.copy()
    m[0] = spec.m0
    m[-1] = spec.m1
    return g.diff_t(m) - g.diff_x(state.w.values)


# ---------------------------------------------------------------------------
# proximal map of the integrand at a single cell
# ---------------------------------------------------------------------------

def _reduced_gradient(m, mbar, wbar, sigma, V, hamiltonian: HamiltonianSpec,
                      coupling: CouplingSpec):
    """d/dm of the w-eliminated cell objective, its m-derivative, and H_p(p).

    The momentum dual p solves sigma p + m H_p(p) = wbar and the optimal
    momentum is w = m H_p(p); the kinetic part contributes -H(p) to the
    gradient and H_p^2/(sigma + m H_pp) to its derivative.  Both sums are
    built in place, without the terms that vanish (eps = 0, f = 0).
    """
    grad, hp, hpp = invert_hp(hamiltonian, wbar, m, sigma)[1:]
    eps, f_zero = coupling.epsilon, coupling.f_zero
    term = np.empty_like(grad)
    # grad = -H(p) + eps log m + V + f(m) + (m - mbar)/sigma
    np.negative(grad, out=grad)
    if eps > 0.0:
        grad += np.multiply(np.log(m, out=term), eps, out=term)
    grad += V
    if not f_zero:
        grad += coupling.f(m)
    grad += np.divide(np.subtract(m, mbar, out=term), sigma, out=term)
    # curv = H_p^2/(sigma + m H_pp) + eps/m + f'(m) + 1/sigma
    curv = hp * hp
    curv /= np.add(np.multiply(m, hpp, out=term), sigma, out=term)
    if eps > 0.0:
        curv += np.divide(eps, m, out=term)
    if not f_zero:
        curv += coupling.f_prime(m)
    curv += 1.0 / sigma
    return grad, curv, hp


def prox_block(
    mbar: np.ndarray,
    wbar: np.ndarray,
    sigma: float,
    V: np.ndarray,
    hamiltonian: HamiltonianSpec,
    coupling: CouplingSpec,
    m_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prox of the cell integrand for any radial H.

    Minimizes  m L(w/m) + eps m(log m - 1) + V m + F(m)
             + (1/2 sigma)[(m - mbar)^2 + (w - wbar)^2]   over m >= 0, w.

    Eliminating w leaves a strictly convex scalar problem in m per cell
    with gradient _reduced_gradient, solved by one safeguarded Newton over
    the whole block (mbar, wbar and V broadcast together): in y = log m
    when the entropy keeps the minimizer interior, in m itself otherwise.
    In that corner case (eps = 0, f(0+) finite) a cell where the gradient
    at m = 0 is already >= 0 has m = 0 optimal: it starts at 0 with an
    infinite tolerance, so it converges at its first evaluation and ends
    at exactly m = w = 0, while the Newton runs on the whole block.  A
    converged cell no longer moves.
    The KKT residual is at most 1e-11*max(1, |V| + |mbar|/sigma + H(wbar/sigma)).

    Newton starts at m_start, a guess of the minimizer (in a splitting
    loop, the previous iteration's output), clipped into the bracket; in
    the corner case a free cell whose m_start is not strictly inside
    (0, m_hi) starts at m_hi/2.  With m_start=None it starts at mbar, or at
    m_hi/2 in the corner case.  The start changes the answer only within
    the tolerance.
    """
    mbar, wbar, V = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mbar, wbar, V)))
    top = invert_hp(hamiltonian, wbar, 0.0, sigma)[1]  # H(wbar/sigma) >= H(p)
    tol = 1e-11 * np.maximum(1.0, np.abs(V) + np.abs(mbar) / sigma + top)
    top -= V  # now H(wbar/sigma) - V
    interior = coupling.epsilon > 0.0 or (
        coupling.f_family == "log" and coupling.f_params[0] > 0.0)
    # eps = 0 and f(0+) finite: the corner m = 0 is optimal where the
    # gradient is already >= 0 there
    corner = None if interior else ~(coupling.f(1e-300) - top - mbar / sigma < 0.0)
    # for m >= 1 the entropy and f are >= 0, so the gradient is >= 0 at m_hi
    m_hi = np.maximum(np.multiply(top, sigma, out=top) + mbar, 1.0, out=top)
    vel = None  # H_p(p) at the last evaluation

    if interior:
        m = np.empty_like(mbar)  # exp(y) at the last evaluation

        def in_log(y):
            nonlocal vel
            g, curv, vel = _reduced_gradient(
                np.exp(y, out=m), mbar, wbar, sigma, V, hamiltonian, coupling)
            curv *= m
            return g, curv

        hi = np.log(m_hi, out=m_hi)
        start = (mbar, 1e-12) if m_start is None else (m_start, 1e-300)
        # exp underflows below -746, where the gradient is -inf
        safeguarded_newton(in_log, np.minimum(np.log(np.maximum(*start)), hi),
                           -746.0, hi, tol)
    else:
        def in_m(y):
            nonlocal vel
            g, curv, vel = _reduced_gradient(
                y, mbar, wbar, sigma, V, hamiltonian, coupling)
            return g, curv

        m = np.multiply(m_hi, 0.5)  # the start, then Newton's iterate
        if m_start is not None:
            prev = np.broadcast_to(m_start, mbar.shape)
            np.copyto(m, prev, where=(prev > 0.0) & (prev < m_hi))
        np.copyto(m, 0.0, where=corner)
        np.copyto(tol, np.inf, where=corner)
        # curv at m = 0 may hold f'(0) = inf and 0 * inf: never read there
        with np.errstate(divide="ignore", invalid="ignore"):
            safeguarded_newton(in_m, m, 0.0, m_hi, tol)
    return m, m * vel


def prox_cell(
    mbar: float,
    wbar: float,
    sigma: float,
    V: float,
    hamiltonian: HamiltonianSpec,
    coupling: CouplingSpec,
) -> tuple[float, float]:
    """Prox of the cell integrand at one cell; see prox_block."""
    if sigma <= 0.0:
        raise ValueError("prox step sigma must be positive")
    m, w = prox_block(np.array([mbar], dtype=float), np.array([wbar], dtype=float),
                      sigma, np.array([V], dtype=float), hamiltonian, coupling)
    return float(m[0]), float(w[0])

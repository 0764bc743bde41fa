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
    Scratch,
    h_eval,
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
                      coupling: CouplingSpec, work: Scratch):
    """d/dm of the w-eliminated cell objective without its entropy, its
    m-derivative, and H_p(p).

    The momentum dual p solves sigma p + m H_p(p) = wbar and the optimal
    momentum is w = m H_p(p); the kinetic part contributes -H(p) to the
    gradient and H_p^2/(sigma + m H_pp) to its derivative.  Both sums are
    built in place in arrays of work, without f where it vanishes, and
    sigma + m H_pp stays in work("den") for prox_predict.  The
    entropy's eps log m and eps/m are prox_block's to add, in y = log m.
    """
    grad, hp, hpp = invert_hp(hamiltonian, wbar, m, sigma, work.sub("invert_hp"))[1:]
    term, den = work("term"), work("den")
    # grad = -H(p) + V + f(m) + (m - mbar)/sigma
    np.negative(grad, out=grad)
    grad += V
    if not coupling.f_zero:
        grad += coupling.f(m, out=term)
    grad += np.divide(np.subtract(m, mbar, out=term), sigma, out=term)
    # curv = H_p^2/(sigma + m H_pp) + f'(m) + 1/sigma
    curv = np.multiply(hp, hp, out=work("curv"))
    curv /= np.add(np.multiply(m, hpp, out=den), sigma, out=den)
    if not coupling.f_zero:
        curv += coupling.f_prime(m, out=term)
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
    work: Scratch | None = None,
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
    loop, prox_predict's from the previous call), mbar if None.  In y it is
    floored at 1e-300, where a NaN start goes too, and clipped below
    log m_hi; in m a free cell starts at m_start where 0 < m_start < m_hi
    and at m_hi/2 elsewhere.  The start changes the answer only within the
    tolerance.

    Every array the prox computes, the returned m and w included, is one of
    work's, named "m" and "w" for the two outputs, so that a splitting
    loop that passes the same work every call allocates no cell-sized
    array; m_start must not be one of them.  The call also copies mbar and
    wbar into work, as "mbar_in" and "wbar_in", from which prox_predict
    forms the next call's start.  With work=None each call makes its own,
    and the next call does not overwrite what it returned.
    """
    mbar, wbar, V = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mbar, wbar, V)))
    work = Scratch(mbar.shape) if work is None else work
    m_start = mbar if m_start is None else m_start
    np.copyto(work("mbar_in"), mbar)
    np.copyto(work("wbar_in"), wbar)
    m, w = work("m"), work("w")  # w is scratch until the end
    # H(wbar/sigma) >= H(p), kept apart from the gradients' invert_hp arrays
    top = np.divide(wbar, sigma, out=work("top"))
    np.copyto(top, h_eval(hamiltonian, top, work.sub("invert_hp"))[0])
    # tol = 1e-11 max(1, |V| + |mbar|/sigma + top)
    tol = np.abs(V, out=work("tol"))
    tol += np.divide(np.abs(mbar, out=w), sigma, out=w)
    tol += top
    np.multiply(np.maximum(tol, 1.0, out=tol), 1e-11, out=tol)
    top -= V  # now H(wbar/sigma) - V
    # eps = 0 and f(0+) finite: the corner m = 0 is optimal where the
    # gradient f(0+) - top - mbar/sigma is already >= 0 there
    corner = None
    if not coupling.interior:
        np.subtract(coupling.f(1e-300), top, out=w)
        w -= np.divide(mbar, sigma, out=m)
        corner = np.less(w, 0.0, out=work("corner", bool))
        np.logical_not(corner, out=corner)
    # for m >= 1 the entropy and f are >= 0, so the gradient is >= 0 at m_hi
    m_hi = np.maximum(np.add(np.multiply(top, sigma, out=top), mbar, out=top), 1.0, out=top)
    vel = None  # H_p(p) at the last evaluation

    if coupling.interior:
        eps = coupling.epsilon

        # m holds exp(y) at the last evaluation; the entropy adds eps y to
        # the gradient and eps to the y-derivative, m (eps/m)
        def in_log(y):
            nonlocal vel
            g, curv, vel = _reduced_gradient(
                np.exp(y, out=m), mbar, wbar, sigma, V, hamiltonian, coupling, work)
            g += np.multiply(y, eps, out=work("term"))
            curv *= m
            curv += eps
            return g, curv

        hi = np.log(m_hi, out=m_hi)
        y = np.log(np.fmax(m_start, 1e-300, out=work("y")), out=work("y"))  # NaN: the floor
        # for y <= 0 (m <= 1): -H(p) <= 0, (m - mbar)/sigma <= (1 - min
        # mbar)/sigma, and f(m) <= f(1) = c for a power f, = c y for the log
        # f; so g(y) <= top_g + slope y, and every root lies above
        # -top_g/slope, or above -746, below which exp underflows to 0
        log_f = coupling.a is None
        slope = eps + (coupling.c if log_f else 0.0)
        top_g = V.max() + (0.0 if log_f else coupling.c) + (1.0 - mbar.min()) / sigma
        lo = min(-746.0, -max(0.0, top_g) / slope)
        safeguarded_newton(in_log, np.minimum(y, hi, out=y), lo, hi, tol,
                           work.sub("newton"))
    else:
        def in_m(y):
            nonlocal vel
            g, curv, vel = _reduced_gradient(
                y, mbar, wbar, sigma, V, hamiltonian, coupling, work)
            return g, curv

        np.multiply(m_hi, 0.5, out=m)  # the start, then Newton's iterate
        # m_start where 0 < m_start < m_hi: the second test runs only where
        # the first holds and leaves False elsewhere
        inside = np.greater(m_start, 0.0, out=work("inside", bool))
        np.less(m_start, m_hi, out=inside, where=inside)
        np.copyto(m, m_start, where=inside)
        np.copyto(m, 0.0, where=corner)
        np.copyto(tol, np.inf, where=corner)
        # curv at m = 0 may hold f'(0) = inf and 0 * inf: never read there
        with np.errstate(divide="ignore", invalid="ignore"):
            safeguarded_newton(in_m, m, 0.0, m_hi, tol, work.sub("newton"))
    return m, np.multiply(m, vel, out=w)


def prox_predict(mbar, wbar, sigma, hamiltonian: HamiltonianSpec,
                 coupling: CouplingSpec, work: Scratch, out: np.ndarray) -> np.ndarray:
    """First-order prediction of prox_block's minimizer at the new inputs
    mbar, wbar, at the same V, from the last prox_block call on work.

    Against that call's inputs, which it kept in work, the inputs move by
    dmbar, dwbar and the gradient's root by dm = (dmbar/sigma + H_p/(sigma
    + m H_pp) dwbar) / g' with g' = H_p^2/(sigma + m H_pp) + f'(m) +
    1/sigma, and in y = log m by dy = (same) / (m g' + eps), the chain
    factor m and the entropy's eps.  Every factor but that sigma is the
    last call's at its last evaluation, which is its output m (after a
    change of sigma, g' and sigma + m H_pp hold the old one), so the
    prediction costs no gradient evaluation.  It is m exp(dy) on the log
    branch and m + dm on the m-branch, written into out (not one of work's
    arrays); the kept inputs become the increments.
    """
    m, inv = work("m"), work.sub("invert_hp")
    # a cell at m = 0 may read 0 * inf = NaN, which prox_block's clip takes;
    # so may kept inputs that no prox_block call wrote
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dmbar = np.subtract(mbar, work("mbar_in"), out=work("mbar_in"))
        dwbar = np.subtract(wbar, work("wbar_in"), out=work("wbar_in"))
        np.divide(inv("H_p"), work("den"), out=out)
        out *= dwbar
        out += np.divide(dmbar, sigma, out=dmbar)
        out /= work("curv")  # g' on the m-branch, m g' + eps on the log branch
        if coupling.interior:
            np.exp(out, out=out)
            out *= m
        else:
            out += m
    return out


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

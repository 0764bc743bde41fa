"""Proximal-splitting solver for the discrete planning functional.

Douglas-Rachford iteration on the product space of staggered variables
U = (interior densities, free momenta) and cell-centered variables
Vc = (Mc, Wc):

* G1(U, Vc) = indicator{continuity C U = d} + integrand J(Vc)
  — prox splits into the affine continuity projection (pseudo-inverse of
  C C^T from its two 1-D factors) and the per-cell prox of the integrand;
* G2(U, Vc) = indicator{Vc = A U + b}
  — projection onto the graph of the averaging A (cached LU of I + A^T A).

The step sigma starts at SIGMA.  Every BALANCE_EVERY iterations it is
doubled if ||y|| >= 2 sigma ||u|| and halved if 2 ||y|| <= sigma ||u||,
within [SIGMA_MIN, SIGMA_MAX], where y is the prox output and
u = (s - y)/sigma the multiplier of the shadow s; the shadow is rescaled
so that y and u stay.  The over-relaxation THETA and the iteration cap
MAX_ITERS are fixed; the one setting, PrimalConfig.tol_kkt, bounds both
the primal gap y - z (z the graph projection) and the subgradient sum
(y - z)/sigma, so the stop does not depend on sigma.  The iteration keeps
the output continuity-feasible at every step; the functional value,
non-monotone under splitting, is evaluated once, at the last prox output.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .functional import PrimalState, continuity_residual, integrand, prox_block
from .grids import (
    DensityField,
    MomentumField,
    ProblemSpec,
    SpaceTimeGrid,
    stencil_matrix,
)


SIGMA = 1.0  # initial prox step
SIGMA_MIN, SIGMA_MAX = 2.0**-10, 2.0**10  # powers of two: rescaling is exact
BALANCE_EVERY = 20  # DR iterations between step adaptations
THETA = 1.8  # over-relaxation, in [1, 2)
MAX_ITERS = 50000  # DR iterations before the solve is reported unconverged


@dataclass(frozen=True)
class PrimalConfig:
    tol_kkt: float = 1e-6

    def __post_init__(self):
        if self.tol_kkt <= 0:
            raise ValueError("tol_kkt must be positive")


@dataclass
class PrimalLog:
    iters: int = 0
    converged: bool = False
    final_value: float = float("nan")
    feasibility: float = float("nan")
    fp_residual: float = float("nan")
    sigma: float = SIGMA  # the prox step at the last iteration
    reason: str = ""  # why the iteration stopped unconverged


class _Operators:
    """Sparse operators and cached projection solvers for one grid.

    With the staggered unknowns ordered (interior densities, free momenta),
    each time-major, the continuity operator is C = [D_t (x) I, -I (x) D_x]
    and the cell averaging A = blockdiag(A_t (x) I, I (x) A_x), built from
    the grid's 1-D difference and average stencils restricted to the free
    nodes and faces.
    """

    def __init__(self, grid: SpaceTimeGrid):
        self.grid = grid
        nt, nx = grid.n_t, grid.n_x
        # the time axis as an interval grid, whose dx is dt
        time = SpaceTimeGrid(grid.T, 0.0, grid.T, nt, nt)
        interior = slice(1, -1)
        free = slice(None) if grid.periodic else interior  # no-flux faces
        D_t, A_t = (stencil_matrix(f, nt + 1, interior)
                    for f in (time.diff_x, time.avg_x))
        D_x, A_x = (stencil_matrix(f, grid.n_faces, free)
                    for f in (grid.diff_x, grid.avg_x))
        I_t, I_x = sp.identity(nt), sp.identity(nx)
        self.nm = (nt - 1) * nx

        # format="csr": kron's block format would store the zeros of D_x, A_x
        kron = functools.partial(sp.kron, format="csr")
        self.C = sp.hstack([kron(D_t, I_x), -kron(I_t, D_x)], format="csr")
        # C C^T = G_t (x) I + I (x) G_x, G = D D^T, is diagonalized by the
        # eigenvectors of the 1-D Gram matrices.  eigh sorts ascending and each
        # G's only null vector is the constant, so the one zero sum is (0, 0):
        # the constant mode, outside range(C), which the pseudo-inverse drops.
        l_t, self._Q_t = np.linalg.eigh((D_t @ D_t.T).toarray())
        l_x, self._Q_x = np.linalg.eigh((D_x @ D_x.T).toarray())
        eig = l_t[:, None] + l_x[None, :]
        eig[0, 0] = np.inf  # 1 / inf = 0
        self._cc_pinv = 1.0 / eig
        self.A = sp.block_diag([kron(A_t, I_x), kron(I_t, A_x)], format="csr")
        n = self.A.shape[1]
        self._graph_lu = splu(sp.csc_matrix(sp.eye(n) + self.A.T @ self.A))

    def data_vectors(self, spec: ProblemSpec):
        """Continuity right-hand side d and averaging offset b from (m0, m1)."""
        nt, nx = self.grid.n_t, self.grid.n_x
        d = np.zeros(nt * nx)
        d[:nx] = spec.m0 / self.grid.dt
        d[-nx:] = -spec.m1 / self.grid.dt
        b = np.zeros(2 * nt * nx)
        b[:nx] = 0.5 * spec.m0
        b[(nt - 1) * nx : nt * nx] += 0.5 * spec.m1
        return d, b

    # -- staggered state <-> variable vector -------------------------------
    def pack(self, state: PrimalState) -> np.ndarray:
        m = state.m.values[1:-1].ravel()
        w = state.w.values if self.grid.periodic else state.w.values[:, 1:-1]
        return np.concatenate([m, w.ravel()])

    def unpack(self, U: np.ndarray, spec: ProblemSpec) -> PrimalState:
        nt, nx = self.grid.n_t, self.grid.n_x
        m = np.empty((nt + 1, nx))
        m[0], m[-1] = spec.m0, spec.m1
        m[1:-1] = U[: self.nm].reshape(nt - 1, nx)
        if self.grid.periodic:
            w = U[self.nm :].reshape(nt, nx)
        else:
            w = np.zeros((nt, nx + 1))
            w[:, 1:-1] = U[self.nm :].reshape(nt, nx - 1)
        return PrimalState(DensityField(self.grid, m), MomentumField(self.grid, w))

    def project(self, U: np.ndarray, d: np.ndarray) -> np.ndarray:
        r = (self.C @ U - d).reshape(self.grid.n_t, self.grid.n_x)
        Q_t, Q_x = self._Q_t, self._Q_x
        lam = Q_t @ ((Q_t.T @ r @ Q_x) * self._cc_pinv) @ Q_x.T
        return U - self.C.T @ lam.ravel()

    def graph_project(self, U: np.ndarray, Vc: np.ndarray, b: np.ndarray):
        Ustar = self._graph_lu.solve(U + self.A.T @ (Vc - b))
        return Ustar, self.A @ Ustar + b


@functools.lru_cache(maxsize=8)
def _operators(grid: SpaceTimeGrid) -> _Operators:
    return _Operators(grid)


def _initial_state(spec: ProblemSpec) -> PrimalState:
    g = spec.grid
    lam = np.linspace(0.0, 1.0, g.n_t + 1)[:, None]
    m = (1.0 - lam) * spec.m0 + lam * spec.m1
    w = np.zeros((g.n_t, g.n_faces))
    return PrimalState(DensityField(g, m), MomentumField(g, w))


def solve_primal(spec: ProblemSpec, cfg: PrimalConfig | None = None):
    """Minimize the discrete functional under the continuity constraint.

    Returns (PrimalState, PrimalLog).  Handles eps >= 0 and any radial
    Hamiltonian family.
    """
    cfg = cfg or PrimalConfig()
    ops = _operators(spec.grid)
    d, b = ops.data_vectors(spec)
    g = spec.grid
    nt, nx = g.n_t, g.n_x
    U = ops.project(ops.pack(_initial_state(spec)), d)
    Vc = ops.A @ U + b
    sU, sV = U.copy(), Vc.copy()

    log = PrimalLog()
    sigma = SIGMA
    # the first prox starts cold, later ones at the log-linear extrapolation
    # of the last two outputs (the last output alone after a step change)
    mY = mY_prev = None
    for it in range(1, MAX_ITERS + 1):
        yU = ops.project(sU, d)
        mbar = sV[: nt * nx].reshape(nt, nx)
        wbar = sV[nt * nx :].reshape(nt, nx)
        m_start = mY if mY_prev is None else np.divide(
            mY * mY, mY_prev, out=mY.copy(), where=(mY > 0.0) & (mY_prev > 0.0))
        mY_prev = mY
        # the uniform dt*dx weight does not move the minimizer, so the
        # iteration minimizes the unweighted cell sum (better-scaled prox)
        mY, wY = prox_block(
            mbar, wbar, sigma, spec.V, spec.hamiltonian, spec.coupling, m_start,
        )
        yV = np.concatenate([mY.ravel(), wY.ravel()])

        if it % BALANCE_EVERY == 0:
            y_norm = np.hypot(np.linalg.norm(yU), np.linalg.norm(yV))
            su_norm = np.hypot(np.linalg.norm(sU - yU), np.linalg.norm(sV - yV))
            if y_norm >= 2.0 * su_norm:  # ||y|| >= 2 sigma ||u||
                step = min(2.0 * sigma, SIGMA_MAX)
            elif 2.0 * y_norm <= su_norm:
                step = max(0.5 * sigma, SIGMA_MIN)
            else:
                step = sigma
            if step != sigma:
                # y = prox_step(s') for s' = y + step*u: y and u stay
                sU = yU + (step / sigma) * (sU - yU)
                sV = yV + (step / sigma) * (sV - yV)
                sigma, mY_prev = step, None

        zU, zV = ops.graph_project(2.0 * yU - sU, 2.0 * yV - sV, b)

        dU = zU - yU
        dV = zV - yV
        sU += THETA * dU
        sV += THETA * dV

        scale = max(1.0, float(np.max(np.abs(yU))), float(np.max(np.abs(yV))))
        # np.maximum, unlike max(), propagates a NaN from either block
        fp = float(np.maximum(np.max(np.abs(dU)), np.max(np.abs(dV)))) / scale
        log.iters = it
        log.fp_residual = fp
        # y - z is the primal gap and (y - z)/sigma the subgradient sum
        if fp <= cfg.tol_kkt * min(1.0, sigma):
            log.converged = True
            break
        if not np.isfinite(fp):
            log.reason = f"non-finite fixed-point residual at iteration {it}"
            break
    else:
        log.reason = f"max_iters ({MAX_ITERS}) reached"
    log.sigma = sigma

    state = ops.unpack(yU, spec)
    if spec.coupling.epsilon > 0:
        # interior densities can undershoot by splitting error; clip the dust
        m = state.m.values.copy()
        np.clip(m, 1e-300, None, out=m)
        state = PrimalState(DensityField(g, m), state.w)
    log.final_value = float(np.sum(integrand(mY, wY, spec)) * g.dt * g.dx)
    log.feasibility = float(np.max(np.abs(continuity_residual(state, spec))))
    return state, log

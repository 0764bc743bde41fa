"""Proximal-splitting solver for the discrete planning functional.

Douglas-Rachford iteration on the staggered unknowns U = (m, w), the
interior densities and free momenta, and the cell values V = (M, W):

* G1(U, V) = indicator{continuity C U = d} + integrand J(V)
  — prox splits into the affine continuity projection (pseudo-inverse of
  C C^T from its two 1-D factors) and the per-cell prox of the integrand;
* G2(U, V) = indicator{V = A U + b}
  — projection onto the graph of the averaging A (one cached LU per axis).

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
from .grids import DensityField, MomentumField, ProblemSpec, SpaceTimeGrid


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
    """Stencil operators and cached projection solvers for one grid.

    The fields are m (n_t - 1, n_x), w on the n_t time cells and the grid's
    free faces (all of them on the torus, the inner ones on the interval)
    and M, W (n_t, n_x).  C U = D_t m - D_x w and A U = (A_t m, A_x w) are
    the grid's edge -> cell stencils diff_t, diff_x and avg_t, avg_x, one
    axis each, with the fixed edges (the data rows of m, the no-flux faces
    of w) at 0.  So C C^T = G_t (x) I + I (x) G_x, G = D D^T, and
    I + A^T A = blockdiag((I + A_t^T A_t) (x) I, I (x) (I + A_x^T A_x)).
    """

    def __init__(self, grid: SpaceTimeGrid):
        self.grid = grid
        nt, nx = grid.n_t, grid.n_x
        # the 1-D matrices, (cells, free edges): each stencil on the identity
        D_t, A_t = (f(np.eye(nt + 1)[:, 1:-1]) for f in (grid.diff_t, grid.avg_t))
        D_x, A_x = (f(np.eye(grid.n_faces)[grid.free]).T
                    for f in (grid.diff_x, grid.avg_x))
        self.shapes = (nt - 1, nx), (nt, D_x.shape[1]), (nt, nx), (nt, nx)
        self.ends = np.cumsum([a * b for a, b in self.shapes])
        self._m_pad, self._w_pad = np.zeros((nt + 1, nx)), np.zeros((nt, grid.n_faces))
        # eigh sorts ascending and each G's only null vector is the constant,
        # so the one zero sum is (0, 0): the constant mode, outside range(C),
        # which the pseudo-inverse drops
        l_t, self._Q_t = np.linalg.eigh(D_t @ D_t.T)
        l_x, self._Q_x = np.linalg.eigh(D_x @ D_x.T)
        eig = l_t[:, None] + l_x[None, :]
        eig[0, 0] = np.inf  # 1 / inf = 0
        self._cc_pinv = 1.0 / eig
        self._lu_t, self._lu_x = (splu(sp.csc_matrix(np.eye(a.shape[1]) + a.T @ a))
                                  for a in (A_t, A_x))

    def split(self, v: np.ndarray):
        """The views (m, w, M, W) of one vector of all the unknowns."""
        return tuple(part.reshape(shape) for part, shape in
                     zip(np.split(v, self.ends[:-1]), self.shapes))

    # C and A apply the stencils to m and w padded with their fixed edges at
    # 0 (scratch arrays whose edges stay 0); a transpose maps the cell values
    # to the edges between them, on the torus starting before cell 0
    def _padded(self, m, w):
        self._m_pad[1:-1], self._w_pad[:, self.grid.free] = m, w
        return self._m_pad, self._w_pad

    def _to_free(self, v):
        if self.grid.periodic:
            return np.concatenate((v[..., -1:], v[..., :-1]), axis=-1)
        return v

    def C(self, m, w):
        m, w = self._padded(m, w)
        return self.grid.diff_t(m) - self.grid.diff_x(w)

    def CT(self, lam):
        return -self.grid.diff_t(lam), self._to_free(self.grid.diff_x(lam))

    def A(self, m, w):
        m, w = self._padded(m, w)
        return self.grid.avg_t(m), self.grid.avg_x(w)

    def AT(self, M, W):
        return self.grid.avg_t(M), self._to_free(self.grid.avg_x(W))

    def project(self, m, w, d, out):
        """Nearest (m', w') to (m, w) with C(m', w') = d, for d in the range
        of C, by the pseudo-inverse of C C^T, written into out, two arrays
        shaped like (m, w)."""
        Q_t, Q_x = self._Q_t, self._Q_x
        r = Q_t.T @ (self.C(m, w) - d) @ Q_x
        pm, pw = self.CT(Q_t @ (r * self._cc_pinv) @ Q_x.T)
        np.subtract(m, pm, out=out[0])
        np.subtract(w, pw, out=out[1])
        return out

    def graph_project(self, m, w, M, W, b, out):
        """Nearest (U*, A U* + b) to (U, V) on the graph of the averaging:
        (I + A^T A) U* = U + A^T (V - b), one LU solve per axis.  The result
        is written into out, four arrays shaped like (m, w, M, W); the
        inputs are never written."""
        am, aw = self.AT(M - b, W)
        zm = self._lu_t.solve(m + am)
        zw = self._lu_x.solve((w + aw).T).T
        zM, zW = self.A(zm, zw)
        zM += b
        for a, v in zip(out, (zm, zw, zM, zW)):
            a[...] = v
        return out


_operators = functools.lru_cache(maxsize=8)(_Operators)  # one set per grid


def _data(spec: ProblemSpec):
    """Continuity right-hand side d and averaging offset b, (n_t, n_x) each:
    the parts of C and A on the fixed end rows m0, m1 of the density."""
    g = spec.grid
    d, b = np.zeros((2, g.n_t, g.n_x))
    d[0], d[-1] = spec.m0 / g.dt, -spec.m1 / g.dt
    b[0], b[-1] = 0.5 * spec.m0, 0.5 * spec.m1
    return d, b


def solve_primal(spec: ProblemSpec, cfg: PrimalConfig | None = None):
    """Minimize the discrete functional under the continuity constraint.

    Returns (PrimalState, PrimalLog).  Handles eps >= 0 and any radial
    Hamiltonian family.
    """
    cfg = cfg or PrimalConfig()
    g = spec.grid
    ops = _operators(g)
    d, b = _data(spec)
    # shadow, prox output, reflection 2y - s and graph projection: each one
    # vector of all the unknowns, with its (m, w, M, W) views; s starts at
    # the straight line between the marginals at rest, made feasible
    s, y, p, z = np.empty((4, ops.ends[-1]))
    s_, y_, p_, z_ = map(ops.split, (s, y, p, z))
    lam = np.linspace(0.0, 1.0, g.n_t + 1)[1:-1, None]
    ops.project((1.0 - lam) * spec.m0 + lam * spec.m1, np.zeros(ops.shapes[1]),
                d, out=s_[:2])
    M, s_[3][...] = ops.A(*s_[:2])
    np.add(M, b, out=s_[2])

    log = PrimalLog()
    sigma = SIGMA
    # the first prox starts cold, later ones at the log-linear extrapolation
    # of the last two outputs (the last output alone after a step change)
    mY = mY_prev = None
    for it in range(1, MAX_ITERS + 1):
        ops.project(*s_[:2], d, out=y_[:2])
        m_start = mY if mY_prev is None else np.divide(
            mY * mY, mY_prev, out=mY.copy(), where=(mY > 0.0) & (mY_prev > 0.0))
        mY_prev = mY
        # the uniform dt*dx weight does not move the minimizer, so the
        # iteration minimizes the unweighted cell sum (better-scaled prox)
        mY, wY = prox_block(
            s_[2], s_[3], sigma, spec.V, spec.hamiltonian, spec.coupling, m_start,
        )
        y_[2][...], y_[3][...] = mY, wY

        if it % BALANCE_EVERY == 0:
            y_norm, su_norm = np.linalg.norm(y), np.linalg.norm(s - y)
            if y_norm >= 2.0 * su_norm:  # ||y|| >= 2 sigma ||u||
                step = min(2.0 * sigma, SIGMA_MAX)
            elif 2.0 * y_norm <= su_norm:
                step = max(0.5 * sigma, SIGMA_MIN)
            else:
                step = sigma
            if step != sigma:
                # y = prox_step(s') for s' = y + step*u: y and u stay
                s[...] = y + (step / sigma) * (s - y)
                sigma, mY_prev = step, None

        np.multiply(y, 2.0, out=p)
        p -= s
        ops.graph_project(*p_, b, out=z_)
        z -= y
        # max |v| as max(max v, -min v), without a temporary
        fp = float(max(z.max(), -z.min()) / max(1.0, y.max(), -y.min()))
        z *= THETA
        s += z
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

    m = np.concatenate([spec.m0[None], y_[0], spec.m1[None]])
    if spec.coupling.epsilon > 0:
        # interior densities can undershoot by splitting error; clip the dust
        np.clip(m, 1e-300, None, out=m)
    w = np.zeros((g.n_t, g.n_faces))
    w[:, g.free] = y_[1]
    state = PrimalState(DensityField(g, m), MomentumField(g, w))
    log.final_value = float(np.sum(integrand(mY, wY, spec)) * g.dt * g.dx)
    log.feasibility = float(np.max(np.abs(continuity_residual(state, spec))))
    return state, log

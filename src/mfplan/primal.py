"""Proximal-splitting solver for the discrete planning functional.

Douglas-Rachford iteration on the staggered unknowns U = (m, w), the
interior densities and free momenta, and the cell values V = (M, W):

* G1(U, V) = indicator{continuity C U = d} + integrand J(V)
  — prox splits into the affine continuity projection (pseudo-inverse of
  C C^T from its two 1-D factors) and the per-cell prox of the integrand;
* G2(U, V) = indicator{V = A U + b}
  — projection onto the graph of the averaging A (one cached LU per axis).

The step sigma starts at SIGMA.  Every BALANCE_EVERY iterations it is set
to the power of two closest (in log2) to the balance ratio
sigma ||y|| / ||s - y|| = ||y|| / ||u||, within [SIGMA_MIN, SIGMA_MAX],
where y is the prox output and u = (s - y)/sigma the multiplier of the
shadow s, so that ||y|| and sigma ||u|| balance; a ratio that is 0 or not
finite leaves sigma.  The shadow is rescaled so that y and u stay.  The
over-relaxation THETA and the iteration cap MAX_ITERS are fixed; the one
setting, PrimalConfig.tol_kkt, bounds both the primal gap y - z (z the
graph projection) and the subgradient sum (y - z)/sigma, so the stop does
not depend on sigma.  The iteration keeps the output continuity-feasible
at every step; the functional value, non-monotone under splitting, is
evaluated once, at the last prox output.

The shadow update s <- T = s + f, f = THETA (z - y), is accelerated by
type-II Anderson acceleration (_Anderson): every iteration stores the
differences of consecutive f and T, the last ANDERSON_DEPTH of them, and
every ANDERSON_EVERY-th iteration takes s <- T - dT gamma, gamma the
regularized least-squares fit of f by dF.  A change of sigma changes the
map T, so it clears the history; so does a gamma that is not finite, and
the plain step stands.  The stop and the output do not involve s.

The cell prox starts cold at the first iteration; every prox after the
first, the first after a change of sigma included, starts at
functional.prox_predict: the last output moved to first order by the
change of the prox inputs since the last call, from the derivatives at the
prox's last Newton evaluation.  So an Anderson jump of the shadow costs
the prox few extra Newton evaluations.

An iteration allocates no cell-sized array but the two LU solve outputs of
the graph projection.  It writes into arrays that one solve_primal call
makes and frees when it returns: the four iterates (the projections work
in the cell views of p and z before those are written), the prox's
Scratch (the prox writes its m and w into the cell views of y), the last
prox inputs and the next start, and Anderson's 2 ANDERSON_DEPTH + 2
vectors of all the unknowns.  None is kept across calls; the cached
per-grid operators hold only their factors and two padded arrays.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .functional import (
    PrimalState,
    continuity_residual,
    integrand,
    prox_block,
    prox_predict,
)
from .grids import DensityField, MomentumField, ProblemSpec, SpaceTimeGrid
from .hamiltonian import Scratch


SIGMA = 1.0  # initial prox step
SIGMA_MIN, SIGMA_MAX = 2.0**-10, 2.0**10  # powers of two: rescaling is exact
BALANCE_EVERY = 20  # DR iterations between step adaptations
THETA = 1.8  # over-relaxation, in [1, 2)
ANDERSON_DEPTH = 5  # differences in the Anderson history
ANDERSON_EVERY = 5  # DR iterations between Anderson steps
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
    anderson_steps: int = 0  # accelerated shadow updates taken
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
    # to the edges between them, on the torus starting before cell 0.  Each
    # writes into out (new arrays where None); tmp, a cell-shaped array, is
    # the scratch of the torus and of C
    def _padded(self, m, w):
        self._m_pad[1:-1], self._w_pad[:, self.grid.free] = m, w
        return self._m_pad, self._w_pad

    def _to_free(self, stencil, cells, out, tmp):
        if not self.grid.periodic:
            return stencil(cells, out=out)
        v = stencil(cells, out=tmp)
        out = np.empty_like(v) if out is None else out
        out[..., 0], out[..., 1:] = v[..., -1], v[..., :-1]
        return out

    def C(self, m, w, out=None, tmp=None):
        m, w = self._padded(m, w)
        out = self.grid.diff_t(m, out=out)
        out -= self.grid.diff_x(w, out=tmp)
        return out

    def CT(self, lam, out=(None, None), tmp=None):
        pm = self.grid.diff_t(lam, out=out[0])
        return np.negative(pm, out=pm), self._to_free(self.grid.diff_x, lam, out[1], tmp)

    def A(self, m, w, out=(None, None)):
        m, w = self._padded(m, w)
        return self.grid.avg_t(m, out=out[0]), self.grid.avg_x(w, out=out[1])

    def AT(self, M, W, out=(None, None), tmp=None):
        return self.grid.avg_t(M, out=out[0]), self._to_free(self.grid.avg_x, W, out[1], tmp)

    def project(self, m, w, d, out, scratch=None):
        """Nearest (m', w') to (m, w) with C(m', w') = d, for d in the range
        of C, by the pseudo-inverse of C C^T, written into out, two arrays
        shaped like (m, w) and apart from them.  It works in scratch, two
        cell-shaped arrays (new ones if None)."""
        a, b = np.empty((2, *self.shapes[2])) if scratch is None else scratch
        Q_t, Q_x = self._Q_t, self._Q_x
        self.C(m, w, out=a, tmp=b)
        a -= d
        r = np.matmul(np.matmul(Q_t.T, a, out=b), Q_x, out=a)
        r *= self._cc_pinv
        lam = np.matmul(np.matmul(Q_t, r, out=b), Q_x.T, out=a)
        pm, pw = self.CT(lam, out=out, tmp=b)
        np.subtract(m, pm, out=pm)
        np.subtract(w, pw, out=pw)
        return out

    def graph_project(self, m, w, M, W, b, out):
        """Nearest (U*, A U* + b) to (U, V) on the graph of the averaging:
        (I + A^T A) U* = U + A^T (V - b), one LU solve per axis.  The result
        is written into out, four arrays shaped like (m, w, M, W) and apart
        from the inputs, which are never written.  The two LU solves return
        new arrays, copied into out."""
        zm, zw, zM, zW = out
        # zM and zW are scratch until A writes them
        am, aw = self.AT(np.subtract(M, b, out=zM), W, out=(zm, zw), tmp=zW)
        am += m
        aw += w
        zm[...] = self._lu_t.solve(am)
        zw[...] = self._lu_x.solve(aw.T).T
        self.A(zm, zw, out=(zM, zW))
        zM += b
        return out


_operators = functools.lru_cache(maxsize=8)(_Operators)  # one set per grid


class _Anderson:
    """Type-II Anderson acceleration of the fixed-point map s -> T(s) =
    s + f(s) (Walker & Ni, SIAM J. Numer. Anal. 49 (2011); Fu, Zhang & Boyd,
    SIAM J. Sci. Comput. 42 (2020)).

    push(f, T) stores the differences dF, dT of consecutive increments f and
    plain updates T, in ring buffers that keep the last depth of each.
    extrapolate(s) takes s <- T - gamma dT with gamma solving
    (dF dF^T + 1e-10 tr/k I) gamma = dF f over the k stored differences,
    the k x k Gram matrix formed there.  All the buffers are made at
    construction; no call allocates a vector of the map's size.
    """

    def __init__(self, depth: int, n: int):
        self.depth = depth
        ring = np.empty((2 * depth + 2, n))  # dF rows, dT rows, the last f and T
        self.dF, self.dT = ring[:depth], ring[depth:2 * depth]
        self.f, self.T = ring[2 * depth:]
        self.reset()

    def reset(self):
        """Forget the history, the last f and T with it (the map changed)."""
        self.stored, self.primed = 0, False

    def push(self, f, T):
        if not self.depth:
            return
        if self.primed:
            j = self.stored % self.depth
            np.subtract(f, self.f, out=self.dF[j])
            np.subtract(T, self.T, out=self.dT[j])
            self.stored += 1
        np.copyto(self.f, f)
        np.copyto(self.T, T)
        self.primed = True

    def extrapolate(self, s, tmp) -> bool:
        """s (the last T) <- T - gamma dT, using tmp, a vector of s's size;
        returns whether it did.  A gamma that is not finite clears the
        history and leaves s."""
        k = min(self.stored, self.depth)
        if not k:
            return False
        dF = self.dF[:k]
        gamma = None
        with np.errstate(all="ignore"):
            gram = dF @ dF.T
            reg = 1e-10 * np.trace(gram) / k
            if reg > 0.0:  # else every stored dF is 0 (or not finite)
                gamma = np.linalg.solve(gram + reg * np.eye(k), dF @ self.f)
        if gamma is None or not np.isfinite(gamma).all():
            self.stored = 0
            return False
        s -= np.matmul(gamma, self.dT[:k], out=tmp)
        return True


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
    Hamiltonian.  The node densities are the DR iterate, unclipped.
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
    # the continuity projection works in the cell views of p, which every
    # iteration writes anew after it
    ops.project((1.0 - lam) * spec.m0 + lam * spec.m1, np.zeros(ops.shapes[1]),
                d, out=s_[:2], scratch=p_[2:])
    np.add(ops.A(*s_[:2], out=s_[2:])[0], b, out=s_[2])

    log = PrimalLog()
    sigma = SIGMA
    # the prox writes its outputs into y's cell views and its scratch into
    # prox_work's arrays, made at its first call
    prox_work = Scratch(ops.shapes[2], m=y_[2], w=y_[3])
    V = np.broadcast_to(spec.V, ops.shapes[2]).copy()  # adds without a buffer
    # the last prox inputs, then their increments, and the next prox's start
    mbar, wbar, start = np.empty((3, *ops.shapes[2]))
    anderson = _Anderson(ANDERSON_DEPTH, s.size)
    for it in range(1, MAX_ITERS + 1):
        ops.project(*s_[:2], d, out=y_[:2], scratch=p_[2:])
        if it > 1:  # the first prox starts cold, every other at the prediction
            np.subtract(s_[2], mbar, out=mbar)
            np.subtract(s_[3], wbar, out=wbar)
            prox_predict(mbar, wbar, sigma, spec.hamiltonian, spec.coupling,
                         prox_work, out=start)
        np.copyto(mbar, s_[2])
        np.copyto(wbar, s_[3])
        # the uniform dt*dx weight does not move the minimizer, so the
        # iteration minimizes the unweighted cell sum (better-scaled prox)
        # (no copy: the outputs are already y's views)
        y_[2][...], y_[3][...] = prox_block(
            s_[2], s_[3], sigma, V, spec.hamiltonian, spec.coupling,
            start if it > 1 else None, prox_work)

        if it % BALANCE_EVERY == 0:
            # z, the last increment, is spent: it holds s - y = sigma u.  The
            # step that balances ||y|| and step ||u||, to the closest power of 2
            su = np.subtract(s, y, out=z)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = sigma * np.linalg.norm(y) / np.linalg.norm(su)
                step = float(np.clip(np.exp2(np.round(np.log2(ratio))),
                                     SIGMA_MIN, SIGMA_MAX))
            if 0.0 < ratio < np.inf and step != sigma:  # else sigma stays
                # y = prox_step(s') for s' = y + step*u: y and u stay
                su *= step / sigma
                np.add(y, su, out=s)
                sigma = step
                anderson.reset()  # the history belongs to the old step

        np.multiply(y, 2.0, out=p)
        p -= s
        ops.graph_project(*p_, b, out=z_)
        z -= y
        # max |v| as max(max v, -min v), without a temporary
        fp = float(max(z.max(), -z.min()) / max(1.0, y.max(), -y.min()))
        log.iters = it
        log.fp_residual = fp
        # y - z is the primal gap and (y - z)/sigma the subgradient sum
        if fp <= cfg.tol_kkt * min(1.0, sigma):
            log.converged = True
            break
        if not np.isfinite(fp):
            log.reason = f"non-finite fixed-point residual at iteration {it}"
            break
        z *= THETA
        s += z  # the plain step T = s + f with f = z
        anderson.push(z, s)
        if it % ANDERSON_EVERY == 0:
            log.anderson_steps += anderson.extrapolate(s, tmp=z)
    else:
        log.reason = f"max_iters ({MAX_ITERS}) reached"
    log.sigma = sigma
    # free the prox's and Anderson's buffers before the returned fields are
    # made, so that those reuse the memory instead of pinning it below them
    del prox_work, V, mbar, wbar, start, anderson

    m = np.concatenate([spec.m0[None], y_[0], spec.m1[None]])
    w = np.zeros((g.n_t, g.n_faces))
    w[:, g.free] = y_[1]
    state = PrimalState(DensityField(g, m), MomentumField(g, w))
    log.final_value = float(np.sum(integrand(y_[2], y_[3], spec)) * g.dt * g.dx)
    log.feasibility = float(np.max(np.abs(continuity_residual(state, spec))))
    return state, log

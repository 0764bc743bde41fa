"""Nested-mesh Newton solver for the space-time elliptic potential equation.

The potential u and the constant kappa solve the quasilinear problem

    -[u_tt - 2 H_p u_tx + (H_p^2 + (m f'(m) + eps) H_pp) u_xx]
        + DV . H_p(u_x) + kappa = 0                           in the interior,
    -u_t + H(u_x) + kappa = f(m0) + V + eps log m0             at t = 0,
    -u_t + H(u_x) - kappa = f(m1) + V + eps log m1             at t = T,
    D_x u = 0 on the lateral boundary (interval topology),
    sum u(T) m1 dx = 0                                          (the gauge),

with m recovered pointwise through the inverse coupling:
m = (f + eps log)^{-1}(-u_t + H(u_x) - V).

This is the delta -> 0 limit of the penalized problem (rho u in the
interior, +-delta u at t = 0, T, with rho = delta): delta u_delta tends to
the constant kappa, and u is fixed up to an additive constant, which the
gauge pins.  kappa is the discrete compatibility defect of the data and
shrinks with the mesh; |kappa| is the limit of the a-priori quantity
delta sup|u_delta|.

The Jacobian in u has the constants as its kernel; bordered by the column
dR/dkappa and one row it is nonsingular.  Damped Newton runs by nested
iteration (Briggs, Henson & McCormick, A Multigrid Tutorial, SIAM 2000):
from u = 0 on the coarsest mesh, then from the bilinear interpolant of
each level's solution on the mesh with twice the cells.  On the coarsest
mesh every step takes one sparse solve of the bordered system at the
current iterate (full Newton).  A finer level starts close to its
solution, so there the bordered Jacobian is factored once, at the level's
first step, and the later steps reuse the factor (chord, or Shamanskii,
steps); it is factored again at the current iterate when a step cuts the
residual by less than REFACTOR_RATIO or its line search fails.  Every
level is solved to the same max-norm residual NEWTON_TOL in at most
MAX_NEWTON_ITERS steps (Kelley, Solving Nonlinear Equations with Newton's
Method, SIAM 2003, ch. 5); all three are constants, not settings.

The solver refuses eps <= 0, a non-smooth H and a torus with fewer than 3
cells, where the centered D_x vanishes; a level whose start residual is
not finite (phi overflows) fails before any step.  Each raises
DualSolveError, which the CLI maps to exit code 2.

The derivatives are the grid's node stencils: the first derivatives
diff_t_nodes and diff_x_nodes (one-sided second order at t in {0, T} and
on the lateral Neumann rows), their composition for u_tx, and the centered
second differences diff2_t_nodes and diff2_x_nodes for u_tt and u_xx.  The
interior and time-boundary rows sit on the grid's free space nodes, the
lateral rows on the two others.  The Jacobian is the exact linearization
sum_k diag(c_k) S_k over D_t (x) I, I (x) D_x, D_tt (x) I, I (x) D_xx and
D_t (x) D_x, built once per mesh from the same stencils, and keeps 9, 5 and
3 entries per interior, time-boundary and lateral row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spsolve

from .grids import DensityField, PotentialField, ProblemSpec
from .hamiltonian import SolveError, h_eval, h_third


MIN_LEVEL_CELLS = 16  # per axis, on the coarsest mesh of the nested solve
NEWTON_TOL = 1e-10  # max-norm residual at which Newton stops on a level
MAX_NEWTON_ITERS = 50  # Newton steps per level
STEP_TOL = 1e-13  # Newton stops once a damped step moves no entry by more
REFACTOR_RATIO = 0.5  # a chord step that leaves more of the residual refactors


class DualSolveError(SolveError):
    """The dual solver refused the instance, or damped Newton failed on one
    level of the nested solve."""


@dataclass
class DualLog:
    stages: list = field(default_factory=list)  # one per mesh level, coarsest first


def _require_supported(spec: ProblemSpec):
    if not spec.hamiltonian.smooth:
        raise DualSolveError("degenerate H_pp (varpi=0, q!=2): use the primal solver")
    if spec.coupling.epsilon <= 0.0:
        raise DualSolveError("dual solver requires eps > 0")
    if spec.grid.periodic and spec.grid.n_x < 3:
        raise DualSolveError("dual solver requires at least 3 cells on a torus")


def _kappa_column(g) -> np.ndarray:
    """dR/dkappa: +1 on the interior and t = 0 rows, -1 on the t = T rows."""
    e = np.zeros((g.n_t + 1, g.n_xnodes))  # zero on the lateral Neumann rows
    e[:-1, g.free], e[-1, g.free] = 1.0, -1.0
    return e


def _gauge_row(spec: ProblemSpec) -> np.ndarray:
    """Weights l with l . u = sum u(T) m1 dx, u(T) averaged to the cells."""
    g = spec.grid
    ell = np.zeros((g.n_t + 1, g.n_xnodes))
    # the cell mean on the identity is the transpose of its matrix
    ell[-1] = g.avg_x(np.eye(g.n_xnodes)) @ (g.dx * spec.m1)
    return ell


def _coefficients(g, interior, hp_boundary) -> np.ndarray:
    """The five node fields c_k of J = sum_k diag(c_k) S_k: a_t, a_x, a_tt,
    a_xx, a_tx on the interior rows, c_t = -1 and c_x = H_p on the
    time-boundary rows, c_x = 1 on the lateral rows, zero elsewhere."""
    c = np.zeros((5, g.n_t + 1, g.n_xnodes))
    for ck, a in zip(c, interior):
        ck[1:-1, g.free] = a
    c[0, [0, -1], g.free] = -1.0
    c[1, [0, -1], g.free] = hp_boundary
    c[1][:, g.lateral] = 1.0
    return c


@functools.lru_cache(maxsize=1)
def _stencils(g) -> tuple[np.ndarray, ...]:
    """The entries of S = [S_t; S_x; S_tt; S_xx; S_tx] as (row in S, column,
    value), each S_k kept on the rows where c_k lives: a full-grid operator
    also reaches rows whose coefficient is always zero, and storing those
    entries would widen the pattern and the LU fill."""
    nt1, nn = g.n_t + 1, g.n_xnodes
    # a time stencil on the identity is its matrix, a space one the transpose
    D_t, D_tt = (sp.csr_matrix(f(np.eye(nt1))) for f in (g.diff_t_nodes, g.diff2_t_nodes))
    D_x, D_xx = (sp.csr_matrix(f(np.eye(nn)).T) for f in (g.diff_x_nodes, g.diff2_x_nodes))
    I_t, I_x = sp.identity(nt1), sp.identity(nn)
    S = sp.vstack([sp.kron(a, b, format="coo") for a, b in (
        (D_t, I_x), (I_t, D_x), (D_tt, I_x), (I_t, D_xx), (D_t, D_x))], format="coo")
    on = _coefficients(g, [1.0] * 5, 1.0).ravel()[S.row] != 0.0
    return S.row[on], S.col[on], S.data[on]


def _assemble(u: np.ndarray, spec: ProblemSpec, kappa: float = 0.0,
              *, with_jacobian: bool):
    """Node-indexed residual and optionally the sparse Jacobian in u."""
    g = spec.grid
    H, C = spec.hamiltonian, spec.coupling
    inner, ends = g.free, [0, -1]
    u_t, u_x = g.diff_t_nodes(u), g.diff_x_nodes(u)
    u_tt, u_xx = g.diff2_t_nodes(u), g.diff2_x_nodes(u)
    ut, ux, utt, uxx, utx = (d[1:-1, inner] for d in (
        u_t, u_x, u_tt, u_xx, g.diff_t_nodes(u_x)))
    Vn, dv = spec.V_nodes[inner], g.diff_x_nodes(spec.V_nodes)[inner]

    hval, hp, hpp = h_eval(H, ux)
    m = C.phi(-ut + hval - Vn)
    fp = C.f_prime(m)
    cterm = C.epsilon + m * fp
    R = np.zeros_like(u)
    R[1:-1, inner] = -(utt - 2 * hp * utx + (hp * hp + cterm * hpp) * uxx) + dv * hp
    # time-boundary rows: -u_t + H(u_x) = f(m) + V + eps log m at the data
    hb, hpb, _ = h_eval(H, u_x[ends, inner])
    data = C.f_eps(np.stack([spec.m0_nodes, spec.m1_nodes])[:, inner]) + Vn
    R[ends, inner] = -u_t[ends, inner] + hb - data
    R[:, g.lateral] = u_x[:, g.lateral]  # lateral Neumann rows
    R += kappa * _kappa_column(g)
    if not with_jacobian:
        return R, None

    # m f'(m) + eps depends on u_t and u_x through m = phi(-u_t + H(u_x) - V)
    a_t = hpp * uxx * (fp + m * C.f_second(m)) * (m / cterm)
    a_x = (2.0 * hpp * utx - (2.0 * hp * hpp + cterm * h_third(H, ux)) * uxx
           + dv * hpp - a_t * hp)
    c = _coefficients(g, (a_t, a_x, -1.0, -(hp * hp + cterm * hpp), 2.0 * hp), hpb)
    srow, cols, vals = _stencils(g)  # the row in S also picks c_k at that row
    J = sp.csc_matrix((c.ravel()[srow] * vals, (srow % u.size, cols)), shape=(u.size,) * 2)
    return R, J


def m_from_u(u: PotentialField, spec: ProblemSpec) -> DensityField:
    """Recover the density from the potential: m = phi(-u_t + H(u_x) - V).

    Evaluated at (time-node, space-cell): u_t is a centered node difference
    (one-sided second order at t in {0,T}) averaged to cell centers, u_x the
    exact face difference of u.
    """
    _require_supported(spec)
    g = spec.grid
    hval = h_eval(spec.hamiltonian, g.diff_x(u.values))[0]
    m = spec.coupling.phi(-g.avg_x(g.diff_t_nodes(u.values)) + hval - spec.V)
    return DensityField(g, m)


def _sup_bound_rhs(spec: ProblemSpec) -> float:
    C, Vn = spec.coupling, spec.V_nodes
    a = float(np.max(np.abs(C.f_eps(spec.m0_nodes) + Vn)))
    b = float(np.max(np.abs(C.f_eps(spec.m1_nodes) + Vn)))
    return a + b


def _bordered_jacobian(z, spec, e, ell) -> sp.csc_matrix:
    """The Jacobian at z = (u, kappa) bordered by e and a row pinning the
    node of u(T) with the largest gauge weight.  A one-entry row leaves the
    fill of the factor as it is; ell, dense over u(T), adds about 10%."""
    _, J = _assemble(z[:-1].reshape(spec.grid.n_t + 1, -1), spec, z[-1],
                     with_jacobian=True)
    pin = sp.csr_matrix(([1.0], ([0], [int(np.argmax(ell))])), shape=(1, e.size))
    return sp.bmat([[J, sp.csc_matrix(e[:, None])], [pin, None]], format="csc")


def _newton_step(z, R, spec, e, ell, lu=None) -> np.ndarray:
    """Newton step dz = (du, dkappa) at z = (u, kappa), given the flat PDE rows R.

    Solves J du + e dkappa = -R with the gauge ell . (u + du) = 0: the
    bordered Jacobian is solved at z, or through lu, a factor of it taken
    at an earlier iterate (a chord step), and the constant that keeps the
    gauge is added to du.  The step bordered by ell itself differs only by
    a constant, the kernel of J.
    """
    rhs = np.append(-R, 0.0)
    step = spsolve(_bordered_jacobian(z, spec, e, ell), rhs) if lu is None else lu.solve(rhs)
    step[:-1] -= ell @ (z[:-1] + step[:-1]) / ell.sum()
    return step


def _newton_stage(z, spec, chord=False):
    """Damped Newton from z = (u, kappa) shifted into the gauge; returns
    (z, iters, factorizations, residual), or raises DualSolveError naming
    the mesh.

    Without chord every step solves the Jacobian at its iterate.  With
    chord the bordered Jacobian is factored at the first step and reused;
    it is factored again at the current iterate after a step that leaves
    more than REFACTOR_RATIO of the residual, or when the line search fails
    on the stale factor.  The stage stops when a step from a fresh factor
    fails."""
    g = spec.grid
    e, ell = _kappa_column(g).ravel(), _gauge_row(spec).ravel()
    z = np.append(z[:-1] - ell @ z[:-1] / ell.sum(), z[-1])

    # phi may overflow: a non-finite residual fails the start, or a trial step
    @np.errstate(over="ignore", invalid="ignore")
    def residual(z):
        R, _ = _assemble(z[:-1].reshape(g.n_t + 1, -1), spec, z[-1], with_jacobian=False)
        return R.ravel()

    R = residual(z)
    rnorm = float(np.max(np.abs(R)))
    if not np.isfinite(rnorm):
        raise DualSolveError(
            f"non-finite start residual ({rnorm}) on the {g.n_t}x{g.n_x} level")
    it = factorizations = 0
    lu = None  # the chord factor; None until a step needs one
    while rnorm > NEWTON_TOL and it < MAX_NEWTON_ITERS:
        fresh = lu is None  # always, without chord: spsolve factors afresh
        if fresh:
            factorizations += 1
            if chord:
                # a minimum-degree order on A^T + A with a loose pivot
                # threshold keeps the factor's fill near 0.6 of COLAMD's
                lu = spla.splu(_bordered_jacobian(z, spec, e, ell),
                               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01)
        step = _newton_step(z, R, spec, e, ell, lu)
        t = 1.0
        for _ in range(30):
            z_try = z + t * step
            R_try = residual(z_try)
            r_try = float(np.max(np.abs(R_try)))
            if np.isfinite(r_try) and r_try <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:  # no trial step decreased the residual
            if fresh:
                break
            lu = None
            continue
        if r_try > REFACTOR_RATIO * rnorm:
            lu = None
        z, R, rnorm = z_try, R_try, r_try
        it += 1
        if t * float(np.max(np.abs(step))) <= STEP_TOL:
            break
    if rnorm > NEWTON_TOL:
        raise DualSolveError(
            f"Newton stagnated on the {g.n_t}x{g.n_x} level; residual {rnorm:.3e}")
    return z, it, factorizations, rnorm


def _levels(spec: ProblemSpec) -> list[ProblemSpec]:
    """The instance on nested meshes, coarsest first and spec last: the cells
    per axis are halved while both counts are even and the halves keep
    MIN_LEVEL_CELLS.  Cell data are pairwise cell averages, which keep unit
    mass, and node data every other node, so no family is evaluated again."""
    g = spec.grid
    if g.n_t % 2 or g.n_x % 2 or min(g.n_t, g.n_x) < 2 * MIN_LEVEL_CELLS:
        return [spec]
    m0, m1, V = (0.5 * (a[0::2] + a[1::2]) for a in (spec.m0, spec.m1, spec.V))
    coarse = ProblemSpec(
        replace(g, n_t=g.n_t // 2, n_x=g.n_x // 2), m0, m1, V,
        spec.hamiltonian, spec.coupling,
        spec.m0_nodes[::2], spec.m1_nodes[::2], spec.V_nodes[::2],
    )
    return _levels(coarse) + [spec]


def _prolong(u: np.ndarray, periodic: bool) -> np.ndarray:
    """Bilinear interpolation of node values to the mesh with twice the cells."""
    for axis, wrap in ((0, False), (1, periodic)):
        n = u.shape[axis] - (not wrap)  # midpoints, one per cell
        mid = 0.5 * (u + np.roll(u, -1, axis)).take(range(n), axis)
        u = np.insert(u, np.arange(1, n + 1), mid, axis)
    return u


def solve_dual(spec: ProblemSpec):
    """Nested-mesh damped Newton solve of the gauge-pinned potential system.

    Returns (u: PotentialField, m: DensityField, DualLog) with u in the gauge
    sum u(T) m1 dx = 0 and m = m_from_u(u).  Raises DualSolveError for an
    instance the solver refuses, or naming the mesh level whose start
    residual is not finite or on which Newton failed.
    """
    _require_supported(spec)
    log = DualLog()
    u, kappa = None, 0.0
    for lvl in _levels(spec):
        g = lvl.grid
        coarsest = u is None
        u = np.zeros((g.n_t + 1, g.n_xnodes)) if coarsest else _prolong(u, g.periodic)
        # kappa carries over from the coarser level.  The coarsest level takes
        # full Newton steps, though chord steps converge from u = 0 too
        # (congestion-128: 23 steps, 5 factorizations against 8 and 8); the
        # fork stays while the benchmark's dual.linsolve span wraps spsolve
        z, iters, factors, resid = _newton_stage(np.append(u, kappa), lvl,
                                                 chord=not coarsest)
        u, kappa = z[:-1].reshape(g.n_t + 1, -1), float(z[-1])
        log.stages.append({
            "n_t": g.n_t,
            "n_x": g.n_x,
            "kappa": kappa,
            "newton_iters": iters,
            "factorizations": factors,
            "residual": resid,
            "sup_bound_lhs": abs(kappa),
            "sup_bound_rhs": _sup_bound_rhs(lvl),
            "grad_sup": float(np.max(np.abs(np.diff(u, axis=1)))) / g.dx,
        })

    u = PotentialField(spec.grid, u)
    return u, m_from_u(u, spec), log

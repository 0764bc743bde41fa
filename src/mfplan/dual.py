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
dR/dkappa and one row it is nonsingular, and each Newton step takes one
sparse solve of the bordered system.  Damped Newton runs by nested
iteration (Briggs, Henson & McCormick, A Multigrid Tutorial, SIAM 2000):
from u = 0 on the coarsest mesh, then from the bilinear interpolant of
each level's solution on the mesh with twice the cells.

Interior derivatives are centered; u_t in the time-boundary rows and the
lateral Neumann rows use one-sided second-order differences.  The Jacobian
is the exact linearization, including the dependence of m f'(m) + eps on
the derivatives of u through the inverse coupling.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .grids import DensityField, PotentialField, ProblemSpec
from .hamiltonian import DegenerateHamiltonianError, h_eval, h_third


MIN_LEVEL_CELLS = 16  # per axis, on the coarsest mesh of the nested solve
STEP_TOL = 1e-13  # Newton stops once a damped step moves no entry by more


class DualSolveError(RuntimeError):
    """The dual solver refused the instance, or damped Newton failed on one
    level of the nested solve."""


@dataclass(frozen=True)
class DualConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50


@dataclass(frozen=True)
class DualResidual:
    interior: np.ndarray  # (n_t-1, #interior space nodes)
    boundary: np.ndarray  # (2, #interior space nodes), rows t=0 and t=T
    lateral: np.ndarray | None  # (2, n_t+1) for interval topology


@dataclass
class DualLog:
    stages: list = field(default_factory=list)  # one per mesh level, coarsest first


def _require_smooth(spec: ProblemSpec):
    if not spec.hamiltonian.smooth:
        raise DegenerateHamiltonianError(
            "degenerate H_pp (varpi=0, q!=2): use the primal solver"
        )
    if spec.coupling.epsilon <= 0.0:
        raise DualSolveError("dual solver requires eps > 0")


def _dv_nodes(spec: ProblemSpec) -> np.ndarray:
    """Centered DV at nodes (only interior space entries are consumed)."""
    g = spec.grid
    Vn = spec.V_nodes
    if g.periodic:
        return (np.roll(Vn, -1) - np.roll(Vn, 1)) / (2.0 * g.dx)
    dv = np.zeros_like(Vn)
    dv[1:-1] = (Vn[2:] - Vn[:-2]) / (2.0 * g.dx)
    return dv


def _kappa_column(g) -> np.ndarray:
    """dR/dkappa: +1 on the interior and t = 0 rows, -1 on the t = T rows."""
    e = np.ones((g.n_t + 1, g.n_xnodes))
    e[-1] = -1.0
    if not g.periodic:
        e[:, [0, -1]] = 0.0  # lateral Neumann rows
    return e


def _gauge_row(spec: ProblemSpec) -> np.ndarray:
    """Weights l with l . u = sum u(T) m1 dx, u(T) averaged to the cells."""
    g = spec.grid
    ell = np.zeros((g.n_t + 1, g.n_xnodes))
    half = 0.5 * g.dx * spec.m1
    if g.periodic:
        ell[-1] = half + np.roll(half, 1)
    else:
        ell[-1, :-1] += half
        ell[-1, 1:] += half
    return ell


def _assemble(u: np.ndarray, spec: ProblemSpec, kappa: float = 0.0,
              *, with_jacobian: bool):
    """Node-indexed residual and optionally the sparse Jacobian in u."""
    g = spec.grid
    nt, nn = g.n_t, g.n_xnodes
    dt, dx = g.dt, g.dx
    H, C = spec.hamiltonian, spec.coupling
    eps = C.epsilon
    periodic = g.periodic
    Vn = spec.V_nodes
    dVn = _dv_nodes(spec)

    R = np.zeros((nt + 1, nn))
    rows, cols, vals = [], [], []

    def add(row, kk, ii, coeff):
        """Jacobian entries coeff of the rows row at the nodes (kk, ii)."""
        col = kk * nn + ii
        rows.append(row)
        cols.append(col.ravel())
        vals.append(np.broadcast_to(coeff, col.shape).ravel())

    # ----- interior rows: k = 1..nt-1, space-interior i -----
    ks = np.arange(1, nt)
    if periodic:
        isp = np.arange(nn)
        ip1, im1 = (isp + 1) % nn, (isp - 1) % nn
    else:
        isp = np.arange(1, nn - 1)
        ip1, im1 = isp + 1, isp - 1
    K, I = np.meshgrid(ks, isp, indexing="ij")
    IP, IM = np.meshgrid(ks, ip1, indexing="ij")[1], np.meshgrid(ks, im1, indexing="ij")[1]

    u_t = (u[K + 1, I] - u[K - 1, I]) / (2 * dt)
    u_x = (u[K, IP] - u[K, IM]) / (2 * dx)
    u_tt = (u[K + 1, I] - 2 * u[K, I] + u[K - 1, I]) / dt**2
    u_xx = (u[K, IP] - 2 * u[K, I] + u[K, IM]) / dx**2
    u_tx = (u[K + 1, IP] - u[K + 1, IM] - u[K - 1, IP] + u[K - 1, IM]) / (4 * dt * dx)

    hval, hp, hpp = h_eval(H, u_x)
    m = C.phi(-u_t + hval - Vn[I])
    fp = C.f_prime(m)
    cterm = eps + m * fp
    dv = dVn[I]

    R[K, I] = (
        -(u_tt - 2 * hp * u_tx + (hp * hp + cterm * hpp) * u_xx)
        + dv * hp
    )

    if with_jacobian:
        hppp = h_third(H, u_x)
        phi_p = m / cterm
        gprime = fp + m * C.f_second(m)  # d(m f'(m))/dm
        chain = hpp * u_xx * gprime * phi_p
        a_tt = -1.0
        a_tx = 2.0 * hp
        a_xx = -(hp * hp + cterm * hpp)
        a_t = chain
        a_x = (
            2.0 * hpp * u_tx
            - (2.0 * hp * hpp + cterm * hppp) * u_xx
            + dv * hpp
            - chain * hp
        )

        row = (K * nn + I).ravel()
        add(row, K, I, (-2.0) * a_tt / dt**2 + (-2.0) * a_xx / dx**2)
        add(row, K + 1, I, a_tt / dt**2 + a_t / (2 * dt))
        add(row, K - 1, I, a_tt / dt**2 - a_t / (2 * dt))
        add(row, K, IP, a_xx / dx**2 + a_x / (2 * dx))
        add(row, K, IM, a_xx / dx**2 - a_x / (2 * dx))
        add(row, K + 1, IP, a_tx / (4 * dt * dx))
        add(row, K - 1, IM, a_tx / (4 * dt * dx))
        add(row, K + 1, IM, -a_tx / (4 * dt * dx))
        add(row, K - 1, IP, -a_tx / (4 * dt * dx))

    # ----- time-boundary rows: k in {0, nt}, space-interior i -----
    # -u_t is the one-sided second-order difference into the domain (s = +-1)
    for k, s, m_data in ((0, 1, spec.m0_nodes), (nt, -1, spec.m1_nodes)):
        minus_ut = s * (3 * u[k, isp] - 4 * u[k + s, isp] + u[k + 2 * s, isp]) / (2 * dt)
        hb, hpb, _ = h_eval(H, (u[k, ip1] - u[k, im1]) / (2 * dx))
        data = C.f_eps(m_data[isp]) + Vn[isp]
        R[k, isp] = minus_ut + hb - data
        if with_jacobian:
            row = k * nn + isp
            add(row, k, isp, 3 * s / (2 * dt))
            add(row, k + s, isp, -2 * s / dt)
            add(row, k + 2 * s, isp, s / (2 * dt))
            add(row, k, ip1, hpb / (2 * dx))
            add(row, k, im1, -hpb / (2 * dx))

    # ----- lateral Neumann rows (interval): all k, i in {0, nn-1} -----
    if not periodic:
        kk = np.arange(nt + 1)
        for i0, s in ((0, 1), (nn - 1, -1)):
            R[kk, i0] = -s * (3 * u[kk, i0] - 4 * u[kk, i0 + s] + u[kk, i0 + 2 * s]) / (2 * dx)
            if with_jacobian:
                for off, c in ((0, -3), (1, 4), (2, -1)):
                    add(kk * nn + i0, kk, i0 + off * s, c * s / (2 * dx))

    R += kappa * _kappa_column(g)
    J = None
    if with_jacobian:
        n = (nt + 1) * nn
        J = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
    return R, J


def assemble_residual(u: PotentialField, spec: ProblemSpec,
                      kappa: float = 0.0) -> DualResidual:
    """PDE rows of the potential system at (u, kappa), split by row type."""
    _require_smooth(spec)
    R, _ = _assemble(u.values, spec, kappa, with_jacobian=False)
    g = spec.grid
    nt, nn = g.n_t, g.n_xnodes
    if g.periodic:
        interior = R[1:nt, :]
        boundary = np.stack([R[0, :], R[nt, :]])
        lateral = None
    else:
        interior = R[1:nt, 1 : nn - 1]
        boundary = np.stack([R[0, 1 : nn - 1], R[nt, 1 : nn - 1]])
        lateral = np.stack([R[:, 0], R[:, nn - 1]])
    return DualResidual(interior=interior, boundary=boundary, lateral=lateral)


def assemble_jacobian(u: PotentialField, spec: ProblemSpec) -> sp.csc_matrix:
    """Exact linearization in u of assemble_residual (node-flattened ordering)."""
    _require_smooth(spec)
    _, J = _assemble(u.values, spec, with_jacobian=True)
    return J


def m_from_u(u: PotentialField, spec: ProblemSpec) -> DensityField:
    """Recover the density from the potential: m = phi(-u_t + H(u_x) - V).

    Evaluated at (time-node, space-cell): u_t is a centered node difference
    (one-sided second order at t in {0,T}) averaged to cell centers, u_x the
    exact face difference of u.
    """
    _require_smooth(spec)
    g = spec.grid
    hval = h_eval(spec.hamiltonian, g.diff_x(u.values))[0]
    m = spec.coupling.phi(-g.avg_x(g.diff_t_nodes(u.values)) + hval - spec.V)
    return DensityField(g, m)


def _sup_bound_rhs(spec: ProblemSpec) -> float:
    C, Vn = spec.coupling, spec.V_nodes
    a = float(np.max(np.abs(C.f_eps(spec.m0_nodes) + Vn)))
    b = float(np.max(np.abs(C.f_eps(spec.m1_nodes) + Vn)))
    return a + b


def _newton_step(z, R, spec, e, ell) -> np.ndarray:
    """Newton step dz = (du, dkappa) at z = (u, kappa), given the flat PDE rows R.

    Solves J du + e dkappa = -R with the gauge ell . (u + du) = 0.  J is
    bordered by e and a row pinning the node of u(T) with the largest gauge
    weight, and the constant that keeps the gauge is added to du: the step
    bordered by ell itself differs only by a constant, the kernel of J.  A
    one-entry row leaves the fill of the factor as it is; ell, dense over
    u(T), adds about 10%.
    """
    u = z[:-1]
    _, J = _assemble(u.reshape(spec.grid.n_t + 1, -1), spec, z[-1], with_jacobian=True)
    pin = sp.csr_matrix(([1.0], ([0], [int(np.argmax(ell))])), shape=(1, e.size))
    # rebinding J frees the unbordered matrix before the factorization
    J = sp.bmat([[J, sp.csc_matrix(e[:, None])], [pin, None]], format="csc")
    step = spsolve(J, np.append(-R, 0.0))
    step[:-1] -= ell @ (u + step[:-1]) / ell.sum()
    return step


def _newton_stage(z, spec, cfg: DualConfig):
    """Damped Newton from z = (u, kappa) shifted into the gauge; returns
    (z, iters, residual), or raises DualSolveError naming the mesh."""
    g = spec.grid
    e, ell = _kappa_column(g).ravel(), _gauge_row(spec).ravel()
    z = np.append(z[:-1] - ell @ z[:-1] / ell.sum(), z[-1])

    def residual(z):
        R, _ = _assemble(z[:-1].reshape(g.n_t + 1, -1), spec, z[-1], with_jacobian=False)
        return R.ravel()

    R = residual(z)
    rnorm = float(np.max(np.abs(R)))
    it = 0
    while rnorm > cfg.newton_tol and it < cfg.max_newton_iters:
        step = _newton_step(z, R, spec, e, ell)
        t = 1.0
        for _ in range(30):
            z_try = z + t * step
            # a long trial step may overflow phi; non-finite residuals are rejected
            with np.errstate(over="ignore", invalid="ignore"):
                R_try = residual(z_try)
            r_try = float(np.max(np.abs(R_try)))
            if np.isfinite(r_try) and r_try <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:  # no trial step decreased the residual
            break
        z, R, rnorm = z_try, R_try, r_try
        it += 1
        if t * float(np.max(np.abs(step))) <= STEP_TOL:
            break
    if rnorm > cfg.newton_tol:
        raise DualSolveError(
            f"Newton stagnated on the {g.n_t}x{g.n_x} level; residual {rnorm:.3e}")
    return z, it, rnorm


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


def solve_dual(spec: ProblemSpec, cfg: DualConfig | None = None):
    """Nested-mesh damped Newton solve of the gauge-pinned potential system.

    Returns (u: PotentialField, m: DensityField, DualLog) with u in the gauge
    sum u(T) m1 dx = 0 and m = m_from_u(u).  Raises DualSolveError for
    eps <= 0 or naming the mesh level on which Newton failed.
    """
    _require_smooth(spec)
    cfg = cfg or DualConfig()
    log = DualLog()
    u, kappa = None, 0.0
    for lvl in _levels(spec):
        g = lvl.grid
        u = np.zeros((g.n_t + 1, g.n_xnodes)) if u is None else _prolong(u, g.periodic)
        # kappa carries over from the coarser level
        z, iters, resid = _newton_stage(np.append(u, kappa), lvl, cfg)
        u, kappa = z[:-1].reshape(g.n_t + 1, -1), float(z[-1])
        log.stages.append({
            "n_t": g.n_t,
            "n_x": g.n_x,
            "kappa": kappa,
            "newton_iters": iters,
            "residual": resid,
            "sup_bound_lhs": abs(kappa),
            "sup_bound_rhs": _sup_bound_rhs(lvl),
            "grad_sup": float(np.max(np.abs(np.diff(u, axis=1)))) / g.dx,
        })

    u = PotentialField(spec.grid, u)
    return u, m_from_u(u, spec), log

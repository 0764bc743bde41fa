"""A-priori estimate checks on solver output and the 1-D geodesic oracle.

``CHECKS`` maps each check's config name to its function, in the order
``mfplan verify`` runs them.  Every check takes ``(u, m, spec)`` and
``check_duality_gap`` also the primal state.  Each evaluates an exact
discrete formula (recorded in the result) against the solver fields and
reports {name, lhs, rhs, tolerance, pass} under its table key.  The
inequalities are exact only in the continuum, so the intended protocol
is Richardson-style: run a check at two resolutions and require any
violation to shrink at first order under grid halving.

The displacement interpolation oracle is deliberately independent of all
solver code: cumulative distributions by prefix sums, the monotone
quantile pairing shifted by a rotation theta (optimal on the torus, 0 on
an interval: one path for both), density by CDF inversion.
"""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

import numpy as np

from . import primal
from .functional import PrimalState, functional_value
from .grids import (DensityField, MomentumField, PotentialField, ProblemSpec,
                    SpaceTimeGrid, cells_to_nodes)
from .hamiltonian import h_eval


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    skipped: bool = False
    reason: str = ""
    formula: str = ""
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# discrete derivative helpers (cell-centered)
# ---------------------------------------------------------------------------

def _dx_cells(values: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Centered x-derivative of a cell field (one-sided first order at
    interval edges, which needs only two cells)."""
    if grid.periodic:
        return grid.diff_x_nodes(values)  # cell centers are spaced like the nodes
    return np.gradient(values, grid.dx, axis=-1)


def _hp_nodes(u_values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """H_p(D_x u) at the space nodes; zero on the lateral boundary (no flux)."""
    g = spec.grid
    hp = h_eval(spec.hamiltonian, g.diff_x_nodes(u_values))[1]
    hp[..., g.lateral] = 0.0
    return hp


# ---------------------------------------------------------------------------
# displacement convexity (d = 1)
# ---------------------------------------------------------------------------

def check_displacement_convexity(u: PotentialField, m: DensityField,
                                 spec: ProblemSpec) -> CheckResult:
    """Second difference of int U(m), U(m) = m^2, vs the convexity rhs.

    With P = U'm - U = m^2, at each interior node d^2/dt^2 int U(m) must dominate

        int (P'(m)m - P(m) + P(m)/d) [div H_p(Du)]^2
      + int P'(m) (f^eps)'(m) H_pp Dm.Dm  +  int P'(m) H_pp Dm.DV

    (d = 1; the coupling enters through f^eps = f + eps log, whose
    derivative f'(m) + eps/m absorbs the entropy term).
    """
    if spec.hamiltonian.q != 2.0:
        return CheckResult(
            "displacement_convexity", 0.0, 0.0, 0.0, True, skipped=True,
            reason="non-quadratic-growth Hamiltonian",
        )
    g = spec.grid
    mv = m.values
    energy = np.sum(mv**2, axis=1) * g.dx
    lhs = (energy[2:] - 2 * energy[1:-1] + energy[:-2]) / g.dt**2

    div_v = g.diff_x(_hp_nodes(u.values, spec))[1:-1]  # div H_p(Du) at the cells
    dm = _dx_cells(mv, g)[1:-1]
    dV = _dx_cells(spec.V, g)
    mi = mv[1:-1]
    hpp = h_eval(spec.hamiltonian, g.diff_x(u.values)[1:-1])[2]
    feps_prime = spec.coupling.f_prime(mi) + spec.coupling.epsilon / mi
    Pp = 2.0 * mi
    term1 = Pp * mi * div_v**2  # P'm - P + P/d = P'm with d = 1
    term2 = Pp * feps_prime * hpp * dm * dm
    term3 = Pp * hpp * dm * dV
    rhs = np.sum(term1 + term2 + term3, axis=1) * g.dx

    violation = float(np.max(np.maximum(rhs - lhs, 0.0)))
    tol = 10.0 * (g.dt + g.dx) * max(1.0, float(np.max(np.abs(rhs))))
    return CheckResult(
        name="displacement_convexity",
        lhs=float(np.min(lhs - rhs)),
        rhs=0.0,
        tolerance=tol,
        passed=violation <= tol,
        formula="(E[k+1]-2E[k]+E[k-1])/dt^2 >= sum((P'm-P+P) divHp^2 "
                "+ P' feps' Hpp Dm^2 + P' Hpp Dm DV) dx",
        details={"max_violation": violation,
                 "lhs_profile": lhs.tolist(), "rhs_profile": rhs.tolist()},
    )


# ---------------------------------------------------------------------------
# L^p machinery
# ---------------------------------------------------------------------------

def _lp_norm(row: np.ndarray, p: float, dx: float) -> float:
    if np.isinf(p):
        return float(np.max(row))
    return float((np.sum(row**p) * dx) ** (1.0 / p))


LP_EXPONENTS = (1.0, 2.0, 4.0, np.inf)


def check_lp_bounds(u: PotentialField, m: DensityField,
                    spec: ProblemSpec) -> CheckResult:
    """Empirical K0 (global bound) and K1 (interior envelope) per p.

    Global: sup_t ||m(t)||_p <= K0 (||m0||_p + ||m1||_p + 1).
    Local:  ||m(t)||_p <= K1 (t^-qp + (T-t)^-qp) on interior nodes with
    qp = d(p-1)/p (d = 1; qp = 1 for p = inf).
    """
    g = spec.grid
    hyp = spec.coupling.c0_r0
    t = g.t_nodes()
    results = {}
    ok = True
    for p in LP_EXPONENTS:
        if p != 1.0 and hyp is None:
            results[str(p)] = {"skipped": "no (c0, r0) hypothesis"}
            continue
        norms = np.array([_lp_norm(m.values[k], p, g.dx)
                          for k in range(g.n_t + 1)])
        denom = (_lp_norm(spec.m0, p, g.dx) + _lp_norm(spec.m1, p, g.dx) + 1.0)
        K0 = float(np.max(norms) / denom)
        qp = 1.0 if np.isinf(p) else (p - 1.0) / p
        interior = slice(1, g.n_t)
        envelope = t[interior] ** (-qp) + (g.T - t[interior]) ** (-qp)
        K1 = float(np.max(norms[interior] / envelope))
        entry = {"K0": K0, "K1": K1, "exponent": qp,
                 "sup_norm": float(np.max(norms))}
        results[str(p)] = entry
        ok = ok and np.isfinite(K0) and np.isfinite(K1) and K1 > 0
    return CheckResult(
        name="lp_bounds",
        lhs=max((v.get("K0", 0.0) for v in results.values()
                 if isinstance(v, dict)), default=0.0),
        # the check asks only that every constant be finite
        rhs=sys.float_info.max,
        tolerance=0.0,
        passed=ok,
        formula="K0 = sup_t ||m||_p/(||m0||_p+||m1||_p+1); "
                "K1 = sup_t ||m||_p/(t^-qp+(T-t)^-qp), qp = (p-1)/p",
        details=results,
    )


# ---------------------------------------------------------------------------
# local gradient estimate
# ---------------------------------------------------------------------------

def _theta_constant(spec: ProblemSpec) -> float:
    """theta with H_p.p >= (1+2 theta) H - c0 for some c0 (quadratic: 1/2)."""
    return (spec.hamiltonian.q - 1.0) / 2.0


def check_local_gradient_estimate(u: PotentialField, m: DensityField,
                                  spec: ProblemSpec) -> CheckResult:
    """Fit the barrier in theta*H(Du) + eps*log m <= L(t^-2+(T-t)^-2) + L0."""
    if not spec.coupling.f_zero:
        return CheckResult("local_gradient_estimate", 0.0, 0.0, 0.0, True,
                           skipped=True, reason="requires f = 0")
    g = spec.grid
    theta = _theta_constant(spec)
    hval = h_eval(spec.hamiltonian, g.diff_x(u.values))[0]
    profile = np.max(theta * hval + spec.coupling.epsilon * np.log(m.values),
                     axis=1)
    t = g.t_nodes()
    L0 = float(profile[g.n_t // 2])
    interior = slice(1, g.n_t)
    barrier = t[interior] ** (-2.0) + (g.T - t[interior]) ** (-2.0)
    L = float(np.max(np.maximum(profile[interior] - L0, 0.0) / barrier))
    dominated = bool(np.all(profile[interior] <= L * barrier + L0 + 1e-9))
    return CheckResult(
        name="local_gradient_estimate",
        lhs=float(np.max(profile[interior])),
        rhs=L0 + L * float(np.min(barrier)),
        tolerance=1e-9,
        passed=dominated and np.isfinite(L),
        formula="max_x theta H(Du)+eps log m <= L(t^-2+(T-t)^-2)+L0, "
                f"theta={theta}",
        details={"L": L, "L0": L0, "theta": theta,
                 "profile": profile.tolist()},
    )


# ---------------------------------------------------------------------------
# energy identity
# ---------------------------------------------------------------------------

def check_energy_identity(u: PotentialField, m: DensityField,
                          spec: ProblemSpec) -> CheckResult:
    """int u(T)m(T) - int u(0)m(0) = -intint m[H_p.Du - H] - intint (f^eps(m)+V)m.

    Space integrals over cells, time integral by the trapezoid rule.
    """
    g = spec.grid
    u_c = g.avg_x(u.values)
    mv = m.values
    lhs = float(np.sum(u_c[-1] * mv[-1]) * g.dx - np.sum(u_c[0] * mv[0]) * g.dx)
    du = g.diff_x(u.values)
    hval, hp, _ = h_eval(spec.hamiltonian, du)
    density = -mv * (hp * du - hval) - (spec.coupling.f_eps(mv) + spec.V) * mv
    space = np.sum(density, axis=1) * g.dx
    rhs = float(np.trapezoid(space, dx=g.dt))
    gap = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
    tol = 10.0 * (g.dt + g.dx)
    return CheckResult(
        name="energy_identity",
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        passed=gap <= tol,
        formula="int u(T)m(T)-int u(0)m(0) = -intint m(Hp.Du-H) "
                "- intint (f^eps(m)+V)m  [trapezoid in t]",
        details={"relative_gap": gap},
    )


# ---------------------------------------------------------------------------
# maximum principle for u_t
# ---------------------------------------------------------------------------

def check_ut_max_principle(u: PotentialField, m: DensityField,
                           spec: ProblemSpec) -> CheckResult:
    """Interior max |D_t u| bounded by the t in {0,T} max plus O(dt+dx) slack."""
    g = spec.grid
    ut = np.abs(g.diff_t_nodes(u.values))
    lhs = float(np.max(ut[1:-1]))
    rhs = float(np.max(ut[[0, -1]]))
    slack = 10.0 * (g.dt + g.dx)
    return CheckResult(
        name="maximum_principle_ut",
        lhs=lhs,
        rhs=rhs,
        tolerance=slack,
        passed=lhs <= rhs + slack,
        formula="max interior |D_t u| <= max boundary |D_t u| + 10(dt+dx)",
    )


# ---------------------------------------------------------------------------
# 1-D displacement interpolation oracle (independent of the solvers)
# ---------------------------------------------------------------------------

def _cdf_edges(density: np.ndarray, dx: float) -> np.ndarray:
    F = np.concatenate([[0.0], np.cumsum(density) * dx])
    F /= F[-1]
    F[-1] = 1.0
    return F


def _level_grid(n_x: int, *cdfs: np.ndarray) -> np.ndarray:
    """Dense quantile levels enriched with the CDF breakpoints.

    Including the breakpoints makes the piecewise-linear quantiles exact on
    the grid, so inverting the interpolated map reproduces the endpoint
    densities to rounding.
    """
    parts = [np.linspace(0.0, 1.0, 64 * n_x + 1)]
    for F in cdfs:
        parts.append(np.mod(F, 1.0))
    s = np.unique(np.concatenate(parts))
    return np.clip(s, 0.0, 1.0)


def _extended_quantile(s, F, edges, L):
    """Quantile of a circle density lifted to the line: Q(s+k) = Q(s)+kL."""
    k = np.floor(s)
    frac = s - k
    return np.interp(frac, F, edges) + k * L


def _golden_section(cost, a: float, b: float, tol: float) -> float:
    """Minimizer of a unimodal cost on [a, b], to within tol."""
    r = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a > tol:
        if fc < fd:  # the minimizer lies in [a, d]
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = cost(d)
    return 0.5 * (a + b)


def _oracle(m0, m1, grid: SpaceTimeGrid) -> np.ndarray:
    L = grid.length
    edges = grid.x_min + np.arange(grid.n_x + 1) * grid.dx
    F0 = _cdf_edges(m0, grid.dx)
    F1 = _cdf_edges(m1, grid.dx)
    n_s = 64 * grid.n_x
    s = (np.arange(n_s) + 0.5) / n_s
    q0 = np.interp(s, F0, edges)  # the quantile of m0 does not move with theta

    def cost(theta):
        d = q0 - _extended_quantile(s + theta, F1, edges, L)
        return float(np.mean(d * d))

    # circular transport: optimal rotation of the quantile pairing; on an
    # interval the pairing is the plain monotone one
    theta = _golden_section(cost, -1.0, 1.0, 1e-13) if grid.periodic else 0.0

    s_dense = _level_grid(grid.n_x, F0, F1 - theta)
    Q0 = np.interp(s_dense, F0, edges)
    Q1s = _extended_quantile(s_dense + theta, F1, edges, L)
    out = np.empty((grid.n_t + 1, grid.n_x))
    for k, t in enumerate(grid.t_nodes()):
        lam = t / grid.T
        X = (1.0 - lam) * Q0 + lam * Q1s  # monotone, X(1) = X(0) + L
        # wrap the line-valued map back to the circle cell by cell (on an
        # interval only branch 0 meets the cells)
        shift = np.floor((X[0] - grid.x_min) / L)
        lo = grid.x_min + shift * L
        masses = np.zeros(grid.n_x)
        for branch in (-1.0, 0.0, 1.0):
            e = (edges - grid.x_min) + lo + branch * L
            Sv = np.interp(e, X, s_dense, left=0.0, right=1.0)
            masses += np.diff(Sv)
        out[k] = masses / grid.dx
    return out


def geodesic_oracle_1d(m0: np.ndarray, m1: np.ndarray,
                       grid: SpaceTimeGrid) -> DensityField:
    """Displacement interpolation between two positive cell densities.

    CDFs by prefix sums, the monotone quantile pairing shifted by a
    rotation theta, densities by inverting the interpolated quantile at the
    cell edges.  On the torus theta is the optimal rotation (Delon, Salomon
    & Sobolevski 2010); on an interval it is 0, so the same path gives the
    plain monotone map.  On both topologies the pair is processed in a
    canonical order, so that swapping (m0, m1) is exactly time reversal.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    if np.any(m0 <= 0) or np.any(m1 <= 0):
        raise ValueError("oracle needs strictly positive densities")
    if m0.tobytes() > m1.tobytes():  # the canonical order is m0 <= m1
        rev = geodesic_oracle_1d(m1, m0, grid)
        return DensityField(grid, rev.values[::-1])
    return DensityField(grid, _oracle(m0, m1, grid))


# ---------------------------------------------------------------------------
# eps sweep and duality gap; the table of checks
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    eps_list: list
    errors: list
    converged: list
    floor: float
    passed: bool


def eps_sweep(spec: ProblemSpec, eps_list, cfg=None) -> SweepReport:
    """Solve the primal problem per eps (f = 0 only) and compare to the oracle.

    e(eps) = max_t L1 distance between the solve and the displacement
    interpolation along the strictly decreasing eps_list; passes iff e is
    nonincreasing down to the floor 0.25*dx.
    """
    if not len(eps_list) or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps_list must be non-empty and strictly decreasing: {eps_list}")
    if not spec.coupling.f_zero:
        raise ValueError("eps_sweep compares with the f = 0 oracle: needs f = 0")
    g = spec.grid
    oracle = geodesic_oracle_1d(spec.m0, spec.m1, g)
    errors, converged = [], []
    for eps in eps_list:
        spec_eps = dataclasses.replace(
            spec, coupling=dataclasses.replace(spec.coupling, epsilon=float(eps))
        )
        state, log = primal.solve_primal(spec_eps, cfg)
        err = float(np.max(np.sum(np.abs(state.m.values - oracle.values), axis=1)
                           * g.dx))
        errors.append(err)
        converged.append(bool(log.converged))
    floor = 0.25 * g.dx
    mono = all(errors[i + 1] <= errors[i] + floor for i in range(len(errors) - 1))
    return SweepReport(
        eps_list=[float(e) for e in eps_list],
        errors=errors,
        converged=converged,
        floor=floor,
        passed=mono and all(converged),
    )


def dual_as_primal_state(u: PotentialField, m: DensityField,
                         spec: ProblemSpec) -> PrimalState:
    """Rebuild (m, w = m H_p(Du)) on the staggered grid from the dual fields."""
    g = spec.grid
    w = cells_to_nodes(g.avg_t(m.values), g) * _hp_nodes(g.avg_t(u.values), spec)
    return PrimalState(m, MomentumField(g, w))


def duality_gap(primal_state: PrimalState, u: PotentialField,
                m_dual: DensityField, spec: ProblemSpec) -> float:
    """|J(primal) - J(dual rebuilt as (m, m H_p(Du)))| / (1 + |J(primal)|)."""
    if primal_state.grid != spec.grid or u.grid != spec.grid:
        raise ValueError("grid mismatch between solves")
    jp = functional_value(primal_state, spec)
    jd = functional_value(dual_as_primal_state(u, m_dual, spec), spec)
    return abs(jp - jd) / (1.0 + abs(jp))


def check_duality_gap(u: PotentialField, m: DensityField, spec: ProblemSpec,
                      primal_state: PrimalState) -> CheckResult:
    """duality_gap of the two solves, gated at a fixed 1e-3.

    The number is a discretization difference between the primal solve and
    the dual one rebuilt on the staggered grid, not a duality gap: it does
    not shrink to the solver tolerance, and congestion at 64x64 converges
    in both solvers yet exceeds the gate (CHANGES.md FOUND; ROADMAP item 7
    replaces it with a discrete duality certificate).
    """
    gap = duality_gap(primal_state, u, m, spec)
    return CheckResult(
        name="duality_gap", lhs=gap, rhs=0.0, tolerance=1e-3,
        passed=gap <= 1e-3,
        formula="|J(primal)-J(dual rebuild)|/(1+|J(primal)|)",
    )


# the order in which `mfplan verify` runs and reports them
CHECKS = {
    "displacement_convexity": check_displacement_convexity,
    "lp_bounds": check_lp_bounds,
    "local_gradient_estimate": check_local_gradient_estimate,
    "energy_identity": check_energy_identity,
    "duality_gap": check_duality_gap,
    "maximum_principle_ut": check_ut_max_principle,
}

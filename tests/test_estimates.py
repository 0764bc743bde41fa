import numpy as np
import pytest

from mfplan.dual import solve_dual
from mfplan.estimates import (
    check_displacement_convexity,
    check_energy_identity,
    check_local_gradient_estimate,
    check_lp_bounds,
    check_ut_max_principle,
    dual_as_primal_state,
    duality_gap,
    eps_sweep,
    geodesic_oracle_1d,
)
from mfplan.functional import continuity_residual
from mfplan.grids import (
    DensityField,
    PotentialField,
    ProblemSpec,
    SpaceTimeGrid,
)
from mfplan.hamiltonian import CouplingSpec, HamiltonianSpec
from mfplan.primal import PrimalConfig, solve_primal

from conftest import make_bump_spec

QUAD_H = HamiltonianSpec()


def _gauss(x, mu, sd):
    v = np.exp(-0.5 * ((x - mu) / sd) ** 2)
    return v / np.sum(v)


def _torus_bump(x, center, width, floor, dx):
    d = np.minimum(np.abs(x - center), 1.0 - np.abs(x - center))
    v = np.exp(-0.5 * (d / width) ** 2) + floor
    return v / (np.sum(v) * dx)


# ---------------------------------------------------------------------------
# geodesic oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_oracle_identity_pair(topology):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 8, 32, topology)
    m0 = _torus_bump(g.x_cells(), 0.4, 0.1, 0.3, g.dx)
    orc = geodesic_oracle_1d(m0, m0, g)
    # equal marginals: the interpolation is constant in time
    assert np.max(np.abs(orc.values - m0)) <= 1e-10


def test_oracle_interval_translation():
    # equal-variance gaussians: displacement interpolation is a translation
    n = 64
    g = SpaceTimeGrid(1.0, -3.0, 3.0, n, n)
    x = g.x_cells()
    m0 = _gauss(x, -0.7, 0.35) / g.dx
    m1 = _gauss(x, 0.7, 0.35) / g.dx
    orc = geodesic_oracle_1d(m0, m1, g)
    mid = _gauss(x, 0.0, 0.35) / g.dx
    assert np.max(np.abs(orc.values[n // 2] - mid)) <= 2 * g.dx


def test_oracle_interval_gaussian_width_change():
    # OT between gaussians interpolates the standard deviation linearly
    n = 64
    g = SpaceTimeGrid(1.0, -3.0, 3.0, n, n)
    x = g.x_cells()
    m0 = _gauss(x, -0.8, 0.35) / g.dx
    m1 = _gauss(x, 0.9, 0.55) / g.dx
    orc = geodesic_oracle_1d(m0, m1, g)
    mid = _gauss(x, 0.05, 0.45) / g.dx
    assert np.max(np.abs(orc.values[n // 2] - mid)) <= 2 * g.dx


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_oracle_swap_is_time_reversal(topology):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 6, 32, topology)
    x = g.x_cells()
    m0 = _torus_bump(x, 0.25, 0.12, 0.2, g.dx)
    m1 = _torus_bump(x, 0.55, 0.18, 0.4, g.dx)
    fwd = geodesic_oracle_1d(m0, m1, g)
    bwd = geodesic_oracle_1d(m1, m0, g)
    assert np.max(np.abs(fwd.values - bwd.values[::-1])) == 0.0


def test_oracle_torus_rotation_covariance():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 6, 32, "torus")
    x = g.x_cells()
    m0 = _torus_bump(x, 0.25, 0.12, 0.2, g.dx)
    m1 = _torus_bump(x, 0.55, 0.18, 0.4, g.dx)
    base = geodesic_oracle_1d(m0, m1, g)
    shift = 9
    rolled = geodesic_oracle_1d(np.roll(m0, shift), np.roll(m1, shift), g)
    assert np.max(np.abs(np.roll(base.values, shift, axis=1)
                         - rolled.values)) <= 1e-4


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_oracle_mass_and_endpoints(topology):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 8, 48, topology)
    x = g.x_cells()
    m0 = _torus_bump(x, 0.3, 0.1, 0.25, g.dx)
    m1 = _torus_bump(x, 0.6, 0.14, 0.25, g.dx)
    orc = geodesic_oracle_1d(m0, m1, g)
    masses = np.sum(orc.values, axis=1) * g.dx
    assert np.max(np.abs(masses - 1.0)) <= 1e-10
    # endpoint slices reproduce the data up to the CDF-inversion smoothing
    assert np.sum(np.abs(orc.values[0] - m0)) * g.dx <= g.dx
    assert np.sum(np.abs(orc.values[-1] - m1)) * g.dx <= g.dx


def test_oracle_deterministic():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 6, 32, "torus")
    x = g.x_cells()
    m0 = _torus_bump(x, 0.25, 0.12, 0.2, g.dx)
    m1 = _torus_bump(x, 0.5, 0.12, 0.2, g.dx)
    a = geodesic_oracle_1d(m0, m1, g)
    b = geodesic_oracle_1d(m0, m1, g)
    assert a.values.tobytes() == b.values.tobytes()


def test_oracle_rejects_vacuum():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    m = np.ones(8)
    bad = m.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError):
        geodesic_oracle_1d(bad, m, g)


# ---------------------------------------------------------------------------
# displacement convexity
# ---------------------------------------------------------------------------

def test_displacement_convexity_linear_family_exact(solves):
    # U(r) = r turns both sides into mass derivatives: identically zero
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    # the dual-recovered density conserves mass to ~1e-9; the second time
    # difference divides by dt^2, so allow that amplification
    res = check_displacement_convexity(u, m, spec, u_family="linear",
                                       u_param=0.0, tol_disc=1e-6)
    assert res.passed
    assert res.details["max_violation"] <= 1e-6
    assert max(abs(r) for r in res.details["rhs_profile"]) == 0.0


@pytest.mark.parametrize("name", ["gibbs", "congestion", "bump"])
def test_displacement_convexity_benchmarks(name, solves):
    spec = solves.spec(name, 16)
    u, m, _ = solves.dual(name, 16)
    res = check_displacement_convexity(u, m, spec)
    assert res.passed
    assert not res.skipped
    assert "lhs_profile" in res.details


def test_displacement_convexity_other_families(solves):
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    for family, param in (("power", 3.0), ("quadratic-above-level", 0.5)):
        res = check_displacement_convexity(u, m, spec, u_family=family,
                                           u_param=param)
        assert res.passed
    with pytest.raises(ValueError):
        check_displacement_convexity(u, m, spec, u_family="power", u_param=1.5)


def test_displacement_convexity_skips_nonquadratic():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    u = np.ones(8)
    spec = ProblemSpec(g, u, u, np.zeros(8),
                       HamiltonianSpec(family="power", q=3.0, varpi=0.5),
                       CouplingSpec(epsilon=0.5))
    m = DensityField(g, np.ones((5, 8)))
    pot = PotentialField(g, np.zeros((5, 9)))
    res = check_displacement_convexity(pot, m, spec)
    assert res.skipped and res.passed


# ---------------------------------------------------------------------------
# other checks
# ---------------------------------------------------------------------------

def test_energy_identity_gibbs_near_exact(solves):
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    res = check_energy_identity(u, m, spec)
    assert res.passed
    assert res.details["relative_gap"] <= 1e-8


def test_energy_identity_first_order(solves):
    gaps = []
    for n in (16, 32):
        spec = solves.spec("congestion", n)
        u, m, _ = solves.dual("congestion", n)
        res = check_energy_identity(u, m, spec)
        assert res.passed
        gaps.append(res.details["relative_gap"])
    assert gaps[1] <= 0.75 * gaps[0]


@pytest.mark.parametrize("name", ["gibbs", "congestion", "bump"])
def test_ut_max_principle_benchmarks(name, solves):
    spec = solves.spec(name, 16)
    u, m, _ = solves.dual(name, 16)
    res = check_ut_max_principle(u, m, spec)
    assert res.passed
    assert res.lhs <= res.rhs + res.tolerance


def test_local_gradient_estimate(solves):
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    res = check_local_gradient_estimate(u, m, spec)
    assert res.passed and not res.skipped
    assert np.isfinite(res.details["L"])
    # requires f = 0
    spec_c = solves.spec("congestion", 16)
    uc, mc, _ = solves.dual("congestion", 16)
    res_c = check_local_gradient_estimate(uc, mc, spec_c)
    assert res_c.skipped and res_c.passed


def test_lp_bounds_p1_exact(solves):
    # every slice has unit mass, so K0 for p = 1 is exactly 1/3
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    res = check_lp_bounds(u, m, spec)
    assert res.passed
    assert res.details["1.0"]["K0"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    # zero coupling carries no (c0, r0) hypothesis for p > 1
    assert "skipped" in res.details["2.0"]


def test_lp_bounds_with_coupling(solves):
    spec = solves.spec("congestion", 16)
    u, m, _ = solves.dual("congestion", 16)
    res = check_lp_bounds(u, m, spec)
    assert res.passed
    for p in ("1.0", "2.0", "4.0", "inf"):
        entry = res.details[p]
        assert np.isfinite(entry["K0"]) and entry["K1"] > 0.0
    assert res.details["2.0"]["exponent"] == 0.5
    assert res.details["inf"]["exponent"] == 1.0


# ---------------------------------------------------------------------------
# duality gap and eps sweep
# ---------------------------------------------------------------------------

def test_duality_gap_gibbs(solves):
    spec = solves.spec("gibbs", 16)
    state, _ = solves.primal("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    assert duality_gap(state, u, m, spec) <= 1e-8


def test_duality_gap_decreases(solves):
    gaps = []
    for n in (16, 32):
        spec = solves.spec("bump", n)
        state, _ = solves.primal("bump", n)
        u, m, _ = solves.dual("bump", n)
        gaps.append(duality_gap(state, u, m, spec))
    assert gaps[1] < gaps[0]


def test_dual_as_primal_state_feasibility(solves):
    # the rebuilt staggered state satisfies continuity at first order
    spec = solves.spec("gibbs", 16)
    u, m, _ = solves.dual("gibbs", 16)
    state = dual_as_primal_state(u, m, spec)
    r = continuity_residual(state, spec)
    assert np.max(np.abs(r)) <= spec.grid.dt + spec.grid.dx


def test_eps_sweep_small():
    # at this coarse resolution the eps = 0 error is dominated by the
    # discretization, so the mini-sweep stops at eps = 0.1; the acceptance
    # suite runs the full sweep to eps = 0 at 64x64
    spec = make_bump_spec(16, eps=0.4)
    report = eps_sweep(spec, [0.4, 0.1])
    assert report.passed
    assert all(report.converged)
    assert report.errors[-1] <= report.errors[0] + report.floor
    assert report.floor == pytest.approx(0.25 * spec.grid.dx)

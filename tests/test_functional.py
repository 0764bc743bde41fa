import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from mfplan import functional, primal
from mfplan.functional import (
    PrimalState,
    continuity_residual,
    functional_value,
    integrand,
    prox_block,
    prox_cell,
    prox_predict,
)
from mfplan.grids import DensityField, MomentumField, ProblemSpec, SpaceTimeGrid
from mfplan.hamiltonian import (
    CouplingSpec,
    HamiltonianSpec,
    Scratch,
    kinetic_density,
    legendre_L,
)

from conftest import make_bump_spec, make_congestion_spec, make_gibbs_spec, make_power_spec

QUAD_H = HamiltonianSpec()


def _uniform_spec(eps=1.0, n_t=4, n_x=8):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, n_t, n_x)
    u = np.ones(n_x)
    return ProblemSpec(g, u, u, np.zeros(n_x), QUAD_H, CouplingSpec(epsilon=eps))


def _state(spec, m, w):
    return PrimalState(DensityField(spec.grid, m), MomentumField(spec.grid, w))


def _rest_state(spec):
    g = spec.grid
    m = np.tile(spec.m0, (g.n_t + 1, 1))
    w = np.zeros((g.n_t, g.n_faces))
    return _state(spec, m, w)


def test_uniform_rest_value():
    # m = 1, w = 0 on the unit square with eps = 1: only the entropy term,
    # m(log m - 1) = -1, so J = -1.
    spec = _uniform_spec(eps=1.0)
    assert functional_value(_rest_state(spec), spec) == pytest.approx(-1.0,
                                                                      abs=1e-14)


def test_vacuum_rest_is_finite_vacuum_motion_infinite():
    spec = _uniform_spec(eps=0.0)
    g = spec.grid
    m = np.zeros((g.n_t + 1, g.n_x))
    w = np.zeros((g.n_t, g.n_faces))
    assert functional_value(_state(spec, m, w), spec) == 0.0
    w2 = w.copy()
    w2[:, 2] = 1.0
    assert functional_value(_state(spec, m, w2), spec) == math.inf


def test_negative_density_infinite():
    spec = _uniform_spec()
    g = spec.grid
    m = np.ones((g.n_t + 1, g.n_x))
    # the objective lives on time-centered averages, so the node value must
    # drag the adjacent centered densities negative
    m[1, 3] = -3.0
    w = np.zeros((g.n_t, g.n_faces))
    assert functional_value(_state(spec, m, w), spec) == math.inf


def test_gibbs_rest_value_closed_form():
    # for m = e^{-V/eps}/Z at rest, eps m(log m - 1) + V m = -eps(log Z + 1) m,
    # so J = -eps (log Z_disc + 1) with the discrete normalizer Z_disc.
    spec = make_gibbs_spec(16)
    eps = spec.coupling.epsilon
    g = spec.grid
    z_disc = float(np.sum(np.exp(-spec.V / eps)) * g.dx)
    expect = -eps * (math.log(z_disc) + 1.0)
    got = functional_value(_rest_state(spec), spec)
    assert got == pytest.approx(expect, abs=1e-12)
    # the continuum counterpart (gaussian normalizer) is close at this size
    z_cont = quad(lambda x: math.exp(-0.5 * x**2 / eps), -2.0, 2.0)[0]
    assert got == pytest.approx(-eps * (math.log(z_cont) + 1.0), abs=5e-3)


def test_centering_shapes():
    # the functional averages the density to time cells with the grid's avg_t
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 5)
    m = np.arange(20.0).reshape(4, 5)
    assert g.avg_t(m).shape == (3, 5)


def test_continuity_residual_zero_cases():
    spec = _uniform_spec()
    r = continuity_residual(_rest_state(spec), spec)
    assert r.shape == (4, 8)
    assert np.max(np.abs(r)) == 0.0


def test_continuity_residual_constructed():
    # m(t, x) grows linearly in t; w chosen so the discrete law holds exactly
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 2, 4)
    m0 = np.array([0.5, 1.5, 1.5, 0.5])
    m1 = np.array([1.5, 0.5, 0.5, 1.5])
    spec = ProblemSpec(g, m0, m1, np.zeros(4), QUAD_H, CouplingSpec(epsilon=0.5))
    lam = np.linspace(0.0, 1.0, 3)[:, None]
    m = (1 - lam) * spec.m0 + lam * spec.m1
    # w must satisfy (w_{i+1} - w_i)/dx = (m^{k+1}_i - m^k_i)/dt with w_0 = 0
    w = np.zeros((2, 5))
    dm = (m[1:] - m[:-1]) / g.dt
    w[:, 1:] = np.cumsum(dm, axis=1) * g.dx
    assert np.max(np.abs(w[:, -1])) <= 1e-12  # closes because masses match
    r = continuity_residual(_state(spec, m, w), spec)
    assert np.max(np.abs(r)) <= 1e-13


def test_continuity_residual_matrix_oracle(rng):
    # independent dense re-derivation of the residual as a linear operator
    for topology in ("interval-neumann", "torus"):
        g = SpaceTimeGrid(1.3, -1.0, 2.0, 3, 6, topology)
        u = np.ones(6) / 3.0
        spec = ProblemSpec(g, u, u, np.zeros(6), QUAD_H, CouplingSpec())
        m = rng.random((4, 6)) + 0.5
        m[0], m[-1] = spec.m0, spec.m1
        w = rng.standard_normal((3, g.n_faces))
        if not g.periodic:
            w[:, 0] = w[:, -1] = 0.0
        r = continuity_residual(_state(spec, m, w), spec)
        expect = np.empty((3, 6))
        for k in range(3):
            for i in range(6):
                wl = w[k, i]
                wr = w[k, (i + 1) % 6] if g.periodic else w[k, i + 1]
                expect[k, i] = (m[k + 1, i] - m[k, i]) / g.dt - (wr - wl) / g.dx
        assert np.max(np.abs(r - expect)) <= 1e-14


def test_integrand_perspective_convention():
    spec = _uniform_spec(eps=0.0)
    vals = integrand(np.array([[0.0]]), np.array([[0.0]]), spec)
    # F and entropy vanish at m = 0 and kinetic 0 at (0, 0)
    assert float(vals[0, 0]) == 0.0


# ---------------------------------------------------------------------------
# cell prox
# ---------------------------------------------------------------------------

C_ENT = CouplingSpec(epsilon=0.1)

# one quadratic H and the form scale/2 (p^2 + varpi^2)^{q/2} across its
# regimes: smooth, soft (q < 2), flat at the origin (q > 2, varpi = 0) and
# singular at the origin (q < 2, varpi = 0); the prox tests run every one
EVERY_H = [
    QUAD_H,
    HamiltonianSpec(q=2.5, varpi=0.5, scale=2.0),
    HamiltonianSpec(q=1.5, varpi=0.1, scale=2.0),
    HamiltonianSpec(q=3.0, varpi=0.0, scale=2.0),
    HamiltonianSpec(q=1.5, varpi=0.0, scale=2.0),
]


def _prox_nested(mbar, wbar, sigma, V, hamiltonian, coupling):
    """Reference cell prox by nested bounded 1-D minimization over (m, w)."""
    eps = coupling.epsilon

    def inner(m):
        # min over w of m L(w/m) + (w - wbar)^2 / (2 sigma)
        if m <= 0.0:
            return 0.0, wbar * wbar / (2.0 * sigma)
        lo, hi = min(0.0, wbar), max(0.0, wbar)
        if lo == hi:
            return wbar, m * legendre_L(hamiltonian, wbar / m)
        res = minimize_scalar(
            lambda w: m * legendre_L(hamiltonian, w / m)
            + (w - wbar) ** 2 / (2.0 * sigma),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.x), float(res.fun)

    def outer(m):
        _, kin = inner(m)
        ent = 0.0 if m == 0.0 else m * (math.log(m) - 1.0)
        return (
            kin
            + eps * ent
            + V * m
            + float(coupling.F(m))
            + (m - mbar) ** 2 / (2.0 * sigma)
        )

    m_hi = abs(mbar) + abs(wbar) + 10.0 * sigma + 10.0
    res = minimize_scalar(outer, bounds=(0.0, m_hi), method="bounded",
                          options={"xatol": 1e-12})
    m_opt = float(res.x)
    if eps == 0.0 and outer(0.0) <= res.fun:
        return 0.0, 0.0
    w_opt, _ = inner(m_opt)
    return m_opt, float(w_opt)


def _h_and_hp(H, p):
    # H and H_p by their formulas, finite at p = 0 for every q > 1
    s, r2 = 0.5 * H.scale, p * p + H.varpi**2
    if r2 == 0.0:
        return 0.0, 0.0
    return s * r2 ** (H.q / 2), s * H.q * p * r2 ** (H.q / 2 - 1)


def test_prox_small_sigma_near_identity():
    m, w = prox_cell(1.0, 0.0, 1e-8, 0.0, QUAD_H, C_ENT)
    assert m == pytest.approx(1.0, abs=1e-6)
    assert w == 0.0


def test_prox_zero_momentum_stays_zero():
    for mbar in (0.3, 1.0, 4.0):
        m, w = prox_cell(mbar, 0.0, 0.5, 0.2, QUAD_H, C_ENT)
        assert w == 0.0
        assert m > 0.0


def test_prox_against_grid_oracle():
    # brute-force 2-D minimization of the cell objective
    mbar, wbar, sigma, V = 2.0, 1.0, 0.5, 0.3

    def obj(H, mm, ww):
        mm, ww = np.broadcast_arrays(mm, ww)
        return (kinetic_density(H, mm, ww)
                + C_ENT.epsilon * mm * (np.log(mm) - 1.0) + V * mm
                + (mm - mbar) ** 2 / (2 * sigma) + (ww - wbar) ** 2 / (2 * sigma))

    for H in EVERY_H:
        m, w = prox_cell(mbar, wbar, sigma, V, H, C_ENT)
        ms = np.linspace(max(m - 0.05, 1e-6), m + 0.05, 401)
        ws = np.linspace(w - 0.05, w + 0.05, 401)
        vals = obj(H, ms[:, None], ws[None, :])
        k = np.unravel_index(np.argmin(vals), vals.shape)
        assert abs(ms[k[0]] - m) <= 1e-3, H
        assert abs(ws[k[1]] - w) <= 1e-3, H
        assert float(obj(H, m, w)) <= vals[k] + 1e-12, H


@pytest.mark.parametrize("coupling", [
    C_ENT,
    CouplingSpec(epsilon=0.5, c=1.0, a=1.0),
    CouplingSpec(epsilon=0.0, c=0.5, a=2.0),
    CouplingSpec(epsilon=0.2, c=0.3),
])
def test_prox_kkt_residual(coupling, rng):
    # stationarity of the (w-eliminated) objective at the returned point:
    # with p = (wbar - w)/sigma, w = m H_p(p) and the m-gradient is -H(p) + ...
    for H in EVERY_H:
        for _ in range(20):
            mbar = rng.uniform(-1.0, 4.0)
            wbar = rng.uniform(-3.0, 3.0)
            sigma = rng.uniform(0.1, 2.0)
            V = rng.uniform(-1.0, 1.0)
            m, w = prox_cell(mbar, wbar, sigma, V, H, coupling)
            assert m >= 0.0
            h, hp = _h_and_hp(H, (wbar - w) / sigma)
            assert w == pytest.approx(m * hp, abs=1e-10), H
            if m > 0.0:
                grad = (-h + coupling.epsilon * math.log(m)
                        + V + float(coupling.f(m)) + (m - mbar) / sigma)
                if coupling.epsilon == 0.0 and m < 1e-250:
                    continue
                assert abs(grad) <= 1e-9 * max(1.0, abs(V) + abs(mbar) / sigma
                                               + wbar**2 / sigma**2), H


# the log branch through the entropy and through a log coupling, and the
# eps = 0 corner branch
WARM_COUPLINGS = [
    C_ENT,
    CouplingSpec(epsilon=0.0, c=0.3),
    CouplingSpec(epsilon=0.0, c=0.5, a=2.0),
]


@pytest.mark.parametrize("coupling", WARM_COUPLINGS)
@pytest.mark.parametrize("H", EVERY_H[:2])
def test_prox_block_matches_scalar(H, coupling, rng):
    mbar = rng.uniform(0.0, 3.0, size=(3, 4))
    wbar = rng.standard_normal((3, 4))
    V = rng.uniform(-1.0, 1.0, size=4)
    m, w = prox_block(mbar, wbar, 0.7, V, H, coupling)
    assert m.shape == w.shape == mbar.shape
    for k in range(3):
        for i in range(4):
            ms, ws = prox_cell(mbar[k, i], wbar[k, i], 0.7, V[i], H, coupling)
            # each cell takes the same Newton iterates in the block as alone
            assert abs(m[k, i] - ms) <= 1e-9
            assert abs(w[k, i] - ws) <= 1e-9


def _prox_inputs(rng, n=60):
    return (rng.uniform(-1.0, 4.0, n), rng.uniform(-3.0, 3.0, n),
            rng.uniform(-1.0, 1.0, n))


def _count_grad_evals(monkeypatch) -> list:
    evals = []
    reduced_gradient = functional._reduced_gradient

    def counted(*args):
        evals.append(1)
        return reduced_gradient(*args)

    monkeypatch.setattr(functional, "_reduced_gradient", counted)
    return evals


@pytest.mark.parametrize("coupling", WARM_COUPLINGS)
@pytest.mark.parametrize("H", EVERY_H[:2])
def test_prox_warm_start_at_output_converges_at_once(coupling, H, rng, monkeypatch):
    mbar, wbar, V = _prox_inputs(rng)
    m, w = prox_block(mbar, wbar, 0.7, V, H, coupling)
    evals = _count_grad_evals(monkeypatch)
    m_warm, w_warm = prox_block(mbar, wbar, 0.7, V, H, coupling, m)
    assert len(evals) == 1
    np.testing.assert_allclose(m_warm, m, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(w_warm, w, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("coupling", WARM_COUPLINGS)
def test_prox_warm_start_matches_cold(coupling, rng):
    # zero, tiny, large and beyond-the-bracket starts.  The reduced objective
    # has curvature >= 1/sigma, so two points that both meet the KKT bound of
    # test_prox_kkt_residual lie within 2 sigma times that bound of each other
    sigma = 0.7
    mbar, wbar, V = _prox_inputs(rng)
    starts = np.resize([0.0, 1e-300, 1e-12, 1e3, 1e6, 1e300, np.inf], mbar.size)
    kkt = 1e-9 * np.maximum(1.0, np.abs(V) + np.abs(mbar) / sigma
                            + wbar**2 / sigma**2)
    for H in EVERY_H:
        m_cold, _ = prox_block(mbar, wbar, sigma, V, H, coupling)
        m, w = prox_block(mbar, wbar, sigma, V, H, coupling, starts)
        assert np.all(np.abs(m - m_cold) <= 2.0 * sigma * kkt), H
        assert np.array_equal(m == 0.0, m_cold == 0.0), H
        for k in range(m.size):
            hp = _h_and_hp(H, (wbar[k] - w[k]) / sigma)[1]
            assert w[k] == pytest.approx(m[k] * hp, abs=1e-10), H


def test_prox_subnormal_minimizer_converges(monkeypatch):
    # this cell's minimizer, m = exp(-733.3), is subnormal, where eps/m
    # overflows: the entropy's terms are taken in y = log m, eps y and eps
    mbar, wbar, sigma, eps = -0.12262099095771481, 1.0115954988154898, 8.0, 1e-5
    evals = _count_grad_evals(monkeypatch)
    m, w = prox_cell(mbar, wbar, sigma, 0.0, QUAD_H, CouplingSpec(epsilon=eps))
    assert len(evals) == 3
    assert 0.0 < m < 1e-300 and w == pytest.approx(m * (wbar - w) / sigma, rel=1e-4)
    # the gradient eps log m + (m - mbar)/sigma - H(p) vanishes; log m of a
    # subnormal m has about five digits
    p = (wbar - w) / sigma
    assert abs(eps * math.log(m) + (m - mbar) / sigma - 0.5 * p * p) <= 1e-9


def test_prox_floor_brackets_small_eps_root():
    # the root of this cell lies near y = -14,000 (m underflows to 0), far
    # below the floor -746 of exp's underflow that bounded the bracket
    m, w = prox_block(np.array([-0.1236]), np.array([1.0094]), 8.0, np.zeros(1),
                      QUAD_H, CouplingSpec(epsilon=1e-5))
    assert m[0] == 0.0 and w[0] == 0.0


@pytest.mark.parametrize("H", [QUAD_H, HamiltonianSpec(q=2.5, varpi=0.5, scale=2.0)],
                         ids=["q2", "q2.5"])
@pytest.mark.parametrize("coupling", [C_ENT, CouplingSpec(epsilon=0.0, c=0.5, a=2.0)],
                         ids=["log-branch", "m-branch"])
def test_prox_predict_is_first_order(H, coupling, rng):
    # halving the change of the inputs quarters the prediction's error
    sigma, n = 0.7, 60
    # mbar/sigma > max V: no cell at the corner m = 0
    mbar, wbar, V = rng.uniform(0.5, 3.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 0.5, n)
    dmbar, dwbar = rng.standard_normal((2, n))
    work = Scratch(mbar.shape)
    prox_block(mbar, wbar, sigma, V, H, coupling, None, work)
    errors = []
    for delta in (1e-2, 5e-3):
        want, _ = prox_block(mbar + delta * dmbar, wbar + delta * dwbar, sigma, V, H, coupling)
        got = prox_predict(delta * dmbar, delta * dwbar, sigma, H, coupling, work,
                           np.empty(n))
        errors.append(np.max(np.abs(got - want)))
    assert 3.5 <= errors[0] / errors[1] <= 4.5, errors


def test_prox_firm_nonexpansive(rng):
    # ||prox(x) - prox(y)||^2 <= <prox(x) - prox(y), x - y>
    sigma, V = 0.8, 0.1
    for _ in range(20):
        x = rng.uniform(-2.0, 4.0, size=2)
        y = rng.uniform(-2.0, 4.0, size=2)
        px = np.array(prox_cell(x[0], x[1], sigma, V, QUAD_H, C_ENT))
        py = np.array(prox_cell(y[0], y[1], sigma, V, QUAD_H, C_ENT))
        d = px - py
        assert np.dot(d, d) <= np.dot(d, x - y) + 1e-10


def test_prox_nested_agrees_with_fast_path():
    # q = 2 with varpi > 0 takes the closed form too
    h_shift = HamiltonianSpec(q=2.0, varpi=0.5)
    for H in EVERY_H + [h_shift]:
        for mbar, wbar in ((1.5, 0.8), (0.2, -1.1), (3.0, 0.0)):
            m_s, w_s = _prox_nested(mbar, wbar, 0.5, 0.2, H, C_ENT)
            m_f, w_f = prox_cell(mbar, wbar, 0.5, 0.2, H, C_ENT)
            assert m_f == pytest.approx(m_s, abs=5e-6), H
            assert w_f == pytest.approx(w_s, abs=5e-6), H


def test_functional_midpoint_convexity(rng):
    spec = _uniform_spec(eps=0.3)
    g = spec.grid

    def random_state():
        m = rng.uniform(0.2, 2.0, size=(g.n_t + 1, g.n_x))
        w = rng.standard_normal((g.n_t, g.n_faces)) * 0.3
        w[:, 0] = w[:, -1] = 0.0
        return _state(spec, m, w)

    for _ in range(10):
        a, b = random_state(), random_state()
        mid = _state(spec, 0.5 * (a.m.values + b.m.values),
                     0.5 * (a.w.values + b.w.values))
        ja, jb = functional_value(a, spec), functional_value(b, spec)
        assert functional_value(mid, spec) <= 0.5 * (ja + jb) + 1e-12


def test_functional_torus_shift_invariance(rng):
    # zero potential: rolling the fields in x leaves the value unchanged
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 8, "torus")
    u = np.ones(8)
    spec = ProblemSpec(g, u, u, np.zeros(8), QUAD_H, CouplingSpec(epsilon=0.4))
    m = rng.uniform(0.3, 2.0, size=(4, 8))
    w = rng.standard_normal((3, 8))
    s1 = _state(spec, m, w)
    s2 = _state(spec, np.roll(m, 3, axis=1), np.roll(w, 3, axis=1))
    assert functional_value(s1, spec) == pytest.approx(
        functional_value(s2, spec), rel=1e-13)


class _Recorded(Exception):
    pass


def _recorded_prox_inputs(spec, call, monkeypatch):
    """The arguments of solve_primal's prox_block call number `call`."""
    calls = []

    def record(*args):
        calls.append(args)
        if len(calls) == call:
            raise _Recorded
        return prox_block(*args)

    monkeypatch.setattr(primal, "prox_block", record)
    with pytest.raises(_Recorded):
        primal.solve_primal(spec)
    return tuple(np.array(a) if isinstance(a, np.ndarray) else a
                 for a in calls[-1])


def _peak_blocks(args):
    """Peak traced memory of one warm prox_block call, in input blocks."""
    prox_block(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m, w = prox_block(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / args[0].nbytes, m, w


# with the solver's buffers a warm call allocates no cell-sized array: the
# bounds sit just above the measured peaks, 0.07 input blocks on the log
# branch, 0.29 on the corner branch and 1.14 on the power H (its 32 x 32
# blocks are 8 KiB, and the peak is the same fixed 9 KiB of small objects)
@pytest.mark.parametrize("make_spec, call, bound", [
    (lambda: make_congestion_spec(128), 100, 0.1),
    (lambda: make_bump_spec(64, eps=0.0), 200, 0.3),
    (lambda: make_power_spec(32), 20, 1.2),
], ids=["congestion-128-log", "bump-64-eps0-corner", "power-32-nested-newton"])
def test_prox_block_temporaries(make_spec, call, bound, monkeypatch):
    spec = make_spec()
    args = _recorded_prox_inputs(spec, call, monkeypatch)
    assert args[0].shape == (spec.grid.n_t, spec.grid.n_x)
    assert _peak_blocks(args)[0] <= bound


@pytest.mark.parametrize("make_spec", [
    lambda: make_congestion_spec(16),
    lambda: make_bump_spec(16, eps=0.0),
    lambda: make_power_spec(16),
], ids=["log", "corner", "power-H"])
def test_prox_block_outputs_outlive_the_next_call(make_spec, monkeypatch):
    # called without the solver's buffers, each call returns arrays of its
    # own: a second call of the same shape leaves the first one's m and w
    mbar, wbar, sigma, V, H, coupling, m_start, _ = _recorded_prox_inputs(
        make_spec(), 10, monkeypatch)
    m, w = prox_block(mbar, wbar, sigma, V, H, coupling, m_start)
    m_first, w_first = m.copy(), w.copy()
    m2, w2 = prox_block(1.5 * mbar, -wbar, sigma, V, H, coupling, m_start)
    assert not np.array_equal(m2, m_first) and not np.array_equal(w2, w_first)
    assert np.array_equal(m, m_first) and np.array_equal(w, w_first)


def test_prox_corner_cells_end_at_zero(monkeypatch):
    # the sweep's eps = 0 instance has no corner cell, so push the first
    # eight time rows' mbar below zero: there m = 0 is optimal (f = 0)
    mbar, wbar, sigma, V, H, coupling, m_start, _ = _recorded_prox_inputs(
        make_bump_spec(64, eps=0.0), 200, monkeypatch)
    m_all, w_all = prox_block(mbar, wbar, sigma, V, H, coupling, m_start)
    # the gradient at m = 0 is -H(wbar/sigma) + V - mbar/sigma, 1/sigma here
    mbar[:8] = sigma * (V[:8] - 0.5 * (wbar[:8] / sigma) ** 2) - 1.0
    corner = ~(-0.5 * (wbar / sigma) ** 2 + V - mbar / sigma < 0.0)
    assert corner[:8].all() and not corner[8:].any()
    m, w = prox_block(mbar, wbar, sigma, V, H, coupling, m_start)
    assert np.all(m[:8] == 0.0) and np.all(w[:8] == 0.0)
    # the other cells take the same Newton iterates as without the corner
    assert np.array_equal(m[8:], m_all[8:]) and np.array_equal(w[8:], w_all[8:])

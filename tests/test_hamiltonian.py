import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfplan.hamiltonian import (
    CouplingSpec,
    HamiltonianSpec,
    h_eval,
    h_third,
    KernelSolveError,
    kinetic_density,
    legendre_L,
    safeguarded_newton,
)

QUAD = HamiltonianSpec()
CUBIC = HamiltonianSpec(q=3.0, varpi=0.0, scale=2.0)
SOFT = HamiltonianSpec(q=1.5, varpi=0.1, scale=2.0)


def test_h_eval_quadratic():
    val, hp, hpp = h_eval(QUAD, 2.0)
    assert (val, hp, hpp) == (2.0, 2.0, 1.0)


def test_h_eval_cubic():
    val, hp, hpp = h_eval(CUBIC, 1.0)
    assert (val, hp, hpp) == (1.0, 3.0, 6.0)


def test_h_eval_origin_flat_for_superquadratic():
    val, hp, hpp = h_eval(CUBIC, 0.0)
    assert (val, hp, hpp) == (0.0, 0.0, 0.0)


def test_degenerate_signals_at_origin():
    bad = HamiltonianSpec(q=1.5, varpi=0.0, scale=2.0)
    # H_pp is +inf at the singular origin, finite away from it
    assert h_eval(bad, 0.0)[2] == math.inf
    assert np.isfinite(h_eval(bad, 1.0)[2])
    assert not bad.smooth
    assert not CUBIC.smooth
    assert SOFT.smooth and QUAD.smooth


@pytest.mark.parametrize("H", [QUAD, CUBIC, SOFT,
                               HamiltonianSpec(q=2.0, varpi=1.0, scale=1.4)])
def test_derivative_consistency(H, rng):
    # centered differences of H match H_p, H_pp at 100 random points
    p = rng.uniform(-5.0, 5.0, size=100)
    p = np.where(np.abs(p) < 1e-2, p + 0.5, p)  # keep clear of the origin
    h = 1e-4
    vp, _, _ = h_eval(H, p + h)
    vm, _, _ = h_eval(H, p - h)
    v0, hp, hpp = h_eval(H, p)
    assert np.max(np.abs((vp - vm) / (2 * h) - hp)) <= 1e-6
    assert np.max(np.abs((vp - 2 * v0 + vm) / h**2 - hpp)) <= 1e-4


def test_h_third_matches_fd():
    H = SOFT
    p = np.linspace(-3.0, 3.0, 41)
    h = 1e-5
    _, hp_p, _ = h_eval(H, p + h)
    _, hp_m, _ = h_eval(H, p - h)
    fd = (hp_p - hp_m) / (2 * h)
    # compare against the FD of H_p (third derivative of H)
    _, _, hpp_p = h_eval(H, p + h)
    _, _, hpp_m = h_eval(H, p - h)
    fd3 = (hpp_p - hpp_m) / (2 * h)
    assert np.max(np.abs(h_third(H, p) - fd3)) <= 1e-5


def test_legendre_quadratic_values():
    assert legendre_L(QUAD, 3.0) == 4.5
    assert legendre_L(HamiltonianSpec(scale=2.0), 2.0) == 1.0


def test_legendre_cubic_closed_form():
    # sup_p (p - p^3) attained at p = 1/sqrt(3)
    assert legendre_L(CUBIC, 1.0) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)),
                                                   abs=1e-10)


def test_legendre_at_zero_is_minus_H0():
    H = HamiltonianSpec(q=2.0, varpi=1.0, scale=1.0)
    assert legendre_L(H, 0.0) == -h_eval(H, 0.0)[0]


@pytest.mark.parametrize("H", [QUAD, CUBIC, SOFT, HamiltonianSpec(varpi=1.0, scale=0.7)])
def test_youngs_inequality(H, rng):
    ps = rng.uniform(-4.0, 4.0, size=40)
    vs = rng.uniform(-4.0, 4.0, size=40)
    for p, v in zip(ps, vs):
        if H is not QUAD and H.varpi == 0.0 and p == 0.0:
            continue
        hv = float(h_eval(H, p)[0])
        assert hv + legendre_L(H, v) >= p * v - 1e-9
    # equality at v = H_p(p)
    for p in (-2.0, -0.3, 0.7, 1.9):
        hv, hp, _ = h_eval(H, p)
        assert abs(float(hv) + legendre_L(H, float(hp)) - p * float(hp)) <= 1e-8


def test_legendre_degenerate_origin():
    # varpi = 0, q < 2: H_pp is infinite at p = 0, but L needs only H, H_p
    H = HamiltonianSpec(q=1.5, varpi=0.0, scale=2.0)
    assert legendre_L(H, 0.0) == 0.0
    # H = |p|^1.5 has L(v) = (v/1.5)^3 * 0.5 at v > 0
    v = np.array([0.0, 1e-6, 0.3, 2.0])
    assert np.allclose(legendre_L(H, v), 0.5 * (v / 1.5) ** 3, rtol=1e-12, atol=0)
    assert np.array_equal(kinetic_density(H, np.zeros(2), np.array([0.0, 1.0])),
                          [0.0, np.inf])


def test_legendre_vectorized_matches_scalar(rng):
    v = rng.uniform(-4.0, 4.0, size=(3, 5))
    for H in (CUBIC, SOFT):
        got = legendre_L(H, v)
        assert got.shape == v.shape
        for k, vi in np.ndenumerate(v):
            assert got[k] == pytest.approx(legendre_L(H, float(vi)), rel=1e-14)


# ---------------------------------------------------------------------------
# the safeguarded Newton helper
# ---------------------------------------------------------------------------

def test_newton_freezes_converged_cells():
    # g(y) = y^3 + y - c; the first cell starts exactly at its root, and
    # every round evaluates every cell, the converged one at its own value
    c = np.array([2.0, 10.0, -3.0])
    seen = []

    def fun(y):
        seen.append(y[0])
        return y**3 + y - c, 3.0 * y * y + 1.0

    start = np.array([1.0, 0.0, 0.0])
    y = safeguarded_newton(fun, start, -10.0, 10.0, 1e-13)
    assert len(seen) > 3
    assert all(v == 1.0 for v in seen)  # bit-identical, never moved
    assert y[0] == 1.0
    assert np.all(np.abs(y**3 + y - c) <= 1e-13)


def test_newton_bisects_bad_steps():
    # Newton on arctan overshoots from far out; the safeguard still converges
    start = np.array([[5.0, -20.0], [29.0, 0.5]])
    y = safeguarded_newton(lambda y: (np.arctan(y), 1.0 / (1.0 + y * y)),
                           start, -30.0, 30.0, 1e-14)
    assert y.shape == start.shape
    assert np.all(np.abs(y) <= 1e-14)


def test_newton_raises_typed_error():
    # steps of 1e-6 toward the roots at 1 cannot get there within the
    # evaluation budget
    with pytest.raises(KernelSolveError, match="2 cells unconverged"):
        safeguarded_newton(lambda y: (y - 1.0, np.ones_like(y) * 1e6),
                           np.array([0.0, 2.0]), -5.0, 5.0, 1e-14)
    assert issubclass(KernelSolveError, RuntimeError)


@pytest.mark.parametrize("nan_tol", [1e-13, np.inf])
def test_newton_nan_cell_stays_live(nan_tol):
    # a NaN g never passes |g| <= tol, not even an infinite tol; the other
    # cells converge, and the error names the one cell left
    c = np.array([2.0, 10.0, -3.0])

    def fun(y):
        g = y**3 + y - c
        g[1] = np.nan
        return g, 3.0 * y * y + 1.0

    tol = np.array([1e-13, nan_tol, 1e-13])
    with pytest.raises(KernelSolveError, match="left 1 cells unconverged"):
        safeguarded_newton(fun, np.zeros(3), -10.0, 10.0, tol)


def test_newton_returns_last_evaluated_values():
    # the cells converge in different rounds (cell 4, with an infinite tol,
    # at its first evaluation; cell 3, with a loose one, early); each
    # returns, bit for bit, the value it was last evaluated at
    c = np.array([2.0, 10.0, -3.0, 0.5, 7.0])
    seen = []

    def fun(y):
        seen.append(y.copy())  # y itself is updated in place
        return y**3 + y - c, 3.0 * y * y + 1.0

    tol = np.array([1e-13, 1e-13, 1e-13, 1e-2, np.inf])
    y = safeguarded_newton(fun, np.full(5, 0.25), -10.0, 10.0, tol)
    assert np.array_equal(y, seen[-1])
    # the first evaluation from which each cell no longer moves
    stops = [min(i for i in range(len(seen)) if all(v[k] == y[k] for v in seen[i:]))
             for k in range(5)]
    assert stops[4] == 0 and y[4] == 0.25
    assert 0 < stops[3] < min(stops[:3])


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def test_phi_trivial_values():
    c = CouplingSpec(epsilon=1.0)
    assert c.phi(0.0) == pytest.approx(1.0, abs=1e-14)
    assert c.phi(2.0) == pytest.approx(math.e**2, rel=1e-13)
    lin = CouplingSpec(epsilon=1.0, c=1.0, a=1.0)
    assert lin.phi(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("coupling", [
    CouplingSpec(epsilon=1.0),
    CouplingSpec(epsilon=0.5, c=2.0, a=1.0),
    CouplingSpec(epsilon=0.1, c=0.5, a=2.5),
    CouplingSpec(epsilon=1.0, c=0.3),
    CouplingSpec(epsilon=0.5, c=1.0, a=2.0),
])
def test_phi_round_trip(coupling):
    m = np.logspace(-8, 8, 200)
    r = coupling.f_eps(m)
    back = coupling.phi(r)
    assert np.max(np.abs(back - m) / m) <= 1e-10


def test_phi_requires_positive_eps():
    with pytest.raises(ValueError):
        CouplingSpec(epsilon=0.0).phi(1.0)


def test_coupling_validation():
    for kwargs in ({"epsilon": -1.0}, {"c": -1.0}, {"c": -1.0, "a": 1.0},
                   {"c": 1.0, "a": -1.0}, {"c": 1.0, "a": 0.0}, {"a": 0.0}):
        with pytest.raises(ValueError):
            CouplingSpec(**kwargs)


@pytest.mark.parametrize("spec,kwargs", [
    (HamiltonianSpec, {"q": math.nan}), (HamiltonianSpec, {"varpi": math.nan}),
    (HamiltonianSpec, {"scale": math.nan}), (CouplingSpec, {"epsilon": math.nan}),
    (CouplingSpec, {"c": math.nan}), (CouplingSpec, {"c": 1.0, "a": math.nan})],
    ids=["q", "varpi", "scale", "epsilon", "c", "a"])
def test_nan_parameters_refused(spec, kwargs):
    with pytest.raises(ValueError):
        spec(**kwargs)


def test_coupling_fields_are_the_form():
    assert [f.name for f in dataclasses.fields(CouplingSpec)] == ["epsilon", "c", "a"]
    assert CouplingSpec() == CouplingSpec(1.0, 0.0, None)
    with pytest.raises(TypeError):  # the family names are config syntax only
        CouplingSpec(f_family="power", f_params=(1.0, 1.0))


def test_antiderivative_anchor():
    for c in (CouplingSpec(c=2.0, a=1.5),
              CouplingSpec(c=0.7),
              CouplingSpec()):
        assert float(c.F(1.0)) == 0.0


# the ids name the form of f: the default (zero), c m^a (power) and
# c log m (log, a = None)
@pytest.mark.parametrize("form", [
    pytest.param({}, id="zero-params0"),
    pytest.param({"c": 0.0, "a": 0.5}, id="power-params1"),
    pytest.param({"c": 0.0, "a": 1.0}, id="power-params2"),
    pytest.param({"c": 0.0, "a": None}, id="log-params3")])
def test_zero_coupling_is_exact_zero(form):
    # c = 0 is f = 0 for every a, down to m = 0, where m^(a-1) and log m
    # are not finite
    c = CouplingSpec(epsilon=0.0, **form)
    m = np.array([0.0, 1e-320, 1.0])
    for fn in (c.f, c.f_prime, c.f_second, c.F):
        out = fn(m)
        assert out.dtype == float and np.all(out == 0.0), (fn.__name__, out)
    assert c.f_zero and c.c0_r0 is None and not c.interior
    assert CouplingSpec(epsilon=0.0, c=0.5).interior


def test_antiderivative_matches_f():
    c = CouplingSpec(c=2.0, a=1.5)
    m = np.linspace(0.2, 5.0, 50)
    h = 1e-6
    fd = (c.F(m + h) - c.F(m - h)) / (2 * h)
    assert np.max(np.abs(fd - c.f(m))) <= 1e-7


def test_c0_r0_hypothesis():
    assert CouplingSpec(c=1.0, a=1.0).c0_r0 == (1.0, 1.0)
    assert CouplingSpec(c=0.5).c0_r0 == (0.5, 1.0)
    assert CouplingSpec().c0_r0 is None
    # the stored pair satisfies f'(r) >= c0/r for r >= r0
    c = CouplingSpec(c=0.8, a=2.0)
    c0, r0 = c.c0_r0
    r = np.linspace(r0, 100.0, 500)
    assert np.all(c.f_prime(r) >= c0 / r - 1e-12)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(min_value=-30.0, max_value=30.0),
       eps=st.floats(min_value=0.05, max_value=5.0))
def test_phi_inverse_property(r, eps):
    c = CouplingSpec(epsilon=eps, c=1.0, a=1.0)
    m = c.phi(r)
    assert m > 0
    assert abs(c.f_eps(m) - r) <= 1e-12 * max(1.0, abs(r))

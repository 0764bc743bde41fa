import numpy as np
import pytest
import scipy.sparse as sp

from mfplan.functional import (
    PrimalState,
    continuity_residual,
    functional_value,
    integrand,
)
from mfplan.grids import (
    DensityField,
    MomentumField,
    ProblemSpec,
    SpaceTimeGrid,
)
from mfplan.hamiltonian import CouplingSpec, HamiltonianSpec
from mfplan import functional, primal
from mfplan.primal import PrimalConfig, solve_primal

from conftest import (
    build_spec,
    gaussian_with_floor,
    make_bump_spec,
    make_congestion_spec,
    make_gibbs_spec,
)

QUAD_H = HamiltonianSpec()


def _state(spec, m, w):
    return PrimalState(DensityField(spec.grid, m), MomentumField(spec.grid, w))


def _project(state, spec):
    """Euclidean projection onto {continuity = 0, no-flux, endpoint data}."""
    ops = primal._operators(spec.grid)
    d, _ = primal._data(spec)
    free = spec.grid.free
    m, w = ops.project(state.m.values[1:-1], state.w.values[:, free], d,
                       out=(np.empty(ops.shapes[0]), np.empty(ops.shapes[1])))
    w_full = np.zeros_like(state.w.values)
    w_full[:, free] = w
    return _state(spec, np.concatenate([spec.m0[None], m, spec.m1[None]]), w_full)


def _uniform_spec(n_t=4, n_x=8, topology="interval-neumann", eps=0.5):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, n_t, n_x, topology)
    u = np.ones(n_x)
    return ProblemSpec(g, u, u, np.zeros(n_x), QUAD_H, CouplingSpec(epsilon=eps))


def test_config_validation():
    # NaN would run to MAX_ITERS and inf would stop at the first iteration
    for bad in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol_kkt"):
            PrimalConfig(tol_kkt=bad)
    assert primal.SIGMA == 1.0
    assert 1.0 <= primal.THETA < 2.0
    assert PrimalConfig().tol_kkt == 1e-6
    assert primal.MAX_ITERS == 50000


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_projection_feasible_and_idempotent(topology, rng):
    spec = _uniform_spec(topology=topology)
    g = spec.grid
    m = rng.uniform(0.2, 2.0, size=(g.n_t + 1, g.n_x))
    w = rng.standard_normal((g.n_t, g.n_faces))
    if not g.periodic:
        w[:, 0] = w[:, -1] = 0.0
    p = _project(_state(spec, m, w), spec)
    assert np.max(np.abs(continuity_residual(p, spec))) <= 1e-10
    p2 = _project(p, spec)
    assert np.max(np.abs(p2.m.values - p.m.values)) <= 1e-12
    assert np.max(np.abs(p2.w.values - p.w.values)) <= 1e-12


def _reference_operators(grid):
    """C and A assembled cell by cell, the construction _Operators replaced."""
    nt, nx = grid.n_t, grid.n_x
    dt, dx = grid.dt, grid.dx
    periodic = grid.periodic
    nm = (nt - 1) * nx
    nw = nt * nx if periodic else nt * (nx - 1)

    def m_idx(k, i):  # k in 1..nt-1
        return (k - 1) * nx + i

    def w_idx(k, j):  # interval: j in 1..nx-1; torus: j in 0..nx-1
        return nm + (k * nx + j if periodic else k * (nx - 1) + (j - 1))

    rows, cols, vals = [], [], []
    for k in range(nt):
        for i in range(nx):
            r = k * nx + i
            if 1 <= k + 1 <= nt - 1:
                rows.append(r), cols.append(m_idx(k + 1, i)), vals.append(1.0 / dt)
            if 1 <= k <= nt - 1:
                rows.append(r), cols.append(m_idx(k, i)), vals.append(-1.0 / dt)
            # residual -= (w_right - w_left)/dx
            jl, jr = i, (i + 1) % nx if periodic else i + 1
            if periodic or 1 <= jl <= nx - 1:
                rows.append(r), cols.append(w_idx(k, jl)), vals.append(1.0 / dx)
            if periodic or 1 <= jr <= nx - 1:
                rows.append(r), cols.append(w_idx(k, jr)), vals.append(-1.0 / dx)
    C = sp.csr_matrix((vals, (rows, cols)), shape=(nt * nx, nm + nw))

    rows, cols, vals = [], [], []
    # Mc(k,i) = (m^k_i + m^{k+1}_i)/2, variable part
    for k in range(nt):
        for i in range(nx):
            for kk in (k, k + 1):
                if 1 <= kk <= nt - 1:
                    rows.append(k * nx + i), cols.append(m_idx(kk, i)), vals.append(0.5)
    # Wc(k,i) = (w at the two faces of cell i)/2
    for k in range(nt):
        for i in range(nx):
            jl, jr = i, (i + 1) % nx if periodic else i + 1
            for j in (jl, jr):
                if periodic or 1 <= j <= nx - 1:
                    rows.append(nt * nx + k * nx + i), cols.append(w_idx(k, j))
                    vals.append(0.5)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(2 * nt * nx, nm + nw))
    return C, A


def _flat(*fields):
    return np.concatenate([f.ravel() for f in fields])


_REFERENCE_GRIDS = pytest.mark.parametrize("topology,x_min,x_max", [
    ("torus", 0.0, 1.0), ("interval-neumann", 0.0, 1.0),
    ("interval-neumann", -2.0, 2.0)])


@pytest.mark.parametrize("n_t", [2, 3, 7, 16])
@pytest.mark.parametrize("n_x", [2, 3, 5, 16])
@_REFERENCE_GRIDS
def test_operators_match_reference(n_t, n_x, topology, x_min, x_max, rng):
    grid = SpaceTimeGrid(1.0, x_min, x_max, n_t, n_x, topology)
    ops = primal._Operators(grid)
    C, A = _reference_operators(grid)
    m, w = (rng.standard_normal(shape) for shape in ops.shapes[:2])
    lam, M, W = rng.standard_normal((3, n_t, n_x))
    U = _flat(m, w)
    assert C.shape[1] == U.size
    for got, want in [(ops.C(m, w), C @ U), (ops.CT(lam), C.T @ lam.ravel()),
                      (ops.A(m, w), A @ U), (ops.AT(M, W), A.T @ _flat(M, W))]:
        got = _flat(*got) if isinstance(got, tuple) else got.ravel()
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("n_t", [2, 3, 7, 16])
@pytest.mark.parametrize("n_x", [2, 3, 5, 16])
@_REFERENCE_GRIDS
def test_graph_project_matches_dense_solve(n_t, n_x, topology, x_min, x_max, rng):
    # the per-axis solves against one dense solve of I + A^T A
    grid = SpaceTimeGrid(1.0, x_min, x_max, n_t, n_x, topology)
    ops = primal._Operators(grid)
    A = _reference_operators(grid)[1].toarray()
    m, w = (rng.standard_normal(shape) for shape in ops.shapes[:2])
    M, W, b = rng.standard_normal((3, n_t, n_x))
    b_flat = _flat(b, np.zeros_like(W))
    U_star = np.linalg.solve(np.eye(A.shape[1]) + A.T @ A,
                             _flat(m, w) + A.T @ (_flat(M, W) - b_flat))
    want = _flat(U_star, A @ U_star + b_flat)
    got = ops.graph_project(m, w, M, W, b, out=[np.empty(s) for s in ops.shapes])
    assert np.max(np.abs(_flat(*got) - want)) <= 1e-12


def test_operators_factor_once(monkeypatch):
    # the graph projection's I + A^T A factors as one LU per axis, of
    # I + A_t^T A_t and I + A_x^T A_x; the continuity projection
    # diagonalizes C C^T from its 1-D factors
    calls = []
    monkeypatch.setattr(primal, "splu", lambda a: calls.append(a.shape))
    for topology, n_free in (("interval-neumann", 5), ("torus", 6)):
        calls.clear()
        primal._Operators(SpaceTimeGrid(1.0, 0.0, 1.0, 4, 6, topology))
        assert calls == [(3, 3), (n_free, n_free)]


@_REFERENCE_GRIDS
def test_project_is_least_norm_on_every_small_grid(topology, x_min, x_max, rng):
    # C C^T is singular (1^T C = 0); project must apply its pseudo-inverse on
    # every grid, the 8x5 interval among them, where an LU finds no pivot
    for n_t in range(2, 17):
        for n_x in range(2, 17):
            grid = SpaceTimeGrid(1.0, x_min, x_max, n_t, n_x, topology)
            ops = primal._Operators(grid)
            C = _reference_operators(grid)[0].toarray()
            m, w = (rng.standard_normal(shape) for shape in ops.shapes[:2])
            d = rng.standard_normal((n_t, n_x))
            d -= d.mean()  # the range of C
            U = _flat(m, w)
            want = U - np.linalg.lstsq(C, C @ U - d.ravel())[0]
            got = _flat(*ops.project(m, w, d, out=(np.empty_like(m), np.empty_like(w))))
            assert np.max(np.abs(got - want)) <= 1e-12, (n_t, n_x)


def test_projection_matches_dense_least_squares(rng):
    # oracle: minimum-norm correction via the pseudoinverse of the dense
    # continuity operator assembled here independently
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 4)
    u = np.ones(4)
    spec = ProblemSpec(g, u, u, np.zeros(4), QUAD_H, CouplingSpec(epsilon=0.5))
    nt, nx = 3, 4
    dt, dx = g.dt, g.dx

    n_m = (nt - 1) * nx
    n_w = nt * (nx - 1)

    def midx(k, i):
        return (k - 1) * nx + i

    def widx(k, j):
        return n_m + k * (nx - 1) + (j - 1)

    C = np.zeros((nt * nx, n_m + n_w))
    d = np.zeros(nt * nx)
    for k in range(nt):
        for i in range(nx):
            r = k * nx + i
            if k + 1 <= nt - 1:
                C[r, midx(k + 1, i)] += 1.0 / dt
            else:
                d[r] -= spec.m1[i] / dt
            if k >= 1:
                C[r, midx(k, i)] -= 1.0 / dt
            else:
                d[r] += spec.m0[i] / dt
            if 1 <= i <= nx - 1:
                C[r, widx(k, i)] += 1.0 / dx
            if 1 <= i + 1 <= nx - 1:
                C[r, widx(k, i + 1)] -= 1.0 / dx

    m = rng.uniform(0.2, 2.0, size=(nt + 1, nx))
    w = rng.standard_normal((nt, nx + 1))
    w[:, 0] = w[:, -1] = 0.0
    x = np.concatenate([m[1:-1].ravel(), w[:, 1:-1].ravel()])
    x_proj = x - C.T @ np.linalg.lstsq(C @ C.T, C @ x - d, rcond=None)[0]

    p = _project(_state(spec, m, w), spec)
    got = np.concatenate([p.m.values[1:-1].ravel(), p.w.values[:, 1:-1].ravel()])
    assert np.max(np.abs(got - x_proj)) <= 1e-8


def test_solve_uniform_stationary():
    spec = _uniform_spec()
    state, log = solve_primal(spec, PrimalConfig(tol_kkt=1e-10))
    assert log.converged
    assert np.max(np.abs(state.m.values - 1.0)) <= 1e-8
    assert np.max(np.abs(state.w.values)) <= 1e-8


def test_solve_gibbs_small(solves):
    spec = solves.spec("gibbs", 16)
    state, log = solves.primal("gibbs", 16)
    assert log.converged
    # the rest state at the shared marginal is the exact discrete minimizer
    assert np.max(np.abs(state.m.values - spec.m0)) <= 1e-6
    assert np.max(np.abs(state.w.values)) <= 1e-6


def test_solve_feasibility_and_mass(solves):
    spec = solves.spec("congestion", 16)
    state, log = solves.primal("congestion", 16)
    assert log.converged
    assert log.feasibility <= 1e-8
    for k in range(spec.grid.n_t + 1):
        assert abs(np.sum(state.m.values[k]) * spec.grid.dx - 1.0) <= 1e-8


def test_solve_positivity(solves):
    state, _ = solves.primal("congestion", 16)
    assert np.min(state.m.values) > 0.0


def test_undershooting_density_stays_feasible():
    # on this torus the staggered node density undershoots 0 (the cell
    # values M do not); the returned iterate must still satisfy continuity
    state, log = solve_primal(make_bump_spec(6, eps=1e-3))
    assert log.converged
    assert np.min(state.m.values) < 0.0  # the case a clip to 1e-300 would break
    assert log.feasibility <= 1e-10


def test_value_beats_straight_line_transport(solves):
    # the minimizer's value never exceeds that of the linear-interpolation
    # competitor (projected to feasibility)
    spec = solves.spec("congestion", 16)
    state, log = solves.primal("congestion", 16)
    g = spec.grid
    lam = np.linspace(0.0, 1.0, g.n_t + 1)[:, None]
    m_lin = (1 - lam) * spec.m0 + lam * spec.m1
    comp = _project(
        _state(spec, m_lin, np.zeros((g.n_t, g.n_faces))), spec)
    j_comp = functional_value(comp, spec)
    assert log.final_value <= j_comp + 1e-10


def test_mirror_symmetry(solves):
    # the congestion instance is symmetric under x -> -x combined with
    # swapping the marginals (time reversal)
    spec = solves.spec("congestion", 16)
    state, _ = solves.primal("congestion", 16)
    m = state.m.values
    w = state.w.values
    # x -> -x and t -> T-t each flip the sign of w, so together they cancel
    m_ref = m[::-1, ::-1]
    w_ref = w[::-1, ::-1]
    tol = 20 * 1e-6
    assert np.max(np.abs(m - m_ref)) <= tol
    assert np.max(np.abs(w - w_ref)) <= tol


def test_time_reversal_equivalence():
    # solving with (m0, m1) swapped yields the time-reversed momentum field
    n = 12
    g = SpaceTimeGrid(1.0, -2.0, 2.0, n, n)
    a = gaussian_with_floor(-0.6, std=0.5)
    b = gaussian_with_floor(0.6, std=0.4)
    fwd = build_spec(g, a, b, {"family": "zero"}, QUAD_H,
                     CouplingSpec(epsilon=0.3))
    bwd = build_spec(g, b, a, {"family": "zero"}, QUAD_H,
                     CouplingSpec(epsilon=0.3))
    cfg = PrimalConfig(tol_kkt=1e-8)
    sf, lf = solve_primal(fwd, cfg)
    sb, lb = solve_primal(bwd, cfg)
    assert lf.converged and lb.converged
    tol = 50 * 1e-8
    assert np.max(np.abs(sf.m.values - sb.m.values[::-1])) <= tol
    assert np.max(np.abs(sf.w.values + sb.w.values[::-1])) <= tol


def test_torus_translation_covariance(solves):
    # on the torus with V = 0, shifting both marginals by whole cells
    # shifts the solution
    spec = solves.spec("bump", 16)
    state, log = solves.primal("bump", 16)
    assert log.converged
    g = spec.grid
    shift = 4
    shifted = ProblemSpec(g, np.roll(spec.m0, shift), np.roll(spec.m1, shift),
                          spec.V, spec.hamiltonian, spec.coupling)
    s2, l2 = solve_primal(shifted, PrimalConfig())
    assert l2.converged
    tol = 50 * 1e-6
    assert np.max(np.abs(np.roll(state.m.values, shift, axis=1)
                         - s2.m.values)) <= tol


def test_log_contents(solves):
    _, log = solves.primal("gibbs", 16)
    assert log.iters >= 1
    assert np.isfinite(log.final_value)
    assert log.fp_residual <= 1e-8


def test_value_evaluated_once(monkeypatch):
    # J is evaluated once, at the last prox output, not per iteration
    calls = []

    def counted(*args):
        calls.append(1)
        return integrand(*args)

    monkeypatch.setattr(primal, "integrand", counted)
    spec = make_gibbs_spec(16)
    state, log = solve_primal(spec, PrimalConfig(tol_kkt=1e-8))
    assert log.converged and log.iters > 1
    assert len(calls) == 1
    assert log.final_value == pytest.approx(functional_value(state, spec), rel=1e-6)


def test_prox_warm_started_from_previous_iterate(monkeypatch):
    # from iteration 2 on, the cell prox starts at the first-order
    # prediction from its previous output: far fewer Newton evaluations per
    # call than cold (10 at 128^2), and the same DR iterations as a run
    # whose every prox starts cold
    spec = make_congestion_spec(32)
    prox_block, reduced_gradient = primal.prox_block, functional._reduced_gradient
    evals, calls = [], []

    def counted_grad(*args):
        evals.append(1)
        return reduced_gradient(*args)

    def counted_prox(*args):
        calls.append(1)
        return prox_block(*args)

    monkeypatch.setattr(functional, "_reduced_gradient", counted_grad)
    monkeypatch.setattr(primal, "prox_block", counted_prox)
    _, warm = solve_primal(spec)
    assert warm.converged
    assert len(evals) <= 3.5 * len(calls)

    # a cold start every call, on the solver's buffers
    monkeypatch.setattr(primal, "prox_block",
                        lambda *args: prox_block(*args[:6], None, *args[7:]))
    _, cold = solve_primal(spec)
    assert cold.converged and cold.iters == warm.iters


def _balancing_off(monkeypatch):
    monkeypatch.setattr(primal, "BALANCE_EVERY", primal.MAX_ITERS + 1)


def _anderson_off(monkeypatch):
    monkeypatch.setattr(primal, "ANDERSON_DEPTH", 0)


@pytest.mark.parametrize("make_spec,sigma,step", [
    (make_congestion_spec, 1.0, 0.5), (make_gibbs_spec, 0.25, 1.0)])
def test_step_change_keeps_fixed_point(make_spec, sigma, step, monkeypatch):
    # at a fixed point, the solver's change of sigma and rescaled shadow
    # keep y: the DR steps after the change leave the answer in place (the
    # projection is sigma-free, so a wrong shadow shows in U one step later)
    spec = make_spec(16)
    _balancing_off(monkeypatch)
    monkeypatch.setattr(primal, "SIGMA", sigma)
    # solve to a fixed-point increment of 1e-10 at either step
    fixed, log = solve_primal(spec, PrimalConfig(tol_kkt=1e-10 / sigma))
    assert log.converged and log.sigma == sigma
    monkeypatch.setattr(primal, "BALANCE_EVERY", log.iters)
    monkeypatch.setattr(primal, "MAX_ITERS", log.iters + 2)
    state, changed = solve_primal(spec, PrimalConfig(tol_kkt=1e-300))
    assert changed.iters == log.iters + 2 and changed.sigma == step
    assert np.max(np.abs(state.m.values - fixed.m.values)) <= 1e-9
    assert np.max(np.abs(state.w.values - fixed.w.values)) <= 1e-9


@pytest.mark.parametrize("make_spec", [make_congestion_spec, make_gibbs_spec],
                         ids=["congestion-16", "gibbs-16"])
@pytest.mark.parametrize("sigma", [2.0**6, 2.0**-6])
def test_one_balance_reaches_balanced_step(make_spec, sigma, monkeypatch):
    # from a start 64 times too large or too small, the first balance sets
    # the step within a factor 2 of the one the default-start solve ends at
    # (1/2 and 1); one power of two per balance would leave 32 and 1/32
    spec = make_spec(16)
    _, balanced = solve_primal(spec)
    assert balanced.converged
    monkeypatch.setattr(primal, "SIGMA", sigma)
    monkeypatch.setattr(primal, "MAX_ITERS", primal.BALANCE_EVERY)
    _, log = solve_primal(spec)
    assert log.iters == primal.BALANCE_EVERY
    assert 0.5 <= log.sigma / balanced.sigma <= 2.0, (log.sigma, balanced.sigma)


def test_stop_does_not_depend_on_sigma(monkeypatch):
    # the stop bounds both DR residuals by tol_kkt whatever the fixed step:
    # the error against a long solve is the same at sigma = 1/4, 1/2 and 1
    # (a stop on the fixed-point increment alone is 3x worse at 1/4)
    spec = make_bump_spec(16, topology="interval-neumann")
    _balancing_off(monkeypatch)
    monkeypatch.setattr(primal, "MAX_ITERS", 40000)
    ref, _ = solve_primal(spec, PrimalConfig(tol_kkt=1e-300))
    errors = []
    for sigma in (0.25, 0.5, 1.0):
        monkeypatch.setattr(primal, "SIGMA", sigma)
        state, log = solve_primal(spec)
        assert log.converged and log.sigma == sigma
        errors.append(max(np.max(np.abs(state.m.values - ref.m.values)),
                          np.max(np.abs(state.w.values - ref.w.values))))
    assert max(errors) <= 1.5 * min(errors), errors
    assert max(errors) <= 100 * PrimalConfig().tol_kkt, errors


def test_gibbs_keeps_unit_step(solves, monkeypatch):
    # the rest state balances prox output and multiplier closest to the
    # unit step, so the step never moves and the run is the fixed-step one
    _, log = solves.primal("gibbs", 16)
    assert log.sigma == 1.0
    _balancing_off(monkeypatch)
    _, fixed = solve_primal(solves.spec("gibbs", 16), PrimalConfig(tol_kkt=1e-8))
    assert fixed.iters == log.iters


def test_step_adaptation_saves_iterations(monkeypatch):
    # the step rule alone: Anderson also shortens the fixed-step run
    _anderson_off(monkeypatch)
    spec = make_congestion_spec(32)
    state, log = solve_primal(spec)
    assert log.converged and log.sigma != 1.0
    _balancing_off(monkeypatch)
    fixed_state, fixed = solve_primal(spec)
    assert fixed.converged
    assert log.iters <= 0.65 * fixed.iters, (log.iters, fixed.iters)
    tol = 10 * PrimalConfig().tol_kkt
    assert np.max(np.abs(state.m.values - fixed_state.m.values)) <= tol
    assert np.max(np.abs(state.w.values - fixed_state.w.values)) <= tol


@pytest.mark.parametrize("make_spec,n,tol", [
    (make_congestion_spec, 32, 1e-6), (make_gibbs_spec, 16, 1e-8)],
    ids=["congestion-32", "gibbs-16"])
def test_anderson_saves_iterations(make_spec, n, tol, monkeypatch):
    # measured 136 against 203 and 221 against 488 iterations
    spec, cfg = make_spec(n), PrimalConfig(tol_kkt=tol)
    state, log = solve_primal(spec, cfg)
    assert log.converged and log.anderson_steps > 0
    _anderson_off(monkeypatch)
    plain_state, plain = solve_primal(spec, cfg)
    assert plain.converged and plain.anderson_steps == 0
    assert log.iters <= 0.75 * plain.iters, (log.iters, plain.iters)
    assert np.max(np.abs(state.m.values - plain_state.m.values)) <= 10 * tol
    assert np.max(np.abs(state.w.values - plain_state.w.values)) <= 10 * tol


@pytest.mark.parametrize("make_spec,sigma", [
    (make_congestion_spec, 1.0), (make_gibbs_spec, 0.25)])
def test_step_change_clears_anderson_history(make_spec, sigma, monkeypatch):
    # at a fixed point the Anderson steps after a change of sigma keep the
    # prox output in place.  The differences taken before the change belong
    # to the old step's map, and the one across it holds the shadow's
    # rescaling: a history kept across the change moves the output by 1e-2
    spec = make_spec(16)
    _balancing_off(monkeypatch)
    monkeypatch.setattr(primal, "SIGMA", sigma)
    _, log = solve_primal(spec, PrimalConfig(tol_kkt=1e-10 / sigma))
    assert log.converged and log.sigma == sigma
    outputs = []
    prox_block = primal.prox_block

    def recorded(*args):
        m, w = prox_block(*args)
        outputs.append(m.copy())
        return m, w

    monkeypatch.setattr(primal, "prox_block", recorded)
    monkeypatch.setattr(primal, "BALANCE_EVERY", log.iters)
    monkeypatch.setattr(primal, "MAX_ITERS", log.iters + 2 * primal.ANDERSON_EVERY)
    _, changed = solve_primal(spec, PrimalConfig(tol_kkt=1e-300))
    assert changed.sigma != sigma and changed.anderson_steps >= log.anderson_steps + 2
    # the run repeats the fixed-step one up to its last prox output
    for m in outputs[log.iters:]:
        assert np.max(np.abs(m - outputs[log.iters - 1])) <= 1e-8


@pytest.mark.parametrize("pushes", [4, 13], ids=["partial", "wrapped"])
def test_anderson_matches_dense_reference(pushes, rng):
    # every plain update T moves by one unit vector, so dT is the identity
    # and the extrapolation's update gamma dT holds gamma itself: with 3
    # differences (k < depth) and with 12 (the ring wraps twice past depth)
    depth, n = 5, 16
    anderson = primal._Anderson(depth, n)
    F = rng.standard_normal((pushes, n))
    T = np.vstack([np.zeros(n), np.cumsum(np.eye(n)[:pushes - 1], axis=0)])
    for f, t in zip(F, T):
        anderson.push(f, t)
    k = min(pushes - 1, depth)
    s, tmp = T[-1].copy(), np.empty(n)
    assert anderson.extrapolate(s, tmp)
    gamma = tmp[pushes - 1 - k:pushes - 1]
    # the regularized normal equations over the last k differences of F
    dF = np.diff(F, axis=0)[-k:]
    gram = dF @ dF.T
    ref = np.linalg.solve(gram + 1e-10 * np.trace(gram) / k * np.eye(k), dF @ F[-1])
    assert np.linalg.norm(gamma - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.count_nonzero(tmp) == k
    assert np.array_equal(s, T[-1] - tmp)
    # a NaN increment clears the history and leaves s
    anderson.push(np.full(n, np.nan), T[-1])
    before = s.copy()
    assert not anderson.extrapolate(s, tmp)
    assert np.array_equal(s, before) and anderson.stored == 0


def test_small_eps_torus_converges():
    # the prox's bracket floor follows eps: at eps = 1e-6 a cell's root lies
    # far below the fixed floor -746 of exp's underflow
    _, log = solve_primal(make_bump_spec(6, eps=1e-6))
    assert log.converged

import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from mfplan import dual
from mfplan.dual import (
    NEWTON_TOL,
    DualSolveError,
    m_from_u,
    solve_dual,
)
from mfplan.grids import PotentialField, ProblemSpec, SpaceTimeGrid
from mfplan.primal import PrimalConfig, solve_primal
from mfplan.hamiltonian import (
    CouplingSpec,
    HamiltonianSpec,
    h_eval,
)

from conftest import make_bump_spec, make_congestion_spec, make_gibbs_spec

QUAD_H = HamiltonianSpec()


def _uniform_spec(n_t=4, n_x=6, topology="interval-neumann", eps=0.5):
    g = SpaceTimeGrid(1.0, 0.0, 1.0, n_t, n_x, topology)
    u = np.ones(n_x)
    return ProblemSpec(g, u, u, np.zeros(n_x), QUAD_H, CouplingSpec(epsilon=eps))


def _field(spec, values):
    return PotentialField(spec.grid, np.asarray(values, dtype=float))


def _rows(spec, u, kappa=0.0):
    """The residual's interior, time-boundary and lateral rows (None on the
    torus), split from the node-indexed residual on the grid's free nodes."""
    R, _ = dual._assemble(u, spec, kappa, with_jacobian=False)
    free = spec.grid.free
    return R[1:-1, free], R[[0, -1], free], None if spec.grid.periodic else R[:, [0, -1]].T


def test_refuses_degenerate_hamiltonian():
    spec = _uniform_spec()
    bad = ProblemSpec(spec.grid, spec.m0, spec.m1, spec.V,
                      HamiltonianSpec(family="power", q=3.0, varpi=0.0),
                      spec.coupling)
    with pytest.raises(DualSolveError, match=r"degenerate H_pp \(varpi=0, q!=2\)"):
        solve_dual(bad)


def test_refuses_zero_entropy():
    spec = _uniform_spec(eps=0.5)
    bad = ProblemSpec(spec.grid, spec.m0, spec.m1, spec.V, QUAD_H,
                      CouplingSpec(epsilon=0.0))
    with pytest.raises(DualSolveError, match="eps > 0"):
        solve_dual(bad)


# ---------------------------------------------------------------------------
# density recovery
# ---------------------------------------------------------------------------

def test_m_from_u_zero_potential():
    spec = _uniform_spec(eps=0.7)
    m = m_from_u(_field(spec, np.zeros((5, 7))), spec)
    assert np.max(np.abs(m.values - 1.0)) <= 1e-14


def test_m_from_u_linear_in_time():
    # u = -eps*c*t gives -u_t = eps*c, so m = e^c everywhere
    spec = _uniform_spec(eps=0.4)
    g = spec.grid
    c = 0.8
    u = -spec.coupling.epsilon * c * g.t_nodes()[:, None] * np.ones(g.n_xnodes)
    m = m_from_u(_field(spec, u), spec)
    assert np.max(np.abs(m.values - math.e**c)) <= 1e-12


def test_m_from_u_gibbs_closed_form():
    # u(t) = eps*log(Z)*t is the exact potential of the resting Gibbs state
    spec = make_gibbs_spec(16)
    eps = spec.coupling.epsilon
    g = spec.grid
    z = float(np.sum(np.exp(-spec.V / eps)) * g.dx)
    u = eps * math.log(z) * g.t_nodes()[:, None] * np.ones(g.n_xnodes)
    m = m_from_u(_field(spec, u), spec)
    assert np.max(np.abs(m.values - spec.m0)) <= 1e-12


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------

def test_residual_zero_at_exact_gibbs_potential():
    spec = make_gibbs_spec(16)
    eps = spec.coupling.epsilon
    g = spec.grid
    z = float(np.sum(np.exp(-spec.V / eps)) * g.dx)
    u = eps * math.log(z) * g.t_nodes()[:, None] * np.ones(g.n_xnodes)
    interior, boundary, lateral = _rows(spec, u)
    assert np.max(np.abs(interior)) <= 1e-10
    assert np.max(np.abs(boundary)) <= 1e-10
    assert np.max(np.abs(lateral)) <= 1e-10


def test_residual_constant_potential_rows():
    spec = _uniform_spec(eps=0.5)
    g = spec.grid
    interior, boundary, lateral = _rows(spec, np.zeros((g.n_t + 1, g.n_xnodes)))
    # uniform marginals: log m0 = 0 on the nodes, every row vanishes
    assert np.max(np.abs(interior)) == 0.0
    assert np.max(np.abs(boundary)) <= 1e-14
    assert np.max(np.abs(lateral)) == 0.0
    # with nonuniform data the t=0 row picks up -eps*log(m0) exactly
    spec2 = make_gibbs_spec(8)
    boundary = _rows(spec2, np.zeros((9, spec2.grid.n_xnodes)))[1]
    eps = spec2.coupling.epsilon
    expect = -(eps * np.log(spec2.m0_nodes[1:-1]) + spec2.V_nodes[1:-1])
    assert np.max(np.abs(boundary[0] - expect)) <= 1e-12


def test_residual_gauge_invariance(rng):
    # at fixed kappa the PDE rows only see derivatives of u
    for topology in ("interval-neumann", "torus"):
        spec = _uniform_spec(5, 6, topology, eps=0.3)
        g = spec.grid
        u = rng.standard_normal((g.n_t + 1, g.n_xnodes)) * 0.1
        r1, r2 = _rows(spec, u, 0.2), _rows(spec, u + 7.3, 0.2)
        assert np.max(np.abs(r1[0] - r2[0])) <= 1e-12
        assert np.max(np.abs(r1[1] - r2[1])) <= 1e-12


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_residual_against_independent_loops(topology, rng):
    # re-derive every residual row with plain python loops
    g = SpaceTimeGrid(1.2, -1.0, 1.0, 6, 6, topology)
    nx = 6
    m0 = np.exp(rng.standard_normal(nx) * 0.2)
    m1 = np.exp(rng.standard_normal(nx) * 0.2)
    V = rng.standard_normal(nx) * 0.3
    coupling = CouplingSpec(epsilon=0.4, f_family="power", f_params=(0.5, 1.0))
    spec = ProblemSpec(g, m0, m1, V, QUAD_H, coupling)
    nt, nn = g.n_t, g.n_xnodes
    dt, dx = g.dt, g.dx
    u = rng.standard_normal((nt + 1, nn)) * 0.2
    kappa = 0.3
    interior, boundary, lateral = _rows(spec, u, kappa)

    Vn, dVn = spec.V_nodes, np.zeros(nn)
    if g.periodic:
        for i in range(nn):
            dVn[i] = (Vn[(i + 1) % nn] - Vn[(i - 1) % nn]) / (2 * dx)
        interior_i = range(nn)
    else:
        for i in range(1, nn - 1):
            dVn[i] = (Vn[i + 1] - Vn[i - 1]) / (2 * dx)
        interior_i = range(1, nn - 1)

    eps = coupling.epsilon
    for k in range(1, nt):
        for col, i in enumerate(interior_i):
            ip, im = (i + 1) % nn, (i - 1) % nn
            if not g.periodic:
                ip, im = i + 1, i - 1
            ut = (u[k + 1, i] - u[k - 1, i]) / (2 * dt)
            ux = (u[k, ip] - u[k, im]) / (2 * dx)
            utt = (u[k + 1, i] - 2 * u[k, i] + u[k - 1, i]) / dt**2
            uxx = (u[k, ip] - 2 * u[k, i] + u[k, im]) / dx**2
            utx = (u[k + 1, ip] - u[k + 1, im] - u[k - 1, ip]
                   + u[k - 1, im]) / (4 * dt * dx)
            hval, hp, hpp = (0.5 * ux * ux, ux, 1.0)
            m = coupling.phi(-ut + hval - Vn[i])
            c = eps + m * coupling.f_prime(m)
            expect = (-(utt - 2 * hp * utx + (hp * hp + c * hpp) * uxx)
                      + dVn[i] * hp + kappa)
            # phi is solved iteratively to ~1e-12 relative, allow that slack
            assert abs(interior[k - 1, col] - expect) <= 1e-10

    for row, (k, sgn, md) in enumerate(((0, 1.0, spec.m0_nodes),
                                        (nt, -1.0, spec.m1_nodes))):
        for col, i in enumerate(interior_i):
            ip, im = (i + 1) % nn, (i - 1) % nn
            if not g.periodic:
                ip, im = i + 1, i - 1
            if k == 0:
                ut = (-3 * u[0, i] + 4 * u[1, i] - u[2, i]) / (2 * dt)
            else:
                ut = (3 * u[nt, i] - 4 * u[nt - 1, i] + u[nt - 2, i]) / (2 * dt)
            ux = (u[k, ip] - u[k, im]) / (2 * dx)
            data = coupling.f(md[i]) + Vn[i] + eps * math.log(md[i])
            expect = -ut + 0.5 * ux * ux + sgn * kappa - data
            assert abs(boundary[row, col] - expect) <= 1e-12

    if not g.periodic:
        for k in range(nt + 1):
            left = (-3 * u[k, 0] + 4 * u[k, 1] - u[k, 2]) / (2 * dx)
            right = (3 * u[k, nn - 1] - 4 * u[k, nn - 2]
                     + u[k, nn - 3]) / (2 * dx)
            assert abs(lateral[0, k] - left) <= 1e-12
            assert abs(lateral[1, k] - right) <= 1e-12


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def _flatten_residual(u, spec):
    R, _ = dual._assemble(u, spec, with_jacobian=False)
    return R.ravel()


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_residual_kappa_linearity(topology, rng):
    # R(u, kappa + c) - R(u, kappa) = c e with e = +1 on the interior and
    # t = 0 rows, -1 on the t = T rows and 0 on the lateral rows
    spec = _uniform_spec(4, 5, topology, eps=0.3)
    g = spec.grid
    u = rng.standard_normal((g.n_t + 1, g.n_xnodes)) * 0.1
    c = 0.7
    (i1, b1, l1), (i2, b2, l2) = _rows(spec, u, 0.2), _rows(spec, u, 0.2 + c)
    assert np.max(np.abs(i2 - i1 - c)) <= 1e-13
    assert np.max(np.abs(b2[0] - b1[0] - c)) <= 1e-13
    assert np.max(np.abs(b2[1] - b1[1] + c)) <= 1e-13
    if l1 is not None:
        assert np.max(np.abs(l2 - l1)) == 0.0


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_bordered_step_solves_gauge_system(topology, rng):
    # the constants span the kernel of J; the step solves J du + e dkappa = -R
    # with the gauge row ell . (u + du) = 0, as the system bordered by ell
    from mfplan.dual import _assemble, _gauge_row, _kappa_column, _newton_step
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 5, 6, topology)
    m1 = np.exp(rng.standard_normal(6) * 0.3)
    spec = ProblemSpec(g, np.ones(6), m1, np.zeros(6), QUAD_H, CouplingSpec(epsilon=0.4))
    u = rng.standard_normal((g.n_t + 1, g.n_xnodes)) * 0.2
    R, J = _assemble(u, spec, 0.1, with_jacobian=True)
    J = J.toarray()
    assert np.max(np.abs(J @ np.ones(J.shape[1]))) <= 1e-10 * np.max(np.abs(J))
    assert np.linalg.matrix_rank(J) == J.shape[0] - 1
    e, ell = _kappa_column(g).ravel(), _gauge_row(spec).ravel()
    bordered = np.block([[J, e[:, None]], [ell[None, :], np.zeros((1, 1))]])
    expect = np.linalg.solve(bordered, np.append(-R.ravel(), -ell @ u.ravel()))
    z = np.append(u, 0.1)
    step = _newton_step(z, R.ravel(), spec, e, ell)
    assert np.max(np.abs(step - expect)) <= 1e-10 * np.max(np.abs(expect))
    # a chord step through a factor taken at the same point is the same step
    lu = splu(dual._bordered_jacobian(z, spec, e, ell))
    chord = _newton_step(z, R.ravel(), spec, e, ell, lu)
    assert np.max(np.abs(chord - expect)) <= 1e-10 * np.max(np.abs(expect))


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_jacobian_matches_fd(topology, rng):
    spec = _uniform_spec(5, 6, topology, eps=0.4)
    g = spec.grid
    shape = (g.n_t + 1, g.n_xnodes)
    u = rng.standard_normal(shape) * 0.2
    _, J = dual._assemble(u, spec, with_jacobian=True)
    for _ in range(5):
        v = rng.standard_normal(shape)
        v /= np.max(np.abs(v))
        h = 1e-6
        rp = _flatten_residual(u + h * v, spec)
        rm = _flatten_residual(u - h * v, spec)
        fd = (rp - rm) / (2 * h)
        jv = J @ v.ravel()
        assert np.max(np.abs(jv - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jv)))


@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
@pytest.mark.parametrize("scale", [0.0, 0.2])
def test_jacobian_pattern(topology, scale, rng):
    # the factor's fill follows the stored pattern: 9 entries on an interior
    # row, 5 on a time-boundary row and 3 on a lateral row, whatever the
    # values (at u = 0 the u_tx entries are stored zeros)
    spec = _uniform_spec(5, 6, topology, eps=0.4)
    g = spec.grid
    u = rng.standard_normal((g.n_t + 1, g.n_xnodes)) * scale
    J = dual._assemble(u, spec, with_jacobian=True)[1].tocsr()
    J.sum_duplicates()
    expect = np.full((g.n_t + 1, g.n_xnodes), 9)
    expect[[0, -1]] = 5
    if not g.periodic:
        expect[:, [0, -1]] = 3
    assert np.array_equal(np.diff(J.indptr), expect.ravel())


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def test_solve_uniform():
    spec = _uniform_spec(6, 8)
    u, m, log = solve_dual(spec)
    assert log.stages[-1]["residual"] <= NEWTON_TOL
    assert np.max(np.abs(m.values - 1.0)) <= 1e-7


def test_solve_gibbs_exact(solves):
    spec = solves.spec("gibbs", 16)
    u, m, log = solves.dual("gibbs", 16)
    assert log.stages[-1]["residual"] <= NEWTON_TOL
    assert np.max(np.abs(m.values - spec.m0)) <= 1e-8
    # gauge: weighted mean of u(T) against m1 vanishes
    g = spec.grid
    uT = u.values[-1]
    uT_c = 0.5 * (uT[1:] + uT[:-1])
    assert abs(float(np.sum(uT_c * spec.m1) * g.dx)) <= 1e-12


def test_solve_log_contents(solves):
    _, _, log = solves.dual("gibbs", 16)
    assert log.stages[-1]["residual"] <= 1e-8
    for st in log.stages:
        assert st["residual"] <= 1e-8
        assert st["sup_bound_rhs"] > 0.0
        assert np.isfinite(st["grad_sup"])
        # the delta -> 0 form of the a-priori bound delta |u_delta| <= rhs
        assert st["sup_bound_lhs"] == abs(st["kappa"])
        assert st["sup_bound_lhs"] <= st["sup_bound_rhs"]
    # 16 cells per axis is the coarsest level: one entry, on the target mesh
    assert [(st["n_t"], st["n_x"]) for st in log.stages] == [(16, 16)]


def test_solve_congestion_mass(solves):
    spec = solves.spec("congestion", 16)
    _, m, log = solves.dual("congestion", 16)
    assert log.stages[-1]["residual"] <= NEWTON_TOL
    g = spec.grid
    masses = np.sum(m.values, axis=1) * g.dx
    assert np.max(np.abs(masses - 1.0)) <= g.dt + g.dx  # first-order recovery
    # endpoint slices approach the data at first order
    tol = 5 * (g.dt + g.dx)
    assert np.sum(np.abs(m.values[0] - spec.m0)) * g.dx <= tol
    assert np.sum(np.abs(m.values[-1] - spec.m1)) * g.dx <= tol


def test_solve_bump_interval_against_primal():
    # a non-symmetric interval instance: kappa, the discrete compatibility
    # defect, is nonzero and shrinks with the mesh, and the recovered density
    # agrees with the primal one within criterion 2's 5(dt+dx)
    errs, kappas = [], []
    for n in (16, 32):
        spec = make_bump_spec(n, topology="interval-neumann")
        g = spec.grid
        u, m, log = solve_dual(spec)
        state, plog = solve_primal(spec, PrimalConfig())
        assert log.stages[-1]["residual"] <= NEWTON_TOL and plog.converged
        rows = np.sum(np.abs(m.values - state.m.values), axis=1) * g.dx
        errs.append(float(np.trapezoid(rows, dx=g.dt)))
        assert errs[-1] <= 5.0 * (g.dt + g.dx)
        kappas.append(abs(log.stages[-1]["kappa"]))
        uT = u.values[-1]
        assert abs(float(np.sum(0.5 * (uT[1:] + uT[:-1]) * spec.m1) * g.dx)) <= 1e-12
    assert errs[1] < errs[0]
    assert 0.0 < kappas[1] < kappas[0]


# ---------------------------------------------------------------------------
# nested meshes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [make_congestion_spec(32), make_bump_spec(32)],
                         ids=["interval", "torus"])
def test_coarsen_keeps_mass_and_node_data(spec):
    coarse, fine = dual._levels(spec)
    assert fine is spec
    g, gc = spec.grid, coarse.grid
    assert (gc.n_t, gc.n_x, gc.topology) == (16, 16, g.topology)
    for name in ("m0", "m1"):
        cells, fine_cells = getattr(coarse, name), getattr(spec, name)
        assert abs(float(np.sum(cells) * gc.dx) - 1.0) <= 1e-14
        assert np.max(np.abs(cells - 0.5 * (fine_cells[0::2] + fine_cells[1::2]))) <= 1e-15
    assert np.array_equal(coarse.V, 0.5 * (spec.V[0::2] + spec.V[1::2]))
    for name in ("m0_nodes", "m1_nodes", "V_nodes"):
        assert np.array_equal(getattr(coarse, name), getattr(spec, name)[::2])
    # 16 cells per axis is the coarsest level
    assert len(dual._levels(coarse)) == 1


def test_prolong_reproduces_bilinear(rng):
    a, b, c, d = rng.standard_normal(4)
    # interval: u = a + b t + c x + d t x is bilinear on every coarse cell
    fine = SpaceTimeGrid(1.0, -1.0, 2.0, 8, 12)
    coarse = SpaceTimeGrid(1.0, -1.0, 2.0, 4, 6)

    def bilinear(g):
        t, x = np.meshgrid(g.t_nodes(), g.x_nodes(), indexing="ij")
        return a + b * t + c * x + d * t * x

    assert np.max(np.abs(dual._prolong(bilinear(coarse), False) - bilinear(fine))) <= 1e-13
    # torus: (a + b t) p(x), p piecewise linear and periodic on the coarse nodes
    fine = SpaceTimeGrid(1.0, 0.0, 2.0, 8, 12, "torus")
    coarse = SpaceTimeGrid(1.0, 0.0, 2.0, 4, 6, "torus")
    p = rng.standard_normal(coarse.n_xnodes)
    uc = (a + b * coarse.t_nodes())[:, None] * p
    pf = np.interp(fine.x_nodes(), coarse.x_nodes(), p, period=coarse.length)
    expect = (a + b * fine.t_nodes())[:, None] * pf
    assert np.max(np.abs(dual._prolong(uc, True) - expect)) <= 1e-13


@pytest.mark.parametrize("spec", [
    make_congestion_spec(32),
    make_bump_spec(32),
    make_bump_spec(32, topology="interval-neumann"),
], ids=["congestion", "bump-torus", "bump-interval"])
def test_nested_matches_single_level(spec, monkeypatch):
    _, m, log = solve_dual(spec)
    assert [(st["n_t"], st["n_x"]) for st in log.stages] == [(16, 16), (32, 32)]
    # with the coarsest level at 32 cells the target mesh is solved from u = 0
    monkeypatch.setattr(dual, "MIN_LEVEL_CELLS", 32)
    _, m1, log1 = solve_dual(spec)
    assert len(log1.stages) == 1
    assert np.max(np.abs(m.values - m1.values)) <= 1e-9
    assert abs(log.stages[-1]["kappa"] - log1.stages[-1]["kappa"]) <= 1e-9


def test_odd_grid_single_level():
    bump = make_bump_spec(32)
    spec = ProblemSpec(SpaceTimeGrid(1.0, 0.0, 1.0, 9, 32, "torus"), bump.m0,
                       bump.m1, bump.V, bump.hamiltonian, bump.coupling)
    _, _, log = solve_dual(spec)
    assert log.stages[-1]["residual"] <= NEWTON_TOL
    assert [(st["n_t"], st["n_x"]) for st in log.stages] == [(9, 32)]


def test_newton_failure_names_level(monkeypatch):
    monkeypatch.setattr(dual, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(DualSolveError, match="16x16 level"):
        solve_dual(make_congestion_spec(32))


# ---------------------------------------------------------------------------
# chord steps on the finer levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    make_congestion_spec(64),
    make_bump_spec(64, topology="interval-neumann"),
], ids=["congestion", "bump-interval"])
def test_chord_matches_full_newton(spec, monkeypatch):
    u, _, log = solve_dual(spec)
    coarsest, *finer = log.stages
    assert coarsest["factorizations"] == coarsest["newton_iters"]
    for st in finer:  # one factor per finer level, far below the step cap
        assert st["factorizations"] == 1
        assert st["newton_iters"] <= 20
    # with a refactor at every step the finer levels take full Newton steps
    monkeypatch.setattr(dual, "REFACTOR_RATIO", 0.0)
    u_full, _, log_full = solve_dual(spec)
    for st in log_full.stages:
        assert st["factorizations"] == st["newton_iters"]
    assert np.max(np.abs(u.values - u_full.values)) <= 1e-10
    assert abs(log.stages[-1]["kappa"] - log_full.stages[-1]["kappa"]) <= 1e-12


def test_chord_factors_nothing_on_converged_levels(solves):
    # the prolonged gibbs solution already solves every finer level
    _, _, log = solves.dual("gibbs", 64)
    assert len(log.stages) == 3
    for st in log.stages[1:]:
        assert (st["newton_iters"], st["factorizations"]) == (0, 0)


def test_chord_refactors_when_line_search_fails(monkeypatch):
    # from u = 0 chord steps on one factor stagnate; with the ratio rule off
    # (an accepted step always leaves less than the whole residual) only a
    # failed line search on the stale factor refactors, and that suffices
    monkeypatch.setattr(dual, "REFACTOR_RATIO", 1.0)
    spec = make_congestion_spec(32)
    g = spec.grid
    z, iters, factors, resid = dual._newton_stage(
        np.zeros((g.n_t + 1) * g.n_xnodes + 1), spec, chord=True)
    assert resid <= NEWTON_TOL
    assert 1 < factors < iters

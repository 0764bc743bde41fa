import numpy as np
import pytest

from mfplan.grids import (
    DensityField,
    MomentumField,
    ProblemSpec,
    SpaceTimeGrid,
    validate_problem,
)
from mfplan.hamiltonian import CouplingSpec, HamiltonianSpec

H = HamiltonianSpec()
C = CouplingSpec(epsilon=0.5)


def test_grid_invariants():
    g = SpaceTimeGrid(2.0, 0.0, 1.0, 4, 8)
    assert g.dt == 0.5 and g.dx == 0.125
    assert g.n_faces == 9 and g.n_xnodes == 9
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 0.0, 1.0, 1, 8)
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 1.0, 0.0, 4, 8)
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8, "moebius")


def test_torus_counts():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8, "torus")
    assert g.n_faces == 8 and g.n_xnodes == 8
    assert len(g.x_nodes()) == 8


def test_avg_x_shapes_and_values():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 5)
    w = np.arange(18.0).reshape(3, 6)
    assert g.avg_x(w).shape == (3, 5)
    assert np.array_equal(g.avg_x(w)[0], [0.5, 1.5, 2.5, 3.5, 4.5])
    gt = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 5, "torus")
    assert gt.avg_x(np.zeros((3, 5))).shape == (3, 5)
    # the right edge of the last torus cell is edge 0
    assert np.array_equal(gt.avg_x(np.arange(5.0)), [0.5, 1.5, 2.5, 3.5, 2.0])


@pytest.mark.parametrize("n_t", [2, 3, 8])
def test_diff_t_nodes_exact_on_quadratics(n_t):
    # every row is a second-order stencil, so t^2 differentiates exactly
    g = SpaceTimeGrid(2.0, 0.0, 1.0, n_t, 4)
    t = g.t_nodes()[:, None] * np.ones(5)
    assert g.diff_t_nodes(t * t).shape == (n_t + 1, 5)
    assert np.allclose(g.diff_t_nodes(t * t), 2.0 * t, rtol=0.0, atol=1e-12)
    # the second difference is 2 inside and zero at t in {0, T}
    expect = np.full_like(t, 2.0)
    expect[[0, -1]] = 0.0
    assert np.allclose(g.diff2_t_nodes(t * t), expect, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_x", [2, 3, 8])
def test_diff_x_nodes_exact_on_quadratics(n_x):
    # centered inside and one-sided second order at both ends of an interval
    g = SpaceTimeGrid(1.0, -1.0, 2.0, 3, n_x)
    x = np.ones((4, 1)) * g.x_nodes()
    assert g.diff_x_nodes(x * x).shape == (4, n_x + 1)
    assert np.allclose(g.diff_x_nodes(x * x), 2.0 * x, rtol=0.0, atol=1e-12)
    # the second difference is 2 inside and zero at the ends of the interval
    expect = np.full_like(x, 2.0)
    expect[:, [0, -1]] = 0.0
    assert np.allclose(g.diff2_x_nodes(x * x), expect, rtol=0.0, atol=1e-12)


def test_diff_x_nodes_wraps_on_torus(rng):
    g = SpaceTimeGrid(1.0, 0.0, 2.0, 3, 6, "torus")
    u = rng.standard_normal((4, 6))
    expect, expect2 = np.empty_like(u), np.empty_like(u)
    for i in range(6):
        expect[:, i] = (u[:, (i + 1) % 6] - u[:, (i - 1) % 6]) / (2 * g.dx)
        expect2[:, i] = (u[:, (i + 1) % 6] - 2 * u[:, i] + u[:, (i - 1) % 6]) / g.dx**2
    assert np.allclose(g.diff_x_nodes(u), expect, rtol=0.0, atol=1e-14)
    assert np.allclose(g.diff2_x_nodes(u), expect2, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_t", [2, 5, 16])
@pytest.mark.parametrize("n_x", [2, 7, 16])
@pytest.mark.parametrize("topology", ["interval-neumann", "torus"])
def test_index_round_trips(n_t, n_x, topology):
    # cells, faces and nodes tile the domain consistently for all small grids
    g = SpaceTimeGrid(1.0, -1.0, 3.0, n_t, n_x, topology)
    cells, faces = g.x_cells(), g.x_nodes()
    assert len(cells) == n_x
    assert len(faces) == g.n_faces
    assert len(g.t_nodes()) == n_t + 1
    # each cell center is midway between its two faces
    right = np.roll(faces, -1) if g.periodic else faces[1:]
    if g.periodic:
        right = np.where(right <= faces, right + g.length, right)
    assert np.allclose(cells, 0.5 * (faces[: len(cells)] + right[: len(cells)]))
    # the faces off the no-flux boundary: all n_x on the torus, n_x - 1 inside
    # an interval
    assert len(faces[g.free]) == (n_x if g.periodic else n_x - 1)


def test_momentum_no_flux_enforced():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 3, 4)
    bad = np.ones((3, 5))
    with pytest.raises(ValueError):
        MomentumField(g, bad)
    ok = bad.copy()
    ok[:, 0] = ok[:, -1] = 0.0
    MomentumField(g, ok)


def test_validate_uniform_admissible():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    u = np.ones(8)
    spec = ProblemSpec(g, u, u, np.zeros(8), H, C)
    rep = validate_problem(spec)
    assert rep.mass_defect_m0 == 0.0
    assert rep.lipschitz_V == 0.0


def test_validate_zero_cell_rejected():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    m0 = np.ones(8)
    m0[3] = 0.0
    with pytest.raises(ValueError, match="m0"):
        ProblemSpec(g, m0, np.ones(8), np.zeros(8), H, C)


def test_validate_gibbs_lipschitz():
    # for m0 = e^{-V/eps}/Z the log-density slope equals |DV|/eps
    eps = 0.5
    g = SpaceTimeGrid(1.0, -2.0, 2.0, 4, 64)
    x = g.x_cells()
    V = 0.5 * x**2
    m0 = np.exp(-V / eps)
    m0 /= np.sum(m0) * g.dx
    spec = ProblemSpec(g, m0, m0, V, H, CouplingSpec(epsilon=eps))
    rep = validate_problem(spec)
    expected = np.max(np.abs(x)) / eps  # sup |DV|/eps = sup|x|/eps
    assert rep.lipschitz_log_m0 == pytest.approx(expected, rel=0.05)


def test_nonfinite_rejected():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    bad = np.ones(8)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        ProblemSpec(g, bad, np.ones(8), np.zeros(8), H, C)


def test_marginals_renormalized_on_ingestion():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    spec = ProblemSpec(g, 3.0 * np.ones(8), np.ones(8), np.zeros(8), H, C)
    assert abs(np.sum(spec.m0) * g.dx - 1.0) <= 1e-14
    assert spec.mass_defect_m0 == pytest.approx(2.0)


def test_interpolated_end_nodes():
    # on an interval the marginals' end nodes are extrapolated linearly in
    # log space (exact for exponential data, positive for positive data),
    # the potential's linearly (exact for affine data, of any sign)
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    x_c, x_n = g.x_cells(), g.x_nodes()
    spec = ProblemSpec(g, np.exp(3.0 * x_c), np.array([1.0] + [5.0] * 7),
                       2.0 - 4.0 * x_c, H, C)
    scale = np.sum(np.exp(3.0 * x_c)) * g.dx
    ends = [0, -1]
    assert np.allclose(spec.m0_nodes[ends] * scale, np.exp(3.0 * x_n[ends]),
                       rtol=1e-12)
    assert np.all(spec.m1_nodes > 0.0)
    assert np.allclose(spec.V_nodes, 2.0 - 4.0 * x_n, rtol=0.0, atol=1e-14)


def test_fields_immutable():
    g = SpaceTimeGrid(1.0, 0.0, 1.0, 4, 8)
    f = DensityField(g, np.ones((5, 8)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0

"""Each output check passes a good output and rejects a perturbed copy."""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import Instance  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def interval(n=8, **kw) -> Instance:
    x = -2.0 + (np.arange(n) + 0.5) * 4.0 / n
    base = dict(T=1.0, x_min=-2.0, x_max=2.0, n_t=n, n_x=n, periodic=False,
                V=0.5 * x * x, eps=0.5, f_power=None, h_family="quadratic",
                q=2.0, varpi=0.0, scale=1.0, checks=())
    base.update(kw)
    return Instance(**base)


def torus(n=4, **kw) -> Instance:
    base = dict(T=1.0, x_min=0.0, x_max=1.0, n_t=n, n_x=n, periodic=True,
                V=np.zeros(n), eps=0.3, f_power=(0.5, 2.0), h_family="power",
                q=2.5, varpi=0.5, scale=1.0, checks=())
    base.update(kw)
    return Instance(**base)


def bump(inst: Instance, center: float) -> np.ndarray:
    x = inst.x_min + (np.arange(inst.n_x) + 0.5) * inst.dx
    m = np.exp(-0.5 * ((x - center) / 0.5) ** 2) + 0.2
    return m / (np.sum(m) * inst.dx)


def failing(results) -> set[str]:
    return {c.name for c in results if not c.ok}


def test_instance_files_parse():
    inst = Instance.from_config(ROOT / "bench" / "instances" / "power-2x4.yaml")
    assert inst.periodic and inst.h_family == "power" and inst.f_power == (0.5, 2.0)
    inst = Instance.from_config(ROOT / "bench" / "instances" / "congestion-128.yaml")
    assert inst.n_t == 128 and len(inst.checks) == 4


def test_power_legendre_matches_a_brute_force_supremum():
    inst = torus()
    v = np.array([-3.0, -0.4, 0.0, 0.7, 2.5])
    p = np.linspace(-20.0, 20.0, 400001)
    brute = np.max(p[None, :] * v[:, None] - checks.h_value(inst, p)[None, :], axis=1)
    assert np.allclose(checks.legendre(inst, v), brute, atol=1e-8)
    assert checks.legendre(interval(), 2.0) == 2.0


def test_read_fields_reads_the_cli_format(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("field,t_index,x_index,value\n"
                    "a,0,0,1.5\na,0,1,2\na,1,0,-3\na,1,1,4e-17\nb,0,0,7\n")
    got = checks.read_fields(path)
    assert np.array_equal(got["a"], [[1.5, 2.0], [-3.0, 4e-17]])
    assert got["b"].shape == (1, 1)


def gibbs_fields(inst):
    m0 = np.exp(-inst.V / inst.eps)
    m0 /= np.sum(m0) * inst.dx
    m = np.tile(m0, (inst.n_t + 1, 1))
    return {"m_primal": m.copy(), "w_primal": np.zeros((inst.n_t, inst.n_x + 1)),
            "m_dual": m.copy(), "u_dual": np.zeros((inst.n_t + 1, inst.n_x + 1))}


def test_gibbs_checks():
    inst = interval()
    good = gibbs_fields(inst)
    assert failing(checks.gibbs_checks(inst, 0, good)) == set()
    assert failing(checks.gibbs_checks(inst, 3, good)) == {"exit_0"}

    bad = gibbs_fields(inst)
    bad["m_primal"][3, 2] += 1e-4
    assert "primal_stationary" in failing(checks.gibbs_checks(inst, 0, bad))

    bad = gibbs_fields(inst)
    bad["m_dual"][3, 2] += 1e-6
    assert "dual_stationary" in failing(checks.gibbs_checks(inst, 0, bad))

    bad = gibbs_fields(inst)
    bad["u_dual"] += 1e-3 * np.arange(inst.n_x + 1)  # the dual now moves mass
    assert failing(checks.gibbs_checks(inst, 0, bad)) == {"duality_gap"}


def congestion_case():
    inst = interval(n=64, f_power=(1.0, 1.0), eps=0.25,
                    checks=("duality_gap", "energy_identity"))
    m, w = checks.straight_line(inst, bump(inst, -0.8), bump(inst, 0.8))
    fields = {"m_primal": m, "w_primal": w, "m_dual": m.copy()}
    report = {"checks": [{"name": n, "passed": True, "skipped": False}
                         for n in inst.checks]}
    return inst, fields, report


def test_congestion_checks():
    inst, good, report = congestion_case()
    assert failing(checks.congestion_checks(inst, 0, good, report)) == set()
    assert failing(checks.congestion_checks(inst, 3, good, report)) == {
        "exit_0_checks_pass"}
    skipped = {"checks": [dict(c, skipped=True) for c in report["checks"]]}
    assert failing(checks.congestion_checks(inst, 0, good, skipped)) == {
        "exit_0_checks_pass"}

    inst, bad, report = congestion_case()
    bad["m_primal"][2:-2] *= 1.0 + 1e-6
    assert "primal_mass" in failing(checks.congestion_checks(inst, 0, bad, report))

    inst, bad, report = congestion_case()
    bad["w_primal"][3, 4] += 1e-6
    assert failing(checks.congestion_checks(inst, 0, bad, report)) == {"continuity"}

    inst, bad, report = congestion_case()
    bad["w_primal"][:, 0] = 1e-6  # flux through the no-flux wall
    assert "continuity" in failing(checks.congestion_checks(inst, 0, bad, report))

    inst, bad, report = congestion_case()
    bad["m_dual"] = np.tile(bump(inst, 1.5), (inst.n_t + 1, 1))
    assert "l1_primal_dual" in failing(checks.congestion_checks(inst, 0, bad, report))

    inst, bad, report = congestion_case()
    bad["m_dual"][4, 0] = -1e-9
    assert failing(checks.congestion_checks(inst, 0, bad, report)) == {
        "dual_positive_mass"}


def test_sweep_checks():
    inst = interval(n=64, periodic=True, x_min=0.0, x_max=1.0)
    eps = np.array([0.4, 0.2, 0.1, 0.05, 0.0])
    err = np.array([0.40, 0.30, 0.20, 0.10, 0.01])
    report = {"sweep": {"converged": [True] * 5}}
    assert failing(checks.sweep_checks(inst, 0, eps, err, report)) == set()

    rising = err.copy()
    rising[3] = rising[2] + 0.3 * inst.dx
    assert failing(checks.sweep_checks(inst, 0, eps, rising, report)) == {
        "error_nonincreasing"}
    far = err.copy()
    far[-1] = 3.5 * inst.dx
    assert failing(checks.sweep_checks(inst, 0, eps, far, report)) == {
        "zero_eps_limit"}
    stuck = {"sweep": {"converged": [True, True, True, True, False]}}
    assert failing(checks.sweep_checks(inst, 2, eps, err, stuck)) == {
        "exit_0", "members_converged"}


def power_case():
    inst = torus()
    m, w = checks.straight_line(inst, bump(inst, 0.25), bump(inst, 0.5))
    return inst, {"m_primal": m, "w_primal": w}, {"primal": {"converged": True}}


def test_power_checks():
    inst, good, log = power_case()
    assert checks.continuity_residual(inst, good["m_primal"], good["w_primal"]) < 1e-12
    assert failing(checks.power_checks(inst, 0, good, log)) == set()
    assert failing(checks.power_checks(inst, 0, good, {})) == {"converged"}

    inst, bad, log = power_case()
    bad["w_primal"] = bad["w_primal"] + 0.3  # still feasible on the circle
    assert failing(checks.power_checks(inst, 0, bad, log)) == {"beats_straight_line"}

    inst, bad, log = power_case()
    bad["m_primal"][2, 1] = -bad["m_primal"][2, 1]
    assert {"positive", "primal_mass", "continuity"} <= failing(
        checks.power_checks(inst, 0, bad, log))


def test_objective_grows_when_the_flux_is_shifted():
    inst, good, _ = power_case()
    j = checks.objective(inst, good["m_primal"], good["w_primal"])
    for shift in (-0.3, 0.3):
        assert checks.objective(inst, good["m_primal"], good["w_primal"] + shift) > j


def test_identical_outputs(tmp_path):
    a, b = tmp_path / "a" / "outputs", tmp_path / "b" / "outputs"
    for d in (a, b):
        d.mkdir(parents=True)
        (d / "log.json").write_text("{}\n")
        (d / "fields.csv").write_text("field,t_index,x_index,value\nm,0,0,1\n")
    assert failing(checks.identical_outputs(a, b)) == set()
    (b / "fields.csv").write_text("field,t_index,x_index,value\nm,0,0,1.0000000000000002\n")
    (b / "extra.csv").write_text("")
    assert failing(checks.identical_outputs(a, b)) == {
        "identical_fields.csv", "identical_extra.csv"}


def test_unreadable_outputs_fail_the_round(tmp_path):
    got, figures = checks.check_round("gibbs-64", interval(), tmp_path, 0)
    assert got and not any(c.ok for c in got) and figures == {}

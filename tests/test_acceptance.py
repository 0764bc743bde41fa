"""End-to-end acceptance criteria, one reported pass/fail line each.

Each test prints a single summary line directly to the terminal (bypassing
capture) so the acceptance status is visible in any pytest run.
"""
import sys
import time

import numpy as np
import pytest

from mfplan.dual import NEWTON_TOL
from mfplan.estimates import (
    check_displacement_convexity,
    check_energy_identity,
    check_lp_bounds,
    check_ut_max_principle,
    duality_gap,
    eps_sweep,
)
from mfplan.grids import ProblemSpec, SpaceTimeGrid
from mfplan.hamiltonian import CouplingSpec, HamiltonianSpec

from conftest import make_bump_spec


@pytest.fixture()
def report(capfd):
    def _report(name: str, ok: bool, detail: str):
        with capfd.disabled():
            sys.stdout.write(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
            sys.stdout.flush()
    return _report


BENCH_NAMES = ("gibbs", "congestion", "bump")


def _l1_spacetime(a: np.ndarray, b: np.ndarray, grid: SpaceTimeGrid) -> float:
    rows = np.sum(np.abs(a - b), axis=1) * grid.dx
    return float(np.trapezoid(rows, dx=grid.dt))


def test_criterion_1_gibbs_stationary(solves, report):
    spec = solves.spec("gibbs", 64)
    t0 = time.perf_counter()
    state, plog = solves.primal("gibbs", 64)
    t_primal = time.perf_counter() - t0
    t0 = time.perf_counter()
    u, m, dlog = solves.dual("gibbs", 64)
    t_dual = time.perf_counter() - t0
    sup_p = float(np.max(np.abs(state.m.values - spec.m0)))
    sup_d = float(np.max(np.abs(m.values - spec.m0)))
    gap = duality_gap(state, u, m, spec)
    ok = (plog.converged and dlog.stages[-1]["residual"] <= NEWTON_TOL
          and sup_p <= 1e-5 and sup_d <= 1e-7 and gap <= 1e-8
          and t_primal <= 10.0 and t_dual <= 10.0)
    report("criterion-1 gibbs-stationary-64x64", ok,
            f"sup_primal={sup_p:.2e} (<=1e-5) sup_dual={sup_d:.2e} (<=1e-7) "
            f"gap={gap:.2e} (<=1e-8) t_primal={t_primal:.1f}s t_dual={t_dual:.1f}s")
    assert ok


def test_criterion_2_recovery_consistency(solves, report):
    details = []
    ok = True
    for name in BENCH_NAMES:
        errs = []
        for n in (32, 64):
            spec = solves.spec(name, n)
            state, plog = solves.primal(name, n)
            _, m, dlog = solves.dual(name, n)
            assert plog.converged and dlog.stages[-1]["residual"] <= NEWTON_TOL
            err = _l1_spacetime(m.values, state.m.values, spec.grid)
            bound = 5.0 * (spec.grid.dt + spec.grid.dx)
            ok = ok and err <= bound
            errs.append(err)
        ok = ok and errs[1] < errs[0]
        details.append(f"{name}: {errs[0]:.4f}->{errs[1]:.4f}")
    report("criterion-2 recovery-consistency", ok,
            "L1(m_dual, m_primal) per benchmark 32->64 within 5(dt+dx), "
            "decreasing [" + "; ".join(details) + "]")
    assert ok


def test_criterion_2b_power_hamiltonian_consistency(solves, report):
    # criterion 2 on a non-quadratic H: the primal's radial prox against the
    # dual's Newton continuation on H = (p^2 + 0.5^2)^{1.25}
    errs, bounds = [], []
    for n in (16, 32):
        spec = solves.spec("power", n)
        state, plog = solves.primal("power", n)
        _, m, dlog = solves.dual("power", n)
        assert plog.converged and dlog.stages[-1]["residual"] <= NEWTON_TOL
        errs.append(_l1_spacetime(m.values, state.m.values, spec.grid))
        bounds.append(5.0 * (spec.grid.dt + spec.grid.dx))
    ok = all(e <= b for e, b in zip(errs, bounds)) and errs[1] < errs[0]
    report("criterion-2b power-hamiltonian-consistency", ok,
            f"L1(m_dual, m_primal) 16->32 within 5(dt+dx), decreasing "
            f"[{errs[0]:.4f} (<={bounds[0]:.4f}) -> {errs[1]:.4f} "
            f"(<={bounds[1]:.4f})]")
    assert ok


def test_criterion_3_eps_sweep(report):
    spec = make_bump_spec(64, eps=0.4)
    t0 = time.perf_counter()
    rep = eps_sweep(spec, [0.4, 0.2, 0.1, 0.05, 0.0])
    elapsed = time.perf_counter() - t0
    final_ok = rep.errors[-1] <= 3.0 * spec.grid.dx
    ok = rep.passed and final_ok and elapsed <= 300.0
    report("criterion-3 eps-sweep-64x64", ok,
            f"errors={['%.4f' % e for e in rep.errors]} monotone={rep.passed} "
            f"e(0)={rep.errors[-1]:.4f} (<= {3.0 * spec.grid.dx:.4f}) "
            f"t={elapsed:.0f}s (<=300s)")
    assert ok


def test_criterion_4_displacement_convexity(solves, report):
    # the violation, when nonzero, must shrink at first order under halving;
    # the bump instance is pre-asymptotic below 64x64
    pairs = {"gibbs": (32, 64), "congestion": (32, 64), "bump": (64, 128)}
    ok = True
    details = []
    for name, (n0, n1) in pairs.items():
        viols = []
        for n in (n0, n1):
            spec = solves.spec(name, n)
            u, m, _ = solves.dual(name, n)
            res = check_displacement_convexity(u, m, spec)
            ok = ok and res.passed and not res.skipped
            viols.append(res.details["max_violation"])
        shrink = viols[1] <= max(0.55 * viols[0], 1e-10)
        ok = ok and shrink
        details.append(f"{name}: viol {viols[0]:.2e}->{viols[1]:.2e}")
    report("criterion-4 displacement-convexity", ok,
            "U(r)=r^2 violation under halving [" + "; ".join(details) + "]")
    assert ok


def test_criterion_5_ut_max_principle(solves, report):
    ok = True
    details = []
    for name in BENCH_NAMES:
        for n in (32, 64):
            spec = solves.spec(name, n)
            u, m, dlog = solves.dual(name, n)
            assert dlog.stages[-1]["residual"] <= NEWTON_TOL
            res = check_ut_max_principle(u, m, spec)
            ok = ok and res.passed
        details.append(f"{name}: lhs={res.lhs:.3f} rhs+slack="
                       f"{res.rhs + res.tolerance:.3f}")
    report("criterion-5 ut-max-principle", ok,
            "interior |D_t u| <= boundary + 10(dt+dx) on all dual solves ["
            + "; ".join(details) + "]")
    assert ok


def test_criterion_6_lp_machinery(solves, report):
    # f(m) = m satisfies the coercivity hypothesis with c0 = r0 = 1
    k0 = {p: [] for p in ("2.0", "4.0", "inf")}
    k1_ok = True
    for n in (32, 64, 128):
        spec = solves.spec("congestion", n)
        u, m, _ = solves.dual("congestion", n)
        res = check_lp_bounds(u, m, spec)
        for p in k0:
            entry = res.details[p]
            k0[p].append(entry["K0"])
            k1_ok = k1_ok and np.isfinite(entry["K1"]) and entry["K1"] > 0.0
    stable = all(
        max(v) <= 1.2 * min(v) and np.all(np.isfinite(v)) for v in k0.values()
    )
    ok = stable and k1_ok
    detail = "; ".join(
        f"p={p}: K0 in [{min(v):.3f}, {max(v):.3f}]" for p, v in k0.items()
    )
    report("criterion-6 lp-machinery", ok,
            f"K0 stable within 20% across 32/64/128, K1 finite positive [{detail}]")
    assert ok


def test_criterion_7_energy_identity(solves, report):
    ok = True
    details = []
    for name in BENCH_NAMES:
        gaps = []
        for n in (32, 64):
            spec = solves.spec(name, n)
            u, m, _ = solves.dual(name, n)
            res = check_energy_identity(u, m, spec)
            ok = ok and res.passed
            gaps.append(res.details["relative_gap"])
        # first-order decrease (gibbs is exact, so only require non-growth)
        ok = ok and gaps[1] <= max(0.75 * gaps[0], 1e-9)
        details.append(f"{name}: {gaps[0]:.2e}->{gaps[1]:.2e}")
    report("criterion-7 energy-identity", ok,
            "relative gap <= 10(dt+dx), first-order decreasing ["
            + "; ".join(details) + "]")
    assert ok


def _jacobian_configs():
    yield ("interval-neumann", HamiltonianSpec(),
           CouplingSpec(epsilon=0.5))
    yield ("torus", HamiltonianSpec(),
           CouplingSpec(epsilon=0.3, f_family="power", f_params=(1.0, 1.0)))
    yield ("interval-neumann", HamiltonianSpec(scale=2.0),
           CouplingSpec(epsilon=0.4, f_family="log", f_params=(0.3,)))
    yield ("torus", HamiltonianSpec(family="power", q=2.5, varpi=0.5),
           CouplingSpec(epsilon=0.5, f_family="power", f_params=(0.5, 2.0)))
    yield ("interval-neumann", HamiltonianSpec(family="power", q=2.0, varpi=1.0),
           CouplingSpec(epsilon=0.6))


def test_criterion_8_jacobian_exactness(rng, report):
    from mfplan.dual import _assemble

    worst = 0.0
    count = 0
    for topology, H, C in _jacobian_configs():
        g = SpaceTimeGrid(1.1, -1.0, 1.0, 6, 6, topology)
        x = g.x_cells()
        m0 = np.exp(0.3 * np.cos(np.pi * x))
        m1 = np.exp(-0.2 * np.sin(np.pi * x))
        spec = ProblemSpec(g, m0, m1, 0.2 * x**2, H, C)
        shape = (g.n_t + 1, g.n_xnodes)
        for _ in range(4):
            u = rng.standard_normal(shape) * 0.2
            _, J = _assemble(u, spec, with_jacobian=True)
            v = rng.standard_normal(shape)
            v /= np.max(np.abs(v))
            h = 1e-6
            rp, _ = _assemble(u + h * v, spec, with_jacobian=False)
            rm, _ = _assemble(u - h * v, spec, with_jacobian=False)
            fd = (rp - rm).ravel() / (2 * h)
            jv = J @ v.ravel()
            rel = float(np.max(np.abs(jv - fd)) / max(1.0, np.max(np.abs(jv))))
            worst = max(worst, rel)
            count += 1
    ok = count == 20 and worst <= 1e-6
    report("criterion-8 jacobian-exactness", ok,
            f"{count} random states, worst relative error {worst:.2e} (<=1e-6)")
    assert ok


def test_criterion_9_invariant_suites(solves, report):
    # headline invariants re-asserted on the large cached solves; the full
    # exhaustive versions live in the per-module test files of this suite
    ok = True
    for name in BENCH_NAMES:
        spec = solves.spec(name, 64)
        state, _ = solves.primal(name, 64)
        for k in range(spec.grid.n_t + 1):
            ok = ok and abs(np.sum(state.m.values[k]) * spec.grid.dx - 1.0) <= 1e-8
    c = CouplingSpec(epsilon=0.5, f_family="power", f_params=(1.0, 1.0))
    mvals = np.logspace(-6, 6, 200)
    ok = ok and float(np.max(np.abs(c.phi(c.f_eps(mvals)) - mvals)
                             / mvals)) <= 1e-10
    report("criterion-9 invariant-suites", ok,
            "mass conservation <=1e-8 on all primal solves; phi round-trip "
            "<=1e-10 (full suites in module tests)")
    assert ok

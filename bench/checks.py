"""Output checks made apart from the program.

Each check reads what a round wrote (fields.csv, log.json, report.json,
eps_error.csv) and tests a property the method must have, with the
benchmark's own arithmetic: the discrete objective, the Legendre transform
of H, the continuity residual, masses and L1 distances are recomputed here
from the instance file, never taken from the program.  A check is one
operation of the benchmark.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Instance:
    """The parts of an mfplan instance file the checks need."""

    T: float
    x_min: float
    x_max: float
    n_t: int
    n_x: int
    periodic: bool
    V: np.ndarray  # potential at the space cells
    eps: float
    f_power: tuple[float, float] | None  # f(m) = c m^a, or None for f = 0
    h_family: str
    q: float
    varpi: float
    scale: float
    checks: tuple[str, ...]

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @classmethod
    def from_config(cls, path) -> "Instance":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        g, prob = raw["grid"], raw["problem"]
        n_x = int(g["n_x"])
        dx = (float(g["x_max"]) - float(g["x_min"])) / n_x
        x = float(g["x_min"]) + (np.arange(n_x) + 0.5) * dx
        pot = prob.get("potential", {"family": "zero"})
        if pot["family"] == "zero":
            V = np.zeros(n_x)
        elif pot["family"] == "quadratic":
            V = 0.5 * pot.get("scale", 1.0) * (x - pot.get("center", 0.0)) ** 2
        else:
            raise ValueError(f"no check support for potential {pot['family']!r}")
        coup = prob.get("coupling", {})
        f_family = coup.get("f_family", "zero")
        if f_family not in ("zero", "power"):
            raise ValueError(f"no check support for coupling {f_family!r}")
        ham = prob.get("hamiltonian", {})
        return cls(
            T=float(g["t_horizon"]), x_min=float(g["x_min"]),
            x_max=float(g["x_max"]), n_t=int(g["n_t"]), n_x=n_x,
            periodic=g.get("topology", "interval-neumann") == "torus",
            V=V, eps=float(coup.get("epsilon", 1.0)),
            f_power=tuple(coup["f_params"]) if f_family == "power" else None,
            h_family=ham.get("family", "quadratic"),
            q=float(ham.get("q", 2.0)), varpi=float(ham.get("varpi", 0.0)),
            scale=float(ham.get("scale", 1.0)),
            checks=tuple(raw.get("checks", ())),
        )


# ---------------------------------------------------------------------------
# reading the outputs
# ---------------------------------------------------------------------------

def read_fields(path) -> dict[str, np.ndarray]:
    """fields.csv as one (t_index, x_index) array per field."""
    rows: dict[str, list] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            name, k, i, value = line.split(",")
            rows.setdefault(name, []).append((int(k), int(i), float(value)))
    out = {}
    for name, entries in rows.items():
        k, i, v = (np.array(c) for c in zip(*entries))
        arr = np.full((k.max() + 1, i.max() + 1), np.nan)
        arr[k, i] = v
        out[name] = arr
    return out


def read_eps_error(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# the benchmark's own discrete calculus
# ---------------------------------------------------------------------------

def h_value(inst: Instance, p):
    if inst.h_family == "quadratic":
        return 0.5 * inst.scale * p * p
    return inst.scale * (p * p + inst.varpi ** 2) ** (inst.q / 2)


def h_grad(inst: Instance, p):
    if inst.h_family == "quadratic":
        return inst.scale * p
    return inst.scale * inst.q * p * (p * p + inst.varpi ** 2) ** (inst.q / 2 - 1)


def legendre(inst: Instance, v) -> np.ndarray:
    """L(v) = sup_p (p v - H(p)), with p found by bisection on H_p(p) = |v|."""
    v = np.asarray(v, dtype=float)
    if inst.h_family == "quadratic":
        return v * v / (2.0 * inst.scale)
    a = np.abs(v)
    lo, hi = np.zeros_like(a), np.ones_like(a)
    while np.any(short := h_grad(inst, hi) < a):
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = h_grad(inst, mid) < a
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    p = 0.5 * (lo + hi)
    return p * a - h_value(inst, p)


def div_w(inst: Instance, w: np.ndarray) -> np.ndarray:
    if inst.periodic:
        return (np.roll(w, -1, axis=1) - w) / inst.dx
    return (w[:, 1:] - w[:, :-1]) / inst.dx


def objective(inst: Instance, m: np.ndarray, w: np.ndarray) -> float:
    """dt dx sum of m L(w/m) + eps m (log m - 1) + V m + F(m) over cells.

    m lives at (time node, space cell) and w at (time cell, space face);
    both are averaged to the cell centres first, as the method defines.
    """
    mc = 0.5 * (m[:-1] + m[1:])
    if inst.periodic:
        wc = 0.5 * (w + np.roll(w, -1, axis=1))
    else:
        wc = 0.5 * (w[:, :-1] + w[:, 1:])
    if np.any(mc <= 0.0):
        return float("inf")
    F = 0.0
    if inst.f_power is not None:
        c, a = inst.f_power
        F = c * (mc ** (a + 1.0) - 1.0) / (a + 1.0)
    cell = (mc * legendre(inst, wc / mc) + inst.eps * mc * (np.log(mc) - 1.0)
            + inst.V * mc + F)
    return float(np.sum(cell) * inst.dt * inst.dx)


def continuity_residual(inst: Instance, m: np.ndarray, w: np.ndarray) -> float:
    """Max of |m_t - D_x w| over cells, and of |w| on no-flux faces."""
    res = np.abs((m[1:] - m[:-1]) / inst.dt - div_w(inst, w))
    worst = float(np.max(res))
    if not inst.periodic:
        worst = max(worst, float(np.max(np.abs(w[:, [0, -1]]))))
    return worst


def mass_defect(inst: Instance, m: np.ndarray) -> float:
    return float(np.max(np.abs(np.sum(m, axis=1) * inst.dx - 1.0)))


def l1_spacetime(inst: Instance, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoid in time of the L1 distance in space."""
    rows = np.sum(np.abs(a - b), axis=1) * inst.dx
    return float(np.trapezoid(rows, dx=inst.dt))


def dual_momentum(inst: Instance, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w = m H_p(D_x u) at the faces, from the dual potential and density."""
    u_tc = 0.5 * (u[:-1] + u[1:])
    m_tc = 0.5 * (m[:-1] + m[1:])
    if inst.periodic:
        ux = (np.roll(u_tc, -1, axis=1) - np.roll(u_tc, 1, axis=1)) / (2 * inst.dx)
        return 0.5 * (m_tc + np.roll(m_tc, 1, axis=1)) * h_grad(inst, ux)
    w = np.zeros((inst.n_t, inst.n_x + 1))
    ux = (u_tc[:, 2:] - u_tc[:, :-2]) / (2 * inst.dx)
    w[:, 1:-1] = 0.5 * (m_tc[:, 1:] + m_tc[:, :-1]) * h_grad(inst, ux)
    return w


def duality_gap(inst: Instance, fields: dict) -> float:
    jp = objective(inst, fields["m_primal"], fields["w_primal"])
    jd = objective(inst, fields["m_dual"],
                   dual_momentum(inst, fields["u_dual"], fields["m_dual"]))
    return abs(jp - jd) / (1.0 + abs(jp))


def straight_line(inst: Instance, m0: np.ndarray, m1: np.ndarray):
    """A feasible competitor: m linear in time, w solving the continuity equation."""
    lam = np.arange(inst.n_t + 1)[:, None] / inst.n_t
    m = (1.0 - lam) * m0 + lam * m1
    faces = np.concatenate([[0.0], np.cumsum((m1 - m0) / inst.T) * inst.dx])
    if inst.periodic:
        faces = faces[:-1] - np.mean(faces[:-1])
    else:
        faces[-1] = 0.0
    return m, np.tile(faces, (inst.n_t, 1))


# ---------------------------------------------------------------------------
# the checks, one list per workload
# ---------------------------------------------------------------------------

def _check(name: str, value: float, bound: float) -> Check:
    return Check(name, bool(value <= bound), f"{value:.3e} <= {bound:.3e}")


def _exit(code: int) -> Check:
    return Check("exit_0", code == 0, f"exit code {code}")


def gibbs_checks(inst: Instance, code: int, fields: dict) -> list[Check]:
    m0 = np.exp(-inst.V / inst.eps)
    m0 /= np.sum(m0) * inst.dx
    return [
        _exit(code),
        _check("primal_stationary",
               float(np.max(np.abs(fields["m_primal"] - m0))), 1e-5),
        _check("dual_stationary",
               float(np.max(np.abs(fields["m_dual"] - m0))), 1e-7),
        _check("duality_gap", duality_gap(inst, fields), 1e-8),
    ]


def congestion_checks(inst: Instance, code: int, fields: dict,
                      report: dict) -> list[Check]:
    results = report.get("checks", [])
    requested = [c["name"] for c in results if c["passed"] and not c["skipped"]]
    m_dual = fields["m_dual"]
    h = inst.dt + inst.dx
    return [
        Check("exit_0_checks_pass",
              code == 0 and sorted(requested) == sorted(inst.checks),
              f"exit code {code}, passed {requested}"),
        _check("primal_mass", mass_defect(inst, fields["m_primal"]), 1e-8),
        _check("continuity",
               continuity_residual(inst, fields["m_primal"], fields["w_primal"]),
               1e-8),
        _check("l1_primal_dual",
               l1_spacetime(inst, m_dual, fields["m_primal"]), 5.0 * h),
        Check("dual_positive_mass",
              bool(np.all(m_dual > 0.0)) and mass_defect(inst, m_dual) <= h,
              f"min {np.min(m_dual):.3e}, mass defect "
              f"{mass_defect(inst, m_dual):.3e} <= {h:.3e}"),
    ]


def sweep_checks(inst: Instance, code: int, eps: np.ndarray, err: np.ndarray,
                 report: dict) -> list[Check]:
    converged = report.get("sweep", {}).get("converged", [])
    slack = 0.25 * inst.dx
    rises = np.diff(err) - slack
    ordered = bool(np.all(np.diff(eps) < 0.0)) and eps[-1] == 0.0
    return [
        _exit(code),
        Check("members_converged", len(converged) == len(eps) and all(converged),
              f"converged {converged}"),
        Check("error_nonincreasing", ordered and bool(np.all(rises <= 0.0)),
              f"e(eps) {np.array2string(err, precision=4)} with slack {slack:.3e}"),
        _check("zero_eps_limit", float(err[-1]), 3.0 * inst.dx),
    ]


def power_checks(inst: Instance, code: int, fields: dict,
                 log: dict) -> list[Check]:
    m, w = fields["m_primal"], fields["w_primal"]
    m_c, w_c = straight_line(inst, m[0], m[-1])
    j_out, j_comp = objective(inst, m, w), objective(inst, m_c, w_c)
    return [
        _exit(code),
        Check("converged", bool(log.get("primal", {}).get("converged")),
              f"log.json primal {log.get('primal')}"),
        _check("primal_mass", mass_defect(inst, m), 1e-8),
        _check("continuity", continuity_residual(inst, m, w), 1e-8),
        Check("positive", bool(np.all(m > 0.0)), f"min {np.min(m):.3e}"),
        Check("beats_straight_line", j_out <= j_comp,
              f"J(output) {j_out:.9f} <= J(straight line) {j_comp:.9f}"),
    ]


def _json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_round(workload: str, inst: Instance, outputs: Path,
                code: int) -> tuple[list[Check], dict[str, float]]:
    """The workload's checks on one round's outputs, and its accuracy figures.

    A missing or unreadable output fails every check of the round.
    """
    figures: dict[str, float] = {}
    try:
        if workload == "sweep-64":
            eps, err = read_eps_error(outputs / "eps_error.csv")
            figures["oracle_l1"] = float(err[-1])
            return sweep_checks(inst, code, eps, err,
                                _json(outputs / "report.json")), figures
        fields = read_fields(outputs / "fields.csv")
        if "m_dual" in fields:
            figures["l1_primal_dual"] = l1_spacetime(
                inst, fields["m_dual"], fields["m_primal"])
        if workload == "gibbs-64":
            return gibbs_checks(inst, code, fields), figures
        if workload == "congestion-128":
            return congestion_checks(inst, code, fields,
                                     _json(outputs / "report.json")), figures
        return power_checks(inst, code, fields, _json(outputs / "log.json")), figures
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [Check("outputs_readable", False, f"{type(exc).__name__}: {exc}")], figures


def identical_outputs(a: Path, b: Path) -> list[Check]:
    """One check per output file: byte-identical in both rounds."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    out = []
    for name in names:
        pa, pb = a / name, b / name
        same = pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()
        out.append(Check(f"identical_{name}", same, f"{a.parent.name} vs {b.parent.name}"))
    return out

"""Radial Hamiltonians with q-growth and couplings f^eps = f + eps*log.

Two Hamiltonian families:

* ``quadratic``:  H(p) = scale * p^2 / 2 (q = 2 and varpi = 0 only)
* ``power``:      H(p) = scale * (p^2 + varpi^2)^(q/2)

For varpi > 0 the power family is C^2 with H_pp comparable to
(|p| + varpi)^(q-2); for varpi = 0 and q != 2 it is degenerate or singular
at p = 0 and only the divergence-form (primal) solver accepts it.

Couplings are nondecreasing f on (0, inf) from the families zero,
power f(m) = c*m^a (a > 0) and log f(m) = c*log m, combined with the
entropy weight eps into f^eps(r) = f(r) + eps*log r, whose inverse phi is
evaluated in y = log m.

Every iterative scalar solve of the package (phi for a power coupling, the
Legendre transform, the momentum dual p of the cell prox and the cell prox
itself) is one call of safeguarded_newton.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUADRATIC = "quadratic"
POWER = "power"
MAX_ITER = 100  # evaluations before safeguarded_newton gives up


class DegenerateHamiltonianError(ValueError):
    """Raised where a singular/degenerate H_pp is not supported."""


@dataclass(frozen=True)
class HamiltonianSpec:
    family: str = QUADRATIC
    q: float = 2.0
    varpi: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in (QUADRATIC, POWER):
            raise ValueError(f"unknown hamiltonian family {self.family!r}")
        if self.q <= 1.0:
            raise ValueError("growth exponent q must exceed 1")
        if self.varpi < 0.0 or self.scale <= 0.0:
            raise ValueError("need varpi >= 0 and scale > 0")
        if self.family == QUADRATIC and (self.q != 2.0 or self.varpi != 0.0):
            raise ValueError("the quadratic family takes only scale "
                             "(q = 2, varpi = 0)")

    @property
    def smooth(self) -> bool:
        """C^2 with H_pp bounded away from 0 on compacts (the dual solver needs it)."""
        return self.q == 2.0 or self.varpi > 0.0


def h_eval(H: HamiltonianSpec, p):
    """Return (H, H_p, H_pp) at p; vectorized over arrays.

    Signals DegenerateHamiltonianError when H_pp is unbounded at p = 0
    (varpi = 0, q < 2 evaluated at the origin).
    """
    p = np.asarray(p, dtype=float)
    if H.family == POWER and H.varpi == 0.0 and H.q < 2.0 and np.any(p == 0.0):
        raise DegenerateHamiltonianError(
            "H_pp singular at p=0 for varpi=0, q<2; use the primal solver"
        )
    return _h_eval(H, p)


def _h_eval(H: HamiltonianSpec, p: np.ndarray):
    """(H, H_p, H_pp) at p, with H_pp = +inf at a singular origin."""
    if H.family == QUADRATIC:
        s = H.scale
        return 0.5 * s * p * p, s * p, np.broadcast_to(np.asarray(s), p.shape).copy()
    s, q, w2 = H.scale, H.q, H.varpi**2
    r2 = p * p + w2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = s * r2 ** (q / 2)
        hp = s * q * p * r2 ** (q / 2 - 1)
        hpp = s * q * r2 ** (q / 2 - 2) * ((q - 1) * p * p + w2)
    if w2 == 0.0:  # s|p|^q: H and H_p vanish at 0, H_pp is 0, 2s or +inf
        origin = p == 0.0
        hp = np.where(origin, 0.0, hp)
        hpp = np.where(origin, 2.0 * s if q == 2.0 else (0.0 if q > 2.0 else np.inf), hpp)
    return val, hp, hpp


def h_third(H: HamiltonianSpec, p):
    """Third derivative H_ppp (needed by the exact dual Jacobian)."""
    p = np.asarray(p, dtype=float)
    if H.family == QUADRATIC:
        return np.zeros_like(p)
    s, q, w2 = H.scale, H.q, H.varpi**2
    r2 = p * p + w2
    safe = np.where(r2 == 0.0, 1.0, r2)
    out = s * q * p * safe ** (q / 2 - 3) * (
        (q - 4) * ((q - 1) * p * p + w2) + 2 * (q - 1) * safe
    )
    return np.where(r2 == 0.0, 0.0, out)


class SolveError(RuntimeError):
    """A solver refused the instance or did not converge."""


class KernelSolveError(SolveError):
    """A scalar kernel (cell prox, Legendre transform, phi) did not converge."""


def safeguarded_newton(fun, y, lo, hi, tol):
    """Solve g(y) = 0 cellwise for nondecreasing g by Newton with bisection.

    fun(y) returns (g, g') at every cell of y, in y's shape.  The iterates
    are written into y itself when it is a writable float array (else into
    a copy), so fun must not keep y, and the caller must not reuse the
    start.  [lo, hi] must bracket every root; its endpoints are evaluated
    only where a cell starts there.  Every round evaluates every cell, and
    a cell with |g| <= tol no longer moves, so its value is the last one
    evaluated, bit for bit (with tol = inf a cell stays at its start; a
    NaN g never converges).  A Newton step that leaves the bracket is
    replaced by the bracket's midpoint.  Raises KernelSolveError when a
    cell has not converged after MAX_ITER evaluations.
    """
    y = np.require(y, dtype=float, requirements="W")
    lo, hi = (np.full(y.shape, a, dtype=float) for a in (lo, hi))
    live, side, inside = (np.empty(y.shape, dtype=bool) for _ in range(3))
    step = np.empty_like(y)  # |g|, then the Newton step, then the midpoint
    for k in range(MAX_ITER):
        g, gp = fun(y)
        np.less_equal(np.abs(g, out=step), tol, out=live)
        if live.all():
            return y
        np.logical_not(live, out=live)
        if k == MAX_ITER - 1:
            break  # the error below reads this round's g
        # masked copies by putmask, faster than copyto(where=) on a mixed
        # mask; a converged cell never reads its bracket again
        np.putmask(lo, np.less(g, 0.0, out=side), y)
        np.putmask(hi, np.greater(g, 0.0, out=side), y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(y, np.divide(g, gp, out=step), out=step)
        del g, gp  # free them before the next evaluation makes its own
        # a live cell takes its Newton step if it stays inside the bracket
        np.logical_and(np.greater(step, lo, out=side), np.less(step, hi, out=inside),
                       out=inside)
        np.putmask(y, np.logical_and(inside, live, out=inside), step)
        if np.logical_xor(live, inside, out=live).any():  # live and outside
            np.putmask(y, live, np.multiply(np.add(lo, hi, out=step), 0.5, out=step))
    raise KernelSolveError(
        f"safeguarded Newton left {live.sum()} cells unconverged after "
        f"{MAX_ITER} evaluations; worst residual {np.max(np.abs(g[live])):.3e}"
    )


def invert_hp(H: HamiltonianSpec, rhs, m=1.0, sigma: float = 0.0):
    """Solve sigma*p + m*H_p(p) = rhs for p; return (p, H, H_p, H_pp) at p.

    Vectorized over rhs and m (m >= 0, sigma >= 0, sigma + m > 0).  For
    radial H the left side is increasing and odd in p, so the root lies
    between 0 and rhs/sigma, and between 0 and varpi + (2|rhs|/(m s q))^{1/(q-1)}
    because H_p(p) >= s q 2^{min(q-2,0)} |p|^{q-1} for |p| >= varpi.
    Closed form for quadratic H, whose H_pp is returned as the scalar
    H.scale (it does not depend on p); safeguarded Newton from that edge
    otherwise.
    """
    rhs = np.asarray(rhs, dtype=float)
    if H.family == QUADRATIC:
        p = rhs / (sigma + H.scale * np.asarray(m, dtype=float))
        return p, 0.5 * H.scale * p * p, H.scale * p, H.scale
    m = np.broadcast_to(np.asarray(m, dtype=float), rhs.shape)
    a = np.abs(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = H.varpi + (2.0 * a / (m * H.scale * H.q)) ** (1.0 / (H.q - 1.0))
        if sigma > 0.0:
            reach = np.minimum(reach, a / sigma)
    edge = np.copysign(np.where(a == 0.0, 0.0, reach), rhs)
    lo, hi = np.minimum(edge, 0.0), np.maximum(edge, 0.0)
    tol = 1e-13 * np.maximum(a, sigma + m)

    def fun(p):
        _, hp, hpp = _h_eval(H, p)
        with np.errstate(invalid="ignore"):  # 0 * inf at m = 0, p = 0
            return sigma * p + m * hp - rhs, sigma + m * hpp

    p = safeguarded_newton(fun, edge, lo, hi, tol)
    return (p, *_h_eval(H, p))


def legendre_L(H: HamiltonianSpec, v):
    """Fenchel conjugate L(v) = sup_p (p v - H(p)) = p v - H(p) at H_p(p) = v.

    The p comes from invert_hp (closed form for quadratic H).  Vectorized;
    returns a float for scalar v.
    """
    v = np.asarray(v, dtype=float)
    p, val, _, _ = invert_hp(H, v)
    out = p * v - val
    return float(out) if out.ndim == 0 else out


def kinetic_density(H: HamiltonianSpec, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Perspective kinetic term m*L(w/m); 0 where m=0,w=0; +inf where m=0,w!=0."""
    m, w = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(w, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        if H.family == QUADRATIC:  # without w/m, which overflows at tiny m
            out = w * w / (2.0 * H.scale * m)
        else:
            out = m * legendre_L(H, np.where(m == 0.0, 0.0, w / m))
    out = np.where((m == 0.0) & (w == 0.0), 0.0, out)
    return np.where((m == 0.0) & (w != 0.0), np.inf, out)


_F_FAMILIES = ("zero", "power", "log")


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling f plus entropy weight eps; f^eps(r) = f(r) + eps*log r."""

    epsilon: float = 1.0
    f_family: str = "zero"
    f_params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.f_family not in _F_FAMILIES:
            raise ValueError(f"unknown coupling family {self.f_family!r}")
        params = tuple(float(x) for x in self.f_params)
        if self.f_family == "power":
            if len(params) != 2:
                raise ValueError("power coupling needs f_params = (c, a)")
            c, a = params
            if c < 0.0 or a <= 0.0:
                raise ValueError("power coupling needs c >= 0, a > 0 (nondecreasing f)")
        elif self.f_family == "log":
            if len(params) != 1:
                raise ValueError("log coupling needs f_params = (c,)")
            if params[0] < 0.0:
                raise ValueError("log coupling needs c >= 0")
        elif params:
            raise ValueError("zero coupling takes no parameters")
        object.__setattr__(self, "f_params", params)

    # -- the coupling f and its derivatives (vectorized, m > 0) --------
    def f(self, m):
        m = np.asarray(m, dtype=float)
        if self.f_family == "zero":
            return np.zeros_like(m)
        if self.f_family == "power":
            c, a = self.f_params
            return c * m**a
        return self.f_params[0] * np.log(m)

    def f_prime(self, m):
        m = np.asarray(m, dtype=float)
        if self.f_family == "zero":
            return np.zeros_like(m)
        if self.f_family == "power":
            c, a = self.f_params
            return c * a * m ** (a - 1.0)
        return self.f_params[0] / m

    def f_second(self, m):
        m = np.asarray(m, dtype=float)
        if self.f_family == "zero":
            return np.zeros_like(m)
        if self.f_family == "power":
            c, a = self.f_params
            return c * a * (a - 1.0) * m ** (a - 2.0)
        return -self.f_params[0] / (m * m)

    def F(self, m):
        """Antiderivative of f with F(1) = 0; F(0) is the limit value."""
        m = np.asarray(m, dtype=float)
        if self.f_family == "zero":
            return np.zeros_like(m)
        if self.f_family == "power":
            c, a = self.f_params
            return c * (m ** (a + 1.0) - 1.0) / (a + 1.0)
        c = self.f_params[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * (m * np.log(m) - m + 1.0)
        return np.where(m == 0.0, c, out)

    def f_eps(self, m):
        return self.f(m) + self.epsilon * np.log(np.asarray(m, dtype=float))

    @property
    def f_zero(self) -> bool:
        """f vanishes identically: the zero family, or a power or log with c = 0."""
        return self.f_family == "zero" or self.f_params[0] == 0.0

    @property
    def c0_r0(self) -> tuple[float, float] | None:
        """(c0, r0) with f'(r) >= c0/r for r >= r0, when the hypothesis holds."""
        if self.f_family == "power":
            c, a = self.f_params
            return (c * a, 1.0) if c > 0 else None
        if self.f_family == "log":
            c = self.f_params[0]
            return (c, 1.0) if c > 0 else None
        return None

    def phi(self, r):
        """Inverse of r = f(m) + eps*log m, computed in y = log m.

        Closed form unless f is a power; then safeguarded Newton from the
        smaller of the entropic guess r/eps and the guess that ignores the
        entropy, with the residual |f(m) + eps log m - r| <=
        1e-12*max(1,|r|).
        """
        if self.epsilon <= 0.0:
            raise ValueError("phi requires eps > 0 (f^eps strictly increasing)")
        r = np.asarray(r, dtype=float)
        eps = self.epsilon
        if self.f_family != "power" or self.f_params[0] == 0.0:
            c = self.f_params[0] if self.f_family == "log" else 0.0
            m = np.exp(r / (eps + c))
        else:
            m = np.exp(self._phi_power_log(r))
        return float(m) if m.ndim == 0 else m

    def _phi_power_log(self, r: np.ndarray) -> np.ndarray:
        """log phi(r) for f = c m^a by safeguarded Newton in y = log m."""
        eps = self.epsilon
        c, a = self.f_params
        # g(y) = c e^{ay} + eps y - r is increasing; g <= 0 at
        # min(0, (r - c)/eps) and at min(y_f, 0), g >= 0 at r/eps and at
        # max(y_f, 0), where y_f = log(r/c)/a ignores the entropy
        lo = np.minimum(0.0, (r - c) / eps)
        hi = r / eps
        with np.errstate(divide="ignore", invalid="ignore"):
            y_f = np.log(np.maximum(r, 1e-300) / c) / a
        pos = r > 0
        lo = np.where(pos, np.maximum(lo, np.minimum(y_f, 0.0)), lo)
        hi = np.where(pos, np.minimum(hi, np.maximum(y_f, 0.0)), hi)
        y0 = np.maximum(np.where(pos, np.minimum(hi, y_f), hi), lo)

        def fun(y):
            with np.errstate(over="ignore", invalid="ignore"):
                fm = c * np.exp(a * y)
                g = fm + eps * y - r
            # exp overflow means y is far above the root
            return np.where(np.isfinite(g), g, np.inf), a * fm + eps

        return safeguarded_newton(fun, y0, lo, hi, 1e-12 * np.maximum(1.0, np.abs(r)))



__all__ = [
    "HamiltonianSpec",
    "CouplingSpec",
    "DegenerateHamiltonianError",
    "KernelSolveError",
    "SolveError",
    "h_eval",
    "h_third",
    "safeguarded_newton",
    "invert_hp",
    "legendre_L",
    "kinetic_density",
]

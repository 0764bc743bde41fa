"""Radial Hamiltonians with q-growth and couplings f^eps = f + eps*log.

One Hamiltonian form, H(p) = scale/2 * (p^2 + varpi^2)^(q/2); q = 2 gives
the quadratic H = scale * (p^2 + varpi^2) / 2, which every function here
evaluates in closed form.  For varpi > 0, H is C^2 with H_pp comparable to
(|p| + varpi)^(q-2); for varpi = 0 and q != 2 it is degenerate or singular
at p = 0 and only the divergence-form (primal) solver accepts it.  At a
singular origin (varpi = 0, q < 2) h_eval returns H_pp = +inf.

A coupling is a nondecreasing f on (0, inf) of one form, f(m) = c*m^a
(a > 0) or f(m) = c*log m (a = None), with c >= 0; c = 0 is f = 0, where
f and its derivatives are exact zeros.  It is combined with the entropy
weight eps into f^eps(r) = f(r) + eps*log r, whose inverse phi is
evaluated in y = log m.

Every iterative scalar solve of the package (phi for a power coupling, the
Legendre transform, the momentum dual p of the cell prox and the cell prox
itself) is one call of safeguarded_newton.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 100  # evaluations before safeguarded_newton gives up


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(p) = scale/2 * (p^2 + varpi^2)^(q/2)."""

    q: float = 2.0
    varpi: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.q > 1.0:
            raise ValueError("growth exponent q must exceed 1")
        if not (self.varpi >= 0.0 and self.scale > 0.0):
            raise ValueError("need varpi >= 0 and scale > 0")

    @property
    def smooth(self) -> bool:
        """C^2 with H_pp bounded away from 0 on compacts (the dual solver needs it)."""
        return self.q == 2.0 or self.varpi > 0.0


class Scratch:
    """Arrays of one shape that a solve writes into, one per name, made on
    first use and kept as long as the Scratch.  Arrays passed by keyword
    are used under their names.  A nested solve takes sub(name), a set of
    its own, so that it never writes into its caller's arrays."""

    def __init__(self, shape, **arrays):
        self.shape = shape
        self._arrays = arrays

    def __call__(self, name: str, dtype=float) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(self.shape, dtype)
        return a

    def sub(self, name: str) -> Scratch:
        s = self._arrays.get(name)
        if s is None:
            s = self._arrays[name] = Scratch(self.shape)
        return s


def h_eval(H: HamiltonianSpec, p, work: Scratch | None = None):
    """(H, H_p, H_pp) at p, vectorized, with H_pp = +inf at a singular origin.

    The three are written into arrays of work (a new Scratch if None), but
    for q = 2, whose H_pp is the scalar H.scale (it does not depend on p).
    """
    p = np.asarray(p, dtype=float)
    work = Scratch(p.shape) if work is None else work
    val, hp = work("H"), work("H_p")
    if H.q == 2.0:
        s = H.scale
        np.multiply(p, 0.5 * s, out=val)
        val *= p
        val += 0.5 * s * H.varpi**2
        return val, np.multiply(p, s, out=hp), s
    hpp = work("H_pp")
    s, q, w2 = 0.5 * H.scale, H.q, H.varpi**2
    r2 = np.multiply(p, p, out=work("r2"))
    r2 += w2
    t = work("h_tmp")
    # the powers in place (**=), so they take the same paths as r2 ** e
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(val, r2)
        val **= q / 2
        val *= s
        np.copyto(hp, r2)
        hp **= q / 2 - 1
        hp *= np.multiply(p, s * q, out=t)
        np.copyto(hpp, r2)
        hpp **= q / 2 - 2
        hpp *= s * q
        np.multiply(p, q - 1, out=t)
        t *= p
        t += w2
        hpp *= t
    if w2 == 0.0:  # s|p|^q: H and H_p vanish at 0, H_pp is 0 or +inf
        origin = np.equal(p, 0.0, out=work("origin", bool))
        np.copyto(hp, 0.0, where=origin)
        np.copyto(hpp, 0.0 if q > 2.0 else np.inf, where=origin)
    return val, hp, hpp


def h_third(H: HamiltonianSpec, p):
    """Third derivative H_ppp (needed by the exact dual Jacobian)."""
    p = np.asarray(p, dtype=float)
    if H.q == 2.0:
        return np.zeros_like(p)
    s, q, w2 = 0.5 * H.scale, H.q, H.varpi**2
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


def safeguarded_newton(fun, y, lo, hi, tol, work: Scratch | None = None):
    """Solve g(y) = 0 cellwise for nondecreasing g by Newton with bisection.

    fun(y) returns (g, g') at every cell of y, in y's shape.  The iterates
    are written into y itself when it is a writable float array (else into
    a copy), so fun must not keep y, and the caller must not reuse the
    start.  The bracket, the step and the masks are arrays of work (a new
    Scratch if None).  [lo, hi] must bracket every root; its endpoints are
    evaluated only where a cell starts there.  Every round evaluates every
    cell, and a cell with |g| <= tol no longer moves, so its value is the
    last one evaluated, bit for bit (with tol = inf a cell stays at its
    start; a NaN g never converges).  A Newton step that leaves the
    bracket is replaced by the bracket's midpoint.  Raises
    KernelSolveError when a cell has not converged after MAX_ITER
    evaluations.
    """
    y = np.require(y, dtype=float, requirements="W")
    work = Scratch(y.shape) if work is None else work
    bracket = work("lo"), work("hi")
    np.copyto(bracket[0], lo)
    np.copyto(bracket[1], hi)
    lo, hi = bracket
    live, side, inside = (work(name, bool) for name in ("live", "side", "inside"))
    step = work("step")  # |g|, then the Newton step, then the midpoint
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
        del g, gp  # a fun that allocates frees them before its next call
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


def invert_hp(H: HamiltonianSpec, rhs, m=1.0, sigma: float = 0.0,
              work: Scratch | None = None):
    """Solve sigma*p + m*H_p(p) = rhs for p; return (p, H, H_p, H_pp) at p.

    Vectorized over rhs and m (m >= 0, sigma >= 0, sigma + m > 0).  For
    radial H the left side is increasing and odd in p, so the root lies
    between 0 and rhs/sigma, and between 0 and varpi + (2|rhs|/(m s q))^{1/(q-1)}
    with s = scale/2, because H_p(p) >= s q 2^{min(q-2,0)} |p|^{q-1} for
    |p| >= varpi.  Closed form for q = 2, whose H_pp is h_eval's scalar
    H.scale; safeguarded Newton from that edge otherwise, on a Scratch of
    its own inside work, whose last evaluation gives H, H_p and H_pp.  The
    arrays returned are work's (a new Scratch if None).
    """
    rhs, m = np.asarray(rhs, dtype=float), np.asarray(m, dtype=float)
    work = Scratch(np.broadcast_shapes(rhs.shape, m.shape)) if work is None else work
    p = work("p")
    if H.q == 2.0:  # p = rhs / (m scale + sigma)
        np.divide(rhs, np.add(np.multiply(m, H.scale, out=p), sigma, out=p), out=p)
        return (p, *h_eval(H, p, work))
    a = np.abs(rhs, out=work("abs"))
    reach, tol = work("reach"), work("tol")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # reach = varpi + (4 a / (m scale q))^(1/(q-1)), at most a/sigma
        np.multiply(a, 4.0, out=reach)
        reach /= np.multiply(np.multiply(m, H.scale, out=tol), H.q, out=tol)
        reach **= 1.0 / (H.q - 1.0)
        reach += H.varpi
        if sigma > 0.0:
            np.minimum(reach, np.divide(a, sigma, out=tol), out=reach)
    np.copyto(reach, 0.0, where=np.equal(a, 0.0, out=work("zero", bool)))
    edge = np.copysign(reach, rhs, out=p)  # the start, then Newton's iterate
    lo, hi = np.minimum(edge, 0.0, out=work("lo")), np.maximum(edge, 0.0, out=work("hi"))
    # tol = 1e-13 max(a, sigma + m)
    np.multiply(np.maximum(a, np.add(m, sigma, out=tol), out=tol), 1e-13, out=tol)
    g, gp = work("g"), work("g_p")

    def fun(p):
        _, hp, hpp = h_eval(H, p, work)
        with np.errstate(invalid="ignore"):  # 0 * inf at m = 0, p = 0
            # g = sigma p + m H_p - rhs, g' = sigma + m H_pp
            np.add(np.multiply(p, sigma, out=g), np.multiply(m, hp, out=gp), out=g)
            np.subtract(g, rhs, out=g)
            np.add(np.multiply(m, hpp, out=gp), sigma, out=gp)
        return g, gp

    # the Newton returns after its last fun call, which leaves H, H_p and
    # H_pp at p (a converged cell no longer moves): no evaluation here
    safeguarded_newton(fun, edge, lo, hi, tol, work.sub("newton"))
    return p, work("H"), work("H_p"), work("H_pp")


def legendre_L(H: HamiltonianSpec, v):
    """Fenchel conjugate L(v) = sup_p (p v - H(p)) = p v - H(p) at H_p(p) = v.

    The p comes from invert_hp (closed form for q = 2).  Vectorized;
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
        if H.q == 2.0:  # without w/m, which overflows at tiny m
            out = w * w / (2.0 * H.scale * m) - 0.5 * H.scale * H.varpi**2 * m
        else:
            out = m * legendre_L(H, np.where(m == 0.0, 0.0, w / m))
    out = np.where((m == 0.0) & (w == 0.0), 0.0, out)
    return np.where((m == 0.0) & (w != 0.0), np.inf, out)


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling f plus entropy weight eps; f^eps(r) = f(r) + eps*log r, with
    f = c*m^a for a > 0 and f = c*log m for a = None (c = 0: f = 0)."""

    epsilon: float = 1.0
    c: float = 0.0
    a: float | None = None

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be >= 0")
        if not (self.c >= 0.0 and (self.a is None or self.a > 0.0)):
            raise ValueError("need c >= 0 and a > 0 (nondecreasing f)")

    # -- the coupling f and its derivatives (vectorized; exact zeros if c = 0);
    # f and f_prime write into out, an array shaped like m, when it is given
    def f(self, m, out=None):
        m, c, a = np.asarray(m, dtype=float), self.c, self.a
        out = np.empty_like(m) if out is None else out
        if c == 0.0:
            out.fill(0.0)
        elif a is None:
            np.multiply(np.log(m, out=out), c, out=out)
        else:  # c m^a, the power in place (**=) as m ** a takes it
            np.copyto(out, m)
            out **= a
            out *= c
        return out

    def f_prime(self, m, out=None):
        m, c, a = np.asarray(m, dtype=float), self.c, self.a
        out = np.empty_like(m) if out is None else out
        if c == 0.0:
            out.fill(0.0)
        elif a is None:
            np.divide(c, m, out=out)
        else:
            np.copyto(out, m)
            out **= a - 1.0
            out *= c * a
        return out

    def f_second(self, m):
        m, c, a = np.asarray(m, dtype=float), self.c, self.a
        if c == 0.0:
            return np.zeros_like(m)
        return -c / (m * m) if a is None else c * a * (a - 1.0) * m ** (a - 2.0)

    def F(self, m):
        """Antiderivative of f with F(1) = 0; F(0) is the limit value."""
        m, c, a = np.asarray(m, dtype=float), self.c, self.a
        if c == 0.0:
            return np.zeros_like(m)
        if a is not None:
            return c * (m ** (a + 1.0) - 1.0) / (a + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * (m * np.log(m) - m + 1.0)
        return np.where(m == 0.0, c, out)

    def f_eps(self, m):
        return self.f(m) + self.epsilon * np.log(np.asarray(m, dtype=float))

    @property
    def f_zero(self) -> bool:
        """f vanishes identically (c = 0)."""
        return self.c == 0.0

    @property
    def interior(self) -> bool:
        """f^eps(0+) = -inf, so m = 0 never minimizes a cell prox: eps > 0 or
        a log coupling with c > 0."""
        return self.epsilon > 0.0 or (self.a is None and self.c > 0.0)

    @property
    def c0_r0(self) -> tuple[float, float] | None:
        """(c0, r0) with f'(r) >= c0/r for r >= r0, when the hypothesis holds."""
        return (self.c * (1.0 if self.a is None else self.a), 1.0) if self.c > 0.0 else None

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
        if self.c == 0.0 or self.a is None:
            m = np.exp(r / (eps + self.c))
        else:
            m = np.exp(self._phi_power_log(r))
        return float(m) if m.ndim == 0 else m

    def _phi_power_log(self, r: np.ndarray) -> np.ndarray:
        """log phi(r) for f = c m^a by safeguarded Newton in y = log m."""
        eps, c, a = self.epsilon, self.c, self.a
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

"""Tail risk measures over loss samples and smoothed plus functions.

The empirical value-at-risk at level alpha is the smallest Theta whose
upper-tail frequency #\\{theta_i > Theta\\} / N does not exceed alpha, which
is the ceil((1 - alpha) N)-th order statistic, and the conditional
value-at-risk is its tail average, computed here in closed form from that
same quantile, a minimizer of the piecewise-linear objective

    Theta + (alpha N)^{-1} sum_i [theta_i - Theta]_+ .

Smoothing replaces the kinked plus function [t]_+ = max(t, 0) by one of four
C^1 approximations indexed by mu > 0, each convex, nondecreasing, and within
a known envelope of the plus function; all four reduce to [t]_+ at mu = 0.

The solver minimizes the smoothed conditional value-at-risk of the merit
loss theta(z, w) over N draws:

    Nhat(z, Theta) = Theta + (alpha N)^{-1} sum_j [theta(z, w_j) - Theta]_mu

with gradient assembled by saa from the per-draw merit gradients J_j^T R_j
weighted by the smoothed-plus derivative at theta_j - Theta, and
Theta-derivative 1 - (alpha N)^{-1} sum_j p'(theta_j - Theta).  theta_star
finds the unique root of that strictly increasing Theta-derivative by
Newton's method with the closed-form second derivative p'', started from
the empirical VaR and safeguarded by a bracket between neighbouring order
statistics.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .cone import _check_real, _check_vector, _is_real

_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows above this

# the largest smoothing parameter accepted: chks and asip square
# mu, and theta_star brackets a Theta about mu / sqrt(alpha) above the losses,
# whose square overflows from mu ~ 1e153 on
MU_MAX = 1e100
# the smallest: theta_star's h' sums 2 mu^2 / r^3, r >= 2 mu, which overflows
# where a loss sits at Theta from mu ~ 1e-103 on, and 4 mu^2 underflows to 0
# from mu ~ 1e-162 on, where p'(0) becomes 0 / 0.  Well above that, a mu
# below theta_star's resolution of Theta, _THETA_RTOL (1 + |Theta|), still
# leaves the tail weights a step whose sum misses alpha N; the solver's
# gradient refuses those
MU_MIN = 1e-100
_THETA_RTOL = 1e-10  # theta_star stops within _THETA_RTOL (1 + |Theta|) of the root


class SmoothingKind(Enum):
    """Which C^1 approximation of the plus function to use; the values are the CLI's --smoothing tokens."""

    NEURAL_NETWORK = "nn"
    INTERIOR_POINT = "ip"
    AUTO_SCALING_IP = "asip"
    CHKS = "chks"


def plus_part(t):
    """[t]_+ = max(t, 0), elementwise."""
    return np.maximum(t, 0.0)


def _logistic(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)), the form of scipy's expit; exp(-x) is taken as inf
    # where it would overflow, which gives 0 there without a warning
    e = np.full(x.shape, np.inf)
    np.exp(-x, out=e, where=~(x < -_LOG_MAX))
    e += 1.0
    return np.divide(1.0, e, out=e)


def _check_mu(mu: float, zero: bool = False) -> float:
    # mu as a float in [MU_MIN, MU_MAX], or 0 where zero allows smooth_plus's limit [t]_+
    if zero and _is_real(mu) and mu == 0:
        return 0.0
    return _check_real(mu, "mu", MU_MIN, MU_MAX, "[]")


def _width(mu: float, kind: SmoothingKind) -> float | None:
    # c in the root r = sqrt(t^2 + c) that every kind but nn is built on;
    # None for nn, whose p' is the logistic
    if kind is SmoothingKind.NEURAL_NETWORK:
        return None
    return 4.0 * mu if kind is SmoothingKind.INTERIOR_POINT else 4.0 * mu * mu


def smooth_plus(t, mu: float, kind: SmoothingKind = SmoothingKind.CHKS):
    """Smoothed plus function at parameter mu, 0 or in [MU_MIN, MU_MAX].

    kind selects among

        nn (NEURAL_NETWORK)     t + mu log(1 + exp(-t / mu))
        ip (INTERIOR_POINT)     (t + sqrt(t^2 + 4 mu)) / 2
        asip (AUTO_SCALING_IP)  (t + sqrt(t^2 + 4 mu^2)) / 2 + mu
        chks (CHKS)             (t + sqrt(t^2 + 4 mu^2)) / 2

    At mu = 0 every kind returns [t]_+ (nn by its limit).
    """
    mu = _check_mu(mu, zero=True)
    kind = SmoothingKind(kind)
    t = np.asarray(t, dtype=float)
    c = _width(mu, kind)
    if mu == 0.0:
        out = plus_part(t)
    elif c is None:
        out = t + mu * np.logaddexp(0.0, -t / mu)
    else:
        out = 0.5 * (t + np.sqrt(t * t + c))
        if kind is SmoothingKind.AUTO_SCALING_IP:
            out += mu
    return out if out.ndim else float(out)


def smooth_plus_deriv(t, mu: float, kind: SmoothingKind = SmoothingKind.CHKS):
    """Exact derivative of smooth_plus in t; requires mu in [MU_MIN, MU_MAX].

    Values lie strictly inside (0, 1) for every kind; for chks the derivative
    is (1 + t / sqrt(t^2 + 4 mu^2)) / 2.
    """
    mu = _check_mu(mu)
    kind = SmoothingKind(kind)
    t = np.asarray(t, dtype=float)
    c = _width(mu, kind)
    if c is None:
        out = _logistic(t / mu)
    else:
        out = 0.5 * (1.0 + t / np.sqrt(t * t + c))
    return out if out.ndim else float(out)


def _check_alpha(alpha: float) -> float:
    return _check_real(alpha, "alpha", 0.0, 1.0)


def _rank_slack(n: int) -> float:
    # a bound on how far the float (1 - alpha) N lies from the real product:
    # the roundings of alpha, 1 - alpha and the product add up to 2.5 N 2^-53
    return n * 2.0**-51


def _tail_rank(n: int, alpha: float) -> int:
    # ceil((1 - alpha) N), the rank of the empirical VaR; the slack keeps an
    # integral (1 - alpha) N from rounding up to the next rank
    return min(max(math.ceil((1.0 - alpha) * n - _rank_slack(n)), 1), n)


def _tail_quantile(losses: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    # the ceil((1 - alpha) N)-th order statistic q, found by selection, and
    # the losses ranked above it, each >= q; one rule for VaR, CVaR,
    # theta_star's start and the solver's screens of trial points
    rank = _tail_rank(losses.size, alpha)
    part = np.partition(losses, rank - 1)
    return float(part[rank - 1]), part[rank:]


def _tail_cvar(losses: np.ndarray, alpha: float, tail: tuple[float, np.ndarray] | None = None) -> float:
    # q + (alpha N)^{-1} sum_i [theta_i - q]_+; only the losses ranked above
    # q can exceed it, so the sum runs over them alone.  tail is
    # _tail_quantile's result for these losses, when already at hand.  An
    # infinite q is returned as it is, where upper - q would warn
    q, upper = _tail_quantile(losses, alpha) if tail is None else tail
    if not math.isfinite(q):
        return q
    return q + float(np.sum(upper - q)) / (alpha * losses.size)


def var_empirical(losses, alpha: float) -> float:
    """Empirical value-at-risk: min {Theta : #\\{theta_i > Theta\\}/N <= alpha}.

    The minimum is the ceil((1 - alpha) N)-th order statistic, the same
    quantile cvar_empirical starts from, so CVaR >= VaR by construction.
    """
    return _tail_quantile(_check_vector(losses, "losses"), _check_alpha(alpha))[0]


def cvar_empirical(losses, alpha: float) -> float:
    """Empirical conditional value-at-risk in closed form.

    With q the ceil((1 - alpha) N)-th order statistic,
    CVaR = q + (alpha N)^{-1} sum_i [theta_i - q]_+ .
    """
    return _tail_cvar(_check_vector(losses, "losses"), _check_alpha(alpha))


def theta_star(
    losses,
    alpha: float,
    mu: float,
    kind: SmoothingKind = SmoothingKind.CHKS,
    tail: tuple[float, np.ndarray] | None = None,
) -> float:
    """Unique minimizer of Theta + (alpha N)^{-1} sum [theta_j - Theta]_mu.

    Solves h(Theta) = 1 - (alpha N)^{-1} sum p'(theta_j - Theta) = 0; h is
    strictly increasing, with h' = (alpha N)^{-1} sum p''(theta_j - Theta).
    The root lies near the ceil((1 - alpha) N)-th order statistic (the
    empirical VaR), so the search starts there and brackets the root between
    it and its neighbour on the side h's sign points to, padded by the
    smoothing width (sqrt(c) in r = sqrt(t^2 + c), 2 mu for nn); an end of
    the wrong sign is pushed out geometrically, so the result never depends
    on that guess.  Newton's method then runs inside the bracket, bisecting
    whenever a step would leave it or shrink it too slowly (the safeguard of
    Numerical Recipes' rtsafe), until h is exactly 0 or changes sign within
    a tolerance 1e-10 (1 + |Theta|) of the returned point; a Newton step
    below it is confirmed by one more evaluation just past it.

    tail, _tail_quantile(losses, alpha) when the caller has already
    selected it, spares the selection: the start reads only the order
    statistic, its rank and the least loss ranked above it, none of which
    depends on how the losses above it are ordered.  A caller that passes
    tail has also checked the losses (a nonempty 1-d float array, all
    finite), so they are not checked again.
    """
    losses = _check_vector(losses, "losses") if tail is None else losses
    alpha = _check_alpha(alpha)
    mu = _check_mu(mu)
    kind = SmoothingKind(kind)
    n = losses.size
    scale = 1.0 / (alpha * n)
    # h(Theta) leaves theta_j - Theta in b1; dh() is h' at the Theta h was
    # last called at, computed only where Newton's method reads it
    b1 = np.empty_like(losses)

    c = _width(mu, kind)
    if c is not None:
        # inline p' = (1 + s / r) / 2 and p'' = c / (2 r^3), r = sqrt(s^2 + c), over
        # two scratch buffers; the innermost loop of every objective evaluation.
        # p'' is written so rather than as the equal (1 - (s / r)^2) / (2 r),
        # whose s / r rounds to +-1, and so the whole to 0, once |s| >> mu
        base = 1.0 - 0.5 * n * scale
        b2 = np.empty_like(losses)

        def h(theta: float) -> float:
            np.subtract(losses, theta, out=b1)
            np.multiply(b1, b1, out=b2)
            np.add(b2, c, out=b2)
            np.sqrt(b2, out=b2)
            np.divide(1.0, b2, out=b2)  # 1 / r, which dh reads
            return base - 0.5 * scale * float(b1 @ b2)

        def dh() -> float:
            np.multiply(b2, b2, out=b1)
            return 0.5 * c * scale * float(b1 @ b2)

    else:
        # nn: p' = sigma(s / mu) and p'' = sigma(s / mu) sigma(-s / mu) / mu, the
        # logistic sigma(-x) in place of 1 - sigma(x), which cancels to 0 for large x
        def h(theta: float) -> float:
            np.subtract(losses, theta, out=b1)
            return 1.0 - scale * float(np.sum(_logistic(b1 / mu)))

        def dh() -> float:
            return scale * float(np.sum(_logistic(b1 / mu) * _logistic(-b1 / mu) / mu))

    q, upper = _tail_quantile(losses, alpha) if tail is None else tail
    rank = n - upper.size
    # the next order statistic; a one-rank partition and a min beat a
    # two-rank partition several times over
    q_next = float(upper.min()) if upper.size else q
    pad = 2.0 * mu if c is None else math.sqrt(c)
    # between q and q_next, h is about rank - (1 - alpha) N over alpha N; where
    # that is 0 the root sits where the two neighbours' tails balance, near
    # the middle of the gap, and otherwise within a few widths of q
    x = q if rank - (1.0 - alpha) * n > _rank_slack(n) else 0.5 * (q + q_next)
    f = h(x)
    if f == 0.0:
        return x
    df = dh()
    # h rises from 1 - 1/alpha < 0 to 1 > 0; the bracket's far end, on the
    # side the root is, is pushed out until h changes sign there, each miss
    # moving the near end in
    if f < 0.0:
        lo, hi, step = x, q_next + pad, pad
        while h(hi) < 0.0:
            lo, hi, step = hi, hi + step, 2.0 * step
    else:
        lo, hi, step = q - pad, x, pad
        while h(lo) > 0.0:
            lo, hi, step = lo - step, lo, 2.0 * step

    dx = dx_old = hi - lo
    while True:
        newton = df > 0.0 and lo < x - f / df < hi and abs(2.0 * f) <= abs(dx_old * df)
        if newton:
            dx_old, dx = dx, f / df
            x -= dx
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            x = lo + dx
        tol = _THETA_RTOL * (1.0 + abs(x))
        if abs(dx) > tol:
            f = h(x)
            df = dh()
        elif not newton:
            return x
        else:
            # a step this short has converged if h changes sign within half a
            # tolerance past x; in the slowly varying tails of p' it has not,
            # so the search goes on from there
            probe = x - math.copysign(0.5 * tol, dx)
            f_probe = h(probe)
            if (f_probe >= 0.0) if f < 0.0 else (f_probe <= 0.0):
                return x
            x, f, df = probe, f_probe, dh()
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x

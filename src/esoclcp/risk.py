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
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows above this


class SmoothingKind(Enum):
    """Which C^1 approximation of the plus function to use."""

    NEURAL_NETWORK = "neural_network"
    INTERIOR_POINT = "interior_point"
    AUTO_SCALING_IP = "auto_scaling_ip"
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


def _check_mu(mu: float, positive: bool) -> float:
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if positive and mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not positive and mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    return mu


def smooth_plus(t, mu: float, kind: SmoothingKind = SmoothingKind.CHKS):
    """Smoothed plus function at parameter mu >= 0.

    kind selects among

        neural_network   t + mu log(1 + exp(-t / mu))
        interior_point   (t + sqrt(t^2 + 4 mu)) / 2
        auto_scaling_ip  (t + sqrt(t^2 + 4 mu^2)) / 2 + mu
        chks             (t + sqrt(t^2 + 4 mu^2)) / 2

    At mu = 0 every kind returns [t]_+ (the neural-network form by its limit).
    """
    mu = _check_mu(mu, positive=False)
    kind = SmoothingKind(kind)
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        out = plus_part(t)
    elif kind is SmoothingKind.NEURAL_NETWORK:
        out = t + mu * np.logaddexp(0.0, -t / mu)
    elif kind is SmoothingKind.INTERIOR_POINT:
        out = 0.5 * (t + np.sqrt(t * t + 4.0 * mu))
    elif kind is SmoothingKind.AUTO_SCALING_IP:
        out = 0.5 * (t + np.sqrt(t * t + 4.0 * mu * mu)) + mu
    else:
        out = 0.5 * (t + np.sqrt(t * t + 4.0 * mu * mu))
    return out if out.ndim else float(out)


def smooth_plus_deriv(t, mu: float, kind: SmoothingKind = SmoothingKind.CHKS):
    """Exact derivative of smooth_plus in t; requires mu > 0.

    Values lie strictly inside (0, 1) for every kind; for chks the derivative
    is (1 + t / sqrt(t^2 + 4 mu^2)) / 2.
    """
    mu = _check_mu(mu, positive=True)
    kind = SmoothingKind(kind)
    t = np.asarray(t, dtype=float)
    if kind is SmoothingKind.NEURAL_NETWORK:
        out = _logistic(t / mu)
    elif kind is SmoothingKind.INTERIOR_POINT:
        out = 0.5 * (1.0 + t / np.sqrt(t * t + 4.0 * mu))
    else:
        # auto_scaling_ip and chks differ by the constant mu only
        out = 0.5 * (1.0 + t / np.sqrt(t * t + 4.0 * mu * mu))
    return out if out.ndim else float(out)


def smooth_plus_deriv2(t, mu: float, kind: SmoothingKind = SmoothingKind.CHKS):
    """Exact second derivative of smooth_plus in t; requires mu > 0.

    Closed forms, all positive:

        neural_network   sigma (1 - sigma) / mu, sigma = 1 / (1 + exp(-t / mu))
        interior_point   2 mu / (t^2 + 4 mu)^{3/2}
        auto_scaling_ip  2 mu^2 / (t^2 + 4 mu^2)^{3/2}
        chks             2 mu^2 / (t^2 + 4 mu^2)^{3/2}

    Written as 2 mu^2 / r^3 rather than the equal (1 - (t / r)^2) / (2 r),
    whose t / r rounds to +-1, and so the whole to 0, once |t| >> mu.
    """
    mu = _check_mu(mu, positive=True)
    kind = SmoothingKind(kind)
    t = np.asarray(t, dtype=float)
    if kind is SmoothingKind.NEURAL_NETWORK:
        # sigma(-x) in place of 1 - sigma(x), which cancels to 0 for large x
        out = _logistic(t / mu) * _logistic(-t / mu) / mu
    else:
        c = 4.0 * mu if kind is SmoothingKind.INTERIOR_POINT else 4.0 * mu * mu
        r2 = t * t + c
        out = 0.5 * c / (r2 * np.sqrt(r2))
    return out if out.ndim else float(out)


def _check_losses(losses) -> np.ndarray:
    out = np.asarray(losses, dtype=float)
    if out.ndim != 1 or out.size < 1:
        raise ValueError(f"losses must be a nonempty 1-d vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("losses must be finite")
    return out


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _tail_rank(n: int, alpha: float) -> int:
    # ceil((1 - alpha) N), the rank of the empirical VaR; the 1e-12 keeps an
    # integral (1 - alpha) N from rounding up to the next rank
    return min(max(math.ceil((1.0 - alpha) * n - 1e-12), 1), n)


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
    return _tail_quantile(_check_losses(losses), _check_alpha(alpha))[0]


def cvar_empirical(losses, alpha: float) -> float:
    """Empirical conditional value-at-risk in closed form.

    With q the ceil((1 - alpha) N)-th order statistic,
    CVaR = q + (alpha N)^{-1} sum_i [theta_i - q]_+ .
    """
    return _tail_cvar(_check_losses(losses), _check_alpha(alpha))

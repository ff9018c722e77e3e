"""Empirical VaR/CVaR and the smoothed plus-parts."""

import numpy as np
import pytest

from esoclcp.risk import (
    SmoothingKind,
    _logistic,
    cvar_empirical,
    plus_part,
    smooth_plus,
    smooth_plus_deriv,
    smooth_plus_deriv2,
    var_empirical,
)

ALL_KINDS = list(SmoothingKind)


def test_plus_part():
    assert plus_part(3.0) == 3.0
    assert plus_part(-2.0) == 0.0
    assert plus_part(0.0) == 0.0


def test_smooth_plus_chks_values():
    assert smooth_plus(0.0, 1.0, SmoothingKind.CHKS) == pytest.approx(1.0)
    assert smooth_plus(3.0, 1.0, SmoothingKind.CHKS) == pytest.approx((3 + np.sqrt(13)) / 2)


def test_smooth_plus_mu_zero_reduces_to_plus_part():
    for kind in ALL_KINDS:
        for t in (-1.0, 0.0, 2.0):
            assert smooth_plus(t, 0.0, kind) == plus_part(t), kind


def test_smooth_plus_deriv_values():
    assert smooth_plus_deriv(0.0, 0.5, SmoothingKind.CHKS) == pytest.approx(0.5)
    assert smooth_plus_deriv(3.0, 1.0, SmoothingKind.CHKS) == pytest.approx(0.5 * (1 + 3 / np.sqrt(13)))


def test_smooth_plus_deriv_matches_finite_differences():
    rng = np.random.default_rng(23)
    for kind in ALL_KINDS:
        for _ in range(50):
            t = float(rng.normal(scale=2.0))
            mu = float(rng.uniform(0.05, 1.0))
            d = smooth_plus_deriv(t, mu, kind)
            step = 1e-6
            fd = (smooth_plus(t + step, mu, kind) - smooth_plus(t - step, mu, kind)) / (2 * step)
            assert d == pytest.approx(fd, rel=1e-7, abs=1e-9), kind
            if kind != SmoothingKind.AUTO_SCALING_IP:
                assert 0.0 < d < 1.0


def test_smooth_plus_deriv2_matches_finite_differences():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        for _ in range(50):
            t = float(rng.normal(scale=2.0))
            mu = float(rng.uniform(0.05, 1.0))
            d2 = smooth_plus_deriv2(t, mu, kind)
            step = 1e-6
            fd = (smooth_plus_deriv(t + step, mu, kind) - smooth_plus_deriv(t - step, mu, kind)) / (2 * step)
            assert d2 == pytest.approx(fd, rel=1e-6, abs=1e-9), kind
            assert d2 > 0.0


def test_smooth_plus_deriv2_far_from_the_kink():
    # (1 - (t / r)^2) / (2 r) rounds to 0 here; the closed form does not
    t = np.array([-1e11, 1e11])
    assert np.allclose(smooth_plus_deriv2(t, 1e-4, SmoothingKind.CHKS), 2e-8 / 1e33, rtol=1e-12)
    assert np.allclose(smooth_plus_deriv2(t, 1e-4, SmoothingKind.INTERIOR_POINT), 2e-4 / 1e33, rtol=1e-12)


def test_logistic_matches_scipy_expit_without_warnings():
    import warnings

    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(-800, 800, 400_001), [-1e308, 1e308, -np.inf, np.inf, -745.2, 709.79]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logistic(x)
        want = special.expit(x)
    # same form, 1 / (1 + exp(-x)); numpy's exp may differ from the C
    # library's by one ulp, which the rounding of 1 + exp(-x) near 2^53 can
    # magnify to 4 ulp of the result (at x ~ -36.8)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert np.array_equal(got[np.abs(x) > 710], want[np.abs(x) > 710])
    assert np.isnan(_logistic(np.array([np.nan]))[0])


def test_smooth_plus_deriv_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        smooth_plus_deriv(1.0, 0.0, SmoothingKind.CHKS)
    with pytest.raises(ValueError):
        smooth_plus_deriv2(1.0, 0.0, SmoothingKind.CHKS)


def test_chks_envelope_bound():
    # 0 <= [t]_mu - [t]_+ <= mu with equality exactly at t = 0
    grid = np.linspace(-50, 50, 10001)
    for mu in (1.0, 1e-2, 1e-6):
        vals = smooth_plus(grid, mu, SmoothingKind.CHKS) - plus_part(grid)
        assert np.all(vals >= 0)
        assert np.all(vals <= mu + 1e-15)
        assert smooth_plus(0.0, mu, SmoothingKind.CHKS) - 0.0 == pytest.approx(mu)


def test_smooth_plus_convex_in_t():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        for _ in range(100):
            a, b = sorted(rng.normal(scale=3.0, size=2))
            mu = float(rng.uniform(0.01, 1.0))
            mid = smooth_plus(0.5 * (a + b), mu, kind)
            avg = 0.5 * (smooth_plus(a, mu, kind) + smooth_plus(b, mu, kind))
            assert mid <= avg + 1e-12


def _var_oracle(losses, alpha):
    # enumerate sample values as candidate thresholds, smallest feasible wins
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    feasible = [c for c in np.sort(losses) if np.sum(losses > c) / n <= alpha]
    return feasible[0] if feasible else float(np.max(losses))


def _cvar_kink_oracle(losses, alpha):
    # the inner objective is convex piecewise linear with kinks only at
    # sample values, so minimizing over those candidates is exact
    losses = np.asarray(losses, dtype=float)
    cands = np.unique(losses)
    vals = cands + np.mean(np.maximum(losses[None, :] - cands[:, None], 0.0), axis=1) / alpha
    return float(np.min(vals))


def test_var_empirical_examples():
    losses = np.arange(1.0, 11.0)
    assert var_empirical(losses, 0.2) == 8.0
    assert var_empirical(np.full(7, 3.25), 0.5) == 3.25
    assert var_empirical(np.array([5.0]), 0.5) == 5.0


def test_cvar_empirical_examples():
    losses = np.arange(1.0, 11.0)
    assert cvar_empirical(losses, 0.2) == pytest.approx(9.5)
    assert cvar_empirical(np.full(5, -2.5), 0.3) == pytest.approx(-2.5)


def test_var_matches_enumeration_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        losses = rng.normal(size=n) * rng.uniform(0.1, 10)
        alpha = float(rng.uniform(0.02, 0.98))
        assert var_empirical(losses, alpha) == _var_oracle(losses, alpha)


def test_cvar_matches_kink_oracle():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        losses = rng.normal(size=n) * 3
        alpha = float(rng.uniform(0.05, 0.95))
        assert cvar_empirical(losses, alpha) == pytest.approx(
            _cvar_kink_oracle(losses, alpha), abs=1e-9
        )


def test_risk_measures_positive_homogeneity_and_monotonicity():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        losses = rng.normal(size=n) * rng.uniform(0.1, 5)
        alpha = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.1, 10))
        assert var_empirical(lam * losses, alpha) == pytest.approx(
            lam * var_empirical(losses, alpha), rel=1e-12, abs=1e-12
        )
        assert cvar_empirical(lam * losses, alpha) == pytest.approx(
            lam * cvar_empirical(losses, alpha), rel=1e-12, abs=1e-12
        )
        bump = rng.uniform(0, 2, size=n)
        assert var_empirical(losses + bump, alpha) >= var_empirical(losses, alpha) - 1e-12
        assert cvar_empirical(losses + bump, alpha) >= cvar_empirical(losses, alpha) - 1e-12


def test_cvar_subadditive():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        s1 = rng.normal(size=n) * 2
        s2 = rng.normal(size=n) * 3 + 1
        alpha = float(rng.uniform(0.05, 0.95))
        lhs = cvar_empirical(s1 + s2, alpha)
        rhs = cvar_empirical(s1, alpha) + cvar_empirical(s2, alpha)
        assert lhs <= rhs + 1e-10


def test_cvar_dominates_var_on_large_sample():
    losses = np.random.default_rng(53).normal(size=1000) * 2 + 0.5
    for alpha in (0.05, 0.2, 0.5):
        assert cvar_empirical(losses, alpha) >= var_empirical(losses, alpha) - 1e-12


def test_var_subadditivity_failure_witness():
    # two losses that are tiny with probability 0.991 and spike by 10 with
    # probability 0.009: each VaR_0.01 is tiny, but the spikes of the sum
    # cover ~1.8% of scenarios, pushing the sum's VaR above 10
    rng = np.random.default_rng(991)
    n = 1000
    eps1 = rng.uniform(0, 1e-3, size=n)
    eps2 = rng.uniform(0, 1e-3, size=n)
    s1 = eps1.copy()
    s2 = eps2.copy()
    idx1 = rng.choice(n, size=9, replace=False)
    idx2 = rng.choice(n, size=9, replace=False)
    s1[idx1] += 10.0
    s2[idx2] += 10.0
    alpha = 0.01
    v1 = var_empirical(s1, alpha)
    v2 = var_empirical(s2, alpha)
    v12 = var_empirical(s1 + s2, alpha)
    assert v1 < 1e-2 and v2 < 1e-2
    assert v12 > v1 + v2, (v12, v1, v2)


def test_ru_pointwise():
    # one term of the tail objective, Theta + [loss - Theta]_mu / alpha
    def term(loss, theta, alpha, mu):
        return theta + smooth_plus(loss - theta, mu, SmoothingKind.CHKS) / alpha

    assert term(2.0, 2.0, 0.5, 0.0) == 2.0
    assert term(3.0, 2.0, 0.5, 0.0) == pytest.approx(4.0)
    # mu -> 0 approaches the unsmoothed value from above
    rng = np.random.default_rng(47)
    for _ in range(50):
        loss, theta = rng.normal(size=2) * 3
        alpha = float(rng.uniform(0.1, 0.9))
        exact = term(loss, theta, alpha, 0.0)
        prev = float("inf")
        for mu in (1e-2, 1e-4, 1e-8):
            val = term(loss, theta, alpha, mu)
            assert exact <= val <= prev + 1e-15
            prev = val
        assert prev == pytest.approx(exact, abs=1e-7)

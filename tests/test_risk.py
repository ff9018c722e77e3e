"""Empirical VaR/CVaR and the smoothed plus-parts."""

import math

import numpy as np
import pytest

from esoclcp.risk import (
    MU_MAX,
    MU_MIN,
    SmoothingKind,
    _logistic,
    _tail_quantile,
    _tail_rank,
    cvar_empirical,
    plus_part,
    smooth_plus,
    smooth_plus_deriv,
    theta_star,
    var_empirical,
)

from conftest import assert_refuses

ALL_KINDS = list(SmoothingKind)
MU_RANGE = "mu must be a finite number in [1e-100, 1e+100], got "


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


# each public function that takes mu, called at t = 0 or on a small sample
MU_TAKERS = {
    "smooth_plus": lambda mu, kind: smooth_plus(0.0, mu, kind),
    "smooth_plus_deriv": lambda mu, kind: smooth_plus_deriv(0.0, mu, kind),
    "theta_star": lambda mu, kind: theta_star([0.5, 1.0, 2.0, 3.0], 0.5, mu, kind),
}


@pytest.mark.parametrize("taker", MU_TAKERS)
@pytest.mark.parametrize(
    "mu, message",
    [
        (math.nan, MU_RANGE + "nan"),
        (math.inf, MU_RANGE + "inf"),
        (-1.0, MU_RANGE + "-1.0"),
        (1e-170, MU_RANGE + "1e-170"),
        (1e160, MU_RANGE + "1e+160"),
        (True, MU_RANGE + "True"),
        (False, MU_RANGE + "False"),
        ("0.5", MU_RANGE + "'0.5'"),
    ],
    ids=["nan", "inf", "negative", "below-MU_MIN", "above-MU_MAX", "true", "false", "str"],
)
def test_smoothing_refuses_a_mu_outside_its_range(mu, message, taker):
    # SolverConfig's range and messages: at 1e-170 smooth_plus used to return
    # 0.0 and smooth_plus_deriv nan (4 mu^2 underflows), at 1e160 inf, and
    # smooth_plus(1.0, True) 1.618; False is no 0 to smooth_plus either
    assert_refuses(lambda: MU_TAKERS[taker](mu, SmoothingKind.CHKS), ValueError, message)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_smoothing_takes_mu_over_its_whole_range_and_zero_only_in_smooth_plus(kind):
    for mu in (MU_MIN, MU_MAX):
        assert all(math.isfinite(take(mu, kind)) for take in MU_TAKERS.values())
    grid = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(smooth_plus(grid, 0.0, kind), plus_part(grid))
    for taker in ("smooth_plus_deriv", "theta_star"):
        assert_refuses(lambda: MU_TAKERS[taker](0.0, kind), ValueError, MU_RANGE + "0.0")


@pytest.mark.parametrize(
    "alpha, shown", [(0.0, "0.0"), (1.0, "1.0"), (math.nan, "nan"), (True, "True"), ("0.5", "'0.5'")]
)
def test_tail_measures_refuse_an_alpha_outside_0_1(alpha, shown):
    message = f"alpha must be a finite number in (0, 1), got {shown}"
    for take in (var_empirical, cvar_empirical, lambda losses, alpha: theta_star(losses, alpha, 1e-3)):
        assert_refuses(lambda: take([1.0, 2.0, 3.0], alpha), ValueError, message)


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


def test_tail_quantile_is_the_sorted_order_statistic():
    # selection, not a sort: the same float as np.sort at rank ceil((1 - alpha) N),
    # with tied losses and with (1 - alpha) N integral, and the losses above
    # that rank are the ones a sort puts after it
    rng = np.random.default_rng(59)
    cases = [(np.arange(1.0, 21.0), a) for a in (0.05, 0.2, 0.25, 0.5, 0.95)]
    cases += [(np.repeat([3.0, 1.0, 2.0, 2.0], 5), a) for a in (0.05, 0.2, 0.25, 0.5, 0.95)]
    for _ in range(300):
        n = int(rng.integers(1, 200))
        x = rng.integers(0, 6, size=n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
        cases.append((x, float(rng.choice([0.05, 0.1, 0.2, 0.5, rng.uniform(0.01, 0.99)]))))
    for x, alpha in cases:
        rank = _tail_rank(x.size, alpha)
        q, upper = _tail_quantile(x, alpha)
        ordered = np.sort(x)
        assert q == ordered[rank - 1]
        assert np.array_equal(np.sort(upper), ordered[rank:])
    # (1 - 0.95) 20 is 1 in the reals and 1.0000000000000009 in floats
    assert _tail_rank(20, 0.95) == 1
    assert _tail_quantile(np.arange(1.0, 21.0), 0.95)[0] == 1.0


@pytest.mark.parametrize("alpha, n", [(0.95, 100000), (0.95, 30000), (0.7, 70000), (0.45, 50000)])
def test_var_rank_when_the_float_tail_mass_overshoots_an_integer(alpha, n):
    # (1 - alpha) N is an integer in the reals; its float lies a few ulps
    # above it (5000.000000000005 at 0.95 and 100000), beyond an absolute
    # 1e-12, which used to pick the next order statistic
    rank = round((1.0 - alpha) * n)
    assert (1.0 - alpha) * n > rank
    assert _tail_rank(n, alpha) == rank
    assert var_empirical(np.arange(1.0, n + 1.0), alpha) == float(rank)


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

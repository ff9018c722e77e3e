"""Sample drawing, the smoothed tail objective, and its gradient."""

import numpy as np
import pytest

from esoclcp.cone import ConeDims
from esoclcp.problem import DistributionSpec, PerturbEntry, ProblemSpec, realize_batch
from esoclcp.reformulate import init_from_lcp
from esoclcp.risk import SmoothingKind, cvar_empirical, smooth_plus, smooth_plus_deriv, theta_star
from esoclcp.saa import SampleEvaluator, draw_samples, ndtri
from esoclcp.solver import SolverConfig, _StageProblem

from conftest import assert_refuses, case_iv_instance, random_spec, tail_gradient, tail_objective
from dense_reference import f_eval, jacobians, mean_jacobian, merit_grad, merit_grads

DIST = DistributionSpec(kind="iid_normal", mean=0.0, std=1.0)


def _random_point(rng, spec):
    k, l = spec.dims.k, spec.dims.l
    return np.r_[rng.normal(size=k), rng.normal(size=l) * 0.5, rng.normal()]


def test_draw_samples_deterministic():
    a = draw_samples(DIST, 3, 50, 42)
    b = draw_samples(DIST, 3, 50, 42)
    c = draw_samples(DIST, 3, 50, 43)
    assert np.array_equal(a, b)
    assert a.shape == (50, 3)
    assert not np.array_equal(a, c)


def test_draw_samples_moments():
    s = draw_samples(DistributionSpec(kind="iid_normal", mean=0.5, std=2.0), 1, 100_000, 42)
    assert abs(np.mean(s) - 0.5) < 0.02
    assert abs(np.std(s) - 2.0) < 0.02


def test_draw_samples_single():
    s = draw_samples(DIST, 4, 1, 7)
    assert s.shape == (1, 4)
    assert np.all(np.isfinite(s))


def test_draw_samples_beyond_the_floats_are_inf_without_a_warning():
    # a standard draw beyond |x| ~ 1.8 times std 1e308 overflows to inf;
    # the rest are the standard draws times the std plus the mean
    huge = draw_samples(DistributionSpec(kind="iid_normal", mean=1.0, std=1e308), 3, 10, 42)
    unit = draw_samples(DIST, 3, 10, 42)
    big = np.abs(unit) > 1.7976931348623157
    assert big.any() and (~big).any()
    assert np.array_equal(huge[big], np.copysign(np.inf, unit[big]))
    assert np.array_equal(huge[~big], unit[~big] * 1e308 + 1.0)


def test_draw_samples_validation():
    with pytest.raises(ValueError):
        draw_samples(DIST, 2, 0, 1)
    with pytest.raises(ValueError):
        draw_samples(DIST, 0, 5, 1)
    with pytest.raises(ValueError):
        draw_samples(DIST, 2, 5, -1)
    with pytest.raises(ValueError):
        draw_samples(DistributionSpec(kind="iid_normal", mean=0.0, std=1.0), 2, 5, 2**64)
    # bools are not counts or seeds
    for args, name in (((True, 5, 1), "omega_dim"), ((2, True, 1), "N"), ((2, 5, True), "seed")):
        with pytest.raises(ValueError, match=name):
            draw_samples(DIST, *args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 0, 1), "N must be an integer >= 1, got 0"),
        ((2, 5.0, 1), "N must be an integer >= 1, got 5.0"),
        ((0, 5, 1), "omega_dim must be an integer >= 1, got 0"),
        ((2, 5, -1), "seed must be an unsigned 64-bit integer, got -1"),
        ((2, 5, 2**64), f"seed must be an unsigned 64-bit integer, got {2**64}"),
        ((2, 5, "7"), "seed must be an unsigned 64-bit integer, got '7'"),
    ],
    ids=["N-zero", "N-float", "omega_dim-zero", "seed-negative", "seed-2**64", "seed-str"],
)
def test_draw_samples_refusals(args, message):
    # the rules and messages SolverConfig gives its schedule and seed
    assert_refuses(lambda: draw_samples(DIST, *args), ValueError, message)


def _philox_uniforms(seed, n):
    # the uniforms draw_samples maps through ndtri
    h = np.random.Generator(np.random.Philox(key=seed)).integers(0, 2**53, size=n, dtype=np.uint64)
    return (h.astype(float) + 0.5) / 2**53


def test_draw_samples_scale_in_place_as_the_old_expression_rounds():
    # draw_samples applies std and mean in place; the bits are those of
    # mean + std * ndtri(uniforms), the expression it used to return
    for mean, std in ((0.0, 1.0), (0.3, 1.7), (-2.5, 1e-3)):
        dist = DistributionSpec(kind="iid_normal", mean=mean, std=std)
        want = dist.mean + dist.std * ndtri(_philox_uniforms(19, 4001 * 3).reshape(4001, 3))
        assert np.array_equal(draw_samples(dist, 3, 4001, 19), want)


def test_ndtri_central_branch_is_bit_identical_to_scipy():
    special = pytest.importorskip("scipy.special")
    u = _philox_uniforms(11, 200_000)
    central = u[(u > np.exp(-2)) & (u < 1 - np.exp(-2))]
    assert central.size > 100_000
    assert np.array_equal(ndtri(central), special.ndtri(central))


def test_ndtri_tails_match_scipy():
    special = pytest.importorskip("scipy.special")
    y = np.geomspace(1e-300, 0.2, 20_001)
    u = np.concatenate([y, 1 - y[y >= 2**-53], [1 - 2**-53, 2**-1074], _philox_uniforms(13, 200_000)])
    got, want = ndtri(u), special.ndtri(u)
    # the tails start from x = sqrt(-2 log y), y = min(u, 1 - u); numpy's log
    # may differ from the C library's in the last bit, which moves the result
    # by up to 2 ulp of x (up to 4 ulp of the result near u = exp(-2), where
    # x - log(x)/x - x1 loses a bit to cancellation)
    x = np.sqrt(-2 * np.log(np.minimum(u, 1 - u)))
    assert np.all(np.abs(got - want) <= 2 * np.spacing(x))


def test_ndtri_edges_are_infinite_without_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtri(np.array([0.0, 1.0, 0.5, -0.5, 1.5, np.nan]))
    assert got[0] == -np.inf and got[1] == np.inf and got[2] == 0.0
    assert np.all(np.isnan(got[3:]))
    assert ndtri(np.array([[0.025], [0.975]])).shape == (2, 1)


def test_objective_min_over_theta_is_cvar():
    # the stage objective the solver minimizes re-optimizes Theta at every
    # point; at a tiny mu its value there is the empirical CVaR
    rng = np.random.default_rng(71)
    spec = random_spec(rng)
    s = draw_samples(spec.distribution, spec.omega_dim, 40, 9)
    z = _random_point(rng, spec)
    ev = SampleEvaluator(spec, s)
    thetas = ev.thetas(z)
    for alpha in (0.05, 0.2, 0.5):
        e = _StageProblem(ev, SolverConfig(alpha=alpha, mu=1e-9)).eval_point(z)
        assert e.theta == theta_star(thetas, alpha, 1e-9)
        assert e.value == pytest.approx(cvar_empirical(thetas, alpha), abs=1e-6)


def test_gradient_matches_finite_differences():
    # tail_gradient takes its spatial part from weighted_merit_grad
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 25:
        spec = random_spec(rng)
        s = draw_samples(spec.distribution, spec.omega_dim, 6, int(rng.integers(1, 10**6)))
        z = _random_point(rng, spec)
        # the complementarity rows are nonsmooth only where both arguments
        # vanish; the first argument is x_m, so keeping it off zero suffices
        if float(np.min(np.abs(z[: spec.dims.k]))) < 1e-2:
            continue
        ev = SampleEvaluator(spec, s)
        alpha = float(rng.uniform(0.1, 0.9))
        mu = float(rng.choice([1e-2, 1e-4]))
        theta0 = float(np.quantile(ev.thetas(z), 0.7))

        def f(v):
            return tail_objective(ev, v[:-1], float(v[-1]), alpha, mu)

        v = np.append(z, theta0)
        grad = tail_gradient(ev, z, theta0, alpha, mu)
        step = 1e-6
        fd = np.empty_like(v)
        for i in range(v.size):
            e = np.zeros_like(v)
            e[i] = step
            fd[i] = (f(v + e) - f(v - e)) / (2 * step)
        scale = 1.0 + np.abs(grad)
        assert np.max(np.abs(grad - fd) / scale) < 1e-5
        checked += 1


def test_gradient_theta_component_limits():
    rng = np.random.default_rng(83)
    spec = random_spec(rng)
    s = draw_samples(spec.distribution, spec.omega_dim, 10, 11)
    z = _random_point(rng, spec)
    ev = SampleEvaluator(spec, s)
    thetas = ev.thetas(z)
    alpha, mu = 0.2, 1e-6
    hi = tail_gradient(ev, z, float(np.max(thetas)) + 1.0, alpha, mu)
    lo = tail_gradient(ev, z, float(np.min(thetas)) - 1.0, alpha, mu)
    assert hi[-1] == pytest.approx(1.0, abs=1e-6)
    assert lo[-1] == pytest.approx(1.0 - 1.0 / alpha, abs=1e-6)


def test_gradient_spatial_zero_at_exact_solution():
    spec, x, u, _, _ = case_iv_instance()
    z = init_from_lcp(x, u)
    s = draw_samples(spec.distribution, spec.omega_dim, 7, 13)
    g = tail_gradient(SampleEvaluator(spec, s), z, -1.0, 0.5, 1e-4)
    assert np.max(np.abs(g[:-1])) < 1e-10


def test_theta_star_constant_losses():
    assert theta_star(np.full(9, 3.5), 0.5, 1e-8) == pytest.approx(3.5, abs=1e-6)


def test_theta_star_example():
    losses = np.arange(1.0, 11.0)
    t = theta_star(losses, 0.2, 1e-6)
    assert 8.0 <= t <= 9.0
    # stationarity: the Theta derivative vanishes at the minimizer
    h = 1.0 - np.mean(smooth_plus_deriv(losses - t, 1e-6, SmoothingKind.CHKS)) / 0.2
    assert abs(h) < 1e-8
    val = t + np.mean(np.maximum(losses - t, 0.0)) / 0.2
    assert val == pytest.approx(9.5, abs=1e-4)


def _h(losses, theta, alpha, mu, kind=SmoothingKind.CHKS):
    return 1.0 - float(np.mean(smooth_plus_deriv(losses - theta, mu, kind))) / alpha


def _tail_objective(losses, theta, alpha, mu, kind=SmoothingKind.CHKS):
    return theta + float(np.mean(smooth_plus(losses - theta, mu, kind))) / alpha


def _bisect_theta(losses, alpha, mu, kind=SmoothingKind.CHKS):
    # plain bisection on h down to adjacent floats, from a bracket wide
    # enough for every case here
    lo = float(losses.min()) - 1.0 - 10.0 * mu / alpha
    hi = float(losses.max()) + 1.0 + 10.0 * mu / alpha
    assert _h(losses, lo, alpha, mu, kind) < 0.0 < _h(losses, hi, alpha, mu, kind)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _h(losses, mid, alpha, mu, kind) < 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize(
    "losses, alpha, mu",
    [
        # spread over 1e0..1e12: p'' = 2 mu^2 / r^3 is far below 1 ulp of p'
        (10.0 ** np.random.default_rng(5).uniform(0, 12, size=1000), 0.05, 1e-4),
        (10.0 ** np.random.default_rng(6).uniform(0, 12, size=333), 0.2, 1e-4),
        (np.concatenate([10.0 ** np.arange(13), 10.0 ** np.arange(13)]), 0.1, 1e-4),
        # alpha N integral: h vanishes, up to rounding, between two order statistics
        (np.arange(1.0, 11.0), 0.2, 1e-9),
        (np.arange(1.0, 11.0), 0.2, 1e-3),
        (np.array([3.7]), 0.05, 1e-4),
        (np.array([3.7]), 0.5, 1e-4),
        (np.array([-2.0]), 0.3, 1.0),
    ],
)
def test_theta_star_hard_cases(losses, alpha, mu):
    t = theta_star(losses, alpha, mu)
    tol = 1e-10 * (1.0 + abs(t))
    assert _h(losses, t - tol, alpha, mu) <= 0.0 <= _h(losses, t + tol, alpha, mu)
    want = _tail_objective(losses, _bisect_theta(losses, alpha, mu), alpha, mu)
    assert _tail_objective(losses, t, alpha, mu) == pytest.approx(want, rel=0.0, abs=1e-12 * (1.0 + abs(want)))


@pytest.mark.parametrize("kind", list(SmoothingKind))
def test_theta_star_every_smoothing_kind(kind):
    rng = np.random.default_rng(107)
    for _ in range(20):
        losses = rng.exponential(scale=float(rng.uniform(0.1, 10.0)), size=int(rng.integers(1, 200)))
        alpha = float(rng.uniform(0.02, 0.9))
        mu = float(rng.choice([1e-6, 1e-4, 1e-2]))
        t = theta_star(losses, alpha, mu, kind)
        tol = 1e-10 * (1.0 + abs(t))
        assert _h(losses, t - tol, alpha, mu, kind) <= 0.0 <= _h(losses, t + tol, alpha, mu, kind)


@pytest.mark.parametrize("kind", list(SmoothingKind))
def test_theta_star_sums_the_root_kinds_in_its_own_buffers(monkeypatch, kind):
    # chks, auto_scaling_ip and interior_point share r = sqrt(t^2 + c), so
    # theta_star forms p' and p'' from it; nn forms them from the logistic.
    # No kind calls a public smoothing function
    def refuse(*args, **kwargs):
        raise AssertionError("theta_star called a public smoothing function")

    rng = np.random.default_rng(113)
    for _ in range(20):
        losses = rng.exponential(scale=float(rng.uniform(0.1, 10.0)), size=int(rng.integers(1, 200)))
        alpha = float(rng.uniform(0.02, 0.9))
        mu = float(rng.choice([1e-6, 1e-4, 1e-2]))
        with monkeypatch.context() as m:
            # the names theta_star resolves; _h below calls the real ones
            for name in ("plus_part", "smooth_plus", "smooth_plus_deriv"):
                m.setitem(theta_star.__globals__, name, refuse)
            t = theta_star(losses, alpha, mu, kind)
        tol = 1e-10 * (1.0 + abs(t))
        assert _h(losses, t - tol, alpha, mu, kind) <= 0.0 <= _h(losses, t + tol, alpha, mu, kind)


def test_theta_star_validation():
    with pytest.raises(ValueError):
        theta_star(np.array([]), 0.5, 1e-6)
    with pytest.raises(ValueError):
        theta_star(np.array([1.0, np.inf]), 0.5, 1e-6)
    with pytest.raises(ValueError):
        theta_star(np.array([1.0, 2.0]), 1.5, 1e-6)
    with pytest.raises(ValueError):
        theta_star(np.array([1.0, 2.0]), 0.5, 0.0)


def test_theta_star_smoothing_gap_bound():
    # 0 <= min_Theta Nhat - CVaR <= mu / alpha for the CHKS smoother
    rng = np.random.default_rng(89)
    for _ in range(100):
        losses = rng.normal(size=int(rng.integers(5, 60))) * 3
        alpha = float(rng.uniform(0.1, 0.9))
        mu = float(rng.uniform(1e-6, 1e-2))
        t = theta_star(losses, alpha, mu)
        val = t + np.mean(
            (losses - t + np.sqrt((losses - t) ** 2 + 4 * mu**2)) / 2
        ) / alpha
        gap = val - cvar_empirical(losses, alpha)
        assert -1e-10 <= gap <= mu / alpha + 1e-10


def test_evaluator_derivatives_match_central_differences():
    # per draw: jacobians against central differences of residuals, and
    # merit_grads against central differences of thetas
    rng = np.random.default_rng(97)
    step = 1e-6
    for _ in range(10):
        spec = random_spec(rng, k=int(rng.integers(1, 4)), l=int(rng.integers(1, 4)))
        s = draw_samples(spec.distribution, spec.omega_dim, 5, int(rng.integers(1, 10**6)))
        z = _random_point(rng, spec)
        ev = SampleEvaluator(spec, s)
        jac = jacobians(ev, z)
        grads = merit_grads(ev, z)
        fd_jac = np.empty_like(jac)
        fd_grad = np.empty_like(grads)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = step
            hi, lo = z + e, z - e
            fd_jac[:, :, i] = (ev.residuals(hi) - ev.residuals(lo)).T / (2 * step)
            fd_grad[:, i] = (ev.thetas(hi) - ev.thetas(lo)) / (2 * step)
        assert np.max(np.abs(jac - fd_jac) / (1.0 + np.abs(jac))) <= 1e-5
        assert np.max(np.abs(grads - fd_grad) / (1.0 + np.abs(grads))) <= 1e-5


def test_evaluator_mean_jacobian_residual():
    rng = np.random.default_rng(101)
    spec = random_spec(rng)
    s = draw_samples(spec.distribution, spec.omega_dim, 9, 21)
    z = _random_point(rng, spec)
    ev = SampleEvaluator(spec, s)
    jbar, rbar = mean_jacobian(ev, z)
    assert np.allclose(jbar, jacobians(ev, z).mean(axis=0), atol=1e-13)
    assert np.allclose(rbar, ev.residuals(z).mean(axis=1), atol=1e-13)


def test_weighted_merit_grad_matches_per_draw_weighting():
    rng = np.random.default_rng(103)
    for _ in range(20):
        spec = random_spec(rng, k=int(rng.integers(1, 4)), l=int(rng.integers(1, 4)))
        s = draw_samples(spec.distribution, spec.omega_dim, 11, int(rng.integers(1, 10**6)))
        z = _random_point(rng, spec)
        ev = SampleEvaluator(spec, s)
        w = rng.uniform(0, 1, size=len(s))
        fused = merit_grad(ev, z, w)
        naive = (w[:, None] * merit_grads(ev, z)).mean(axis=0)
        assert np.allclose(fused, naive, rtol=1e-11, atol=1e-12)
        ones = merit_grad(ev, z, 1.0)
        assert np.allclose(ones, merit_grads(ev, z).mean(axis=0), rtol=1e-11, atol=1e-12)
        # at N = 1 the means are the one draw's J and R, so the two kernels
        # agree on J^T R to rounding, measured on the scale |J|^T |R|
        one = SampleEvaluator(spec, s[:1])
        jbar, rbar = mean_jacobian(one, z)
        gap = np.abs(jbar.T @ rbar - merit_grad(one, z, 1.0))
        assert np.all(gap <= 1e-12 * (np.abs(jbar).T @ np.abs(rbar)))


def test_evaluator_holds_the_draws_and_realizes_dense_blocks_on_first_access():
    rng = np.random.default_rng(107)
    k, l, n = 4, 3, 500
    spec = random_spec(rng, k=k, l=l, omega_dim=3)
    draws = draw_samples(spec.distribution, spec.omega_dim, n, 5)
    ev = SampleEvaluator(spec, draws)
    assert ev.W.shape == (spec.omega_dim + 1, n)
    assert np.array_equal(ev.W[0], np.ones(n)) and np.array_equal(ev.W[1:], draws.T)
    # no array larger than the draws themselves outlives __init__
    for name, val in vars(ev).items():
        if isinstance(val, np.ndarray):
            assert val.size <= (spec.omega_dim + 1) * n, name
    # the flat blocks perfbench's byte counter reads: x @ A2 is A x as k N
    # values, and so on for B (u), C (x) and D (u)
    dense = {"A2": k * k, "B2": l * k, "C2": k * l, "D2": l * l, "p": k, "q": l}
    assert not set(dense) & set(vars(ev))
    T, r = realize_batch(spec, draws)
    assert np.array_equal(ev.p, r[:, :k].T)
    assert set(dense) <= set(vars(ev))
    assert np.array_equal(ev.q, r[:, k:].T)
    x, u = rng.normal(size=k), rng.normal(size=l)
    blocks = {"A2": (x, T[:, :k, :k]), "B2": (u, T[:, :k, k:]), "C2": (x, T[:, k:, :k]), "D2": (u, T[:, k:, k:])}
    for name, (vec, block) in blocks.items():
        got = (vec @ getattr(ev, name)).reshape(-1, n)
        assert np.allclose(got, np.einsum("nij,j->in", block, vec), rtol=1e-14, atol=1e-14), name
    for name, size in dense.items():
        assert getattr(ev, name).nbytes == 8 * n * size, name
    for name in ("A", "B", "C", "D", "TT"):
        with pytest.raises(AttributeError):
            getattr(ev, name)


def _entry(row, col, coeff, omega):
    return PerturbEntry(row=row, col=col, coeff=coeff, omega_index=omega)


def _awkward_spec(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    k, l, omega_dim = (1, 1, 7) if case == "omega_dim_above_m" else (3, 2, 4)
    m = k + l
    if case == "duplicates":
        # the same (row, col, omega) twice, in T and in r, must add up
        t_entries = (_entry(0, 1, 0.7, 2), _entry(0, 1, -1.9, 2), _entry(4, 3, 1.3, 0), _entry(4, 3, 0.4, 0))
        r_entries = (_entry(2, None, 0.5, 1), _entry(2, None, 2.5, 1))
    elif case == "shared_omega":
        # one draw component in several rows of T and r; omega 3 unused
        t_entries = tuple(_entry(i, (2 * i) % m, 0.3 + i, 1) for i in range(m))
        r_entries = (_entry(0, None, -1.1, 1), _entry(3, None, 0.6, 1), _entry(1, None, 0.2, 0))
    elif case == "omega_dim_above_m":
        t_entries = (_entry(0, 0, 1.5, 6), _entry(1, 0, -0.8, 2), _entry(0, 1, 0.4, 6))
        r_entries = (_entry(1, None, 0.9, 0), _entry(0, None, -0.3, 4))
    else:
        t_entries, r_entries = (), ()
    return ProblemSpec(
        dims=ConeDims(k, l),
        omega_dim=omega_dim,
        T_base=rng.normal(size=(m, m)),
        r_base=rng.normal(size=m),
        T_perturb=t_entries,
        r_perturb=r_entries,
        distribution=DIST,
    )


@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize("case", ["duplicates", "shared_omega", "omega_dim_above_m", "unperturbed"])
def test_structured_kernels_match_the_dense_reference_on_awkward_specs(case, n):
    spec = _awkward_spec(case)
    k, l = spec.dims.k, spec.dims.l
    rng = np.random.default_rng(113 + n)
    draws = draw_samples(spec.distribution, spec.omega_dim, n, 19)
    ev = SampleEvaluator(spec, draws)
    z = _random_point(rng, spec)
    T, r = realize_batch(spec, draws)
    assert np.allclose(ev.T_bar, T.mean(axis=0), rtol=1e-13, atol=1e-13)

    want = np.einsum("nij,j->in", T, np.concatenate([z[:k] + z[-1], z[k:-1]])) + r.T
    f = ev._g1_v(z)
    assert np.allclose(f[:k], want[:k], rtol=1e-13, atol=1e-13)
    assert np.allclose(f[k:-1], want[k:], rtol=1e-13, atol=1e-13)
    assert np.allclose(f[-1], want[:k].sum(axis=0), rtol=1e-13, atol=1e-13)

    jac = jacobians(ev, z)
    grads = merit_grads(ev, z)
    w = rng.uniform(0, 1, size=n)
    assert np.allclose(merit_grad(ev, z, w), (w[:, None] * grads).mean(axis=0), rtol=1e-11, atol=1e-12)
    assert np.allclose(merit_grad(ev, z, 1.0), grads.mean(axis=0), rtol=1e-11, atol=1e-12)
    jbar, rbar = mean_jacobian(ev, z)
    assert np.allclose(jbar, jac.mean(axis=0), rtol=1e-12, atol=1e-12)
    assert np.allclose(rbar, ev.residuals(z).mean(axis=1), rtol=1e-12, atol=1e-12)


def test_residuals_fill_and_return_the_callers_array():
    # every per-draw array is (rows, N): residuals returns the array it
    # fills, which thetas and the gradient kernels read as it is
    rng = np.random.default_rng(137)
    spec = random_spec(rng)
    ev = SampleEvaluator(spec, draw_samples(spec.distribution, spec.omega_dim, 9, 23))
    z = _random_point(rng, spec)
    f = ev._g1_v(z)
    out = np.empty((ev.dim, ev.N))
    res = ev.residuals(z, f, out)
    assert res is out and res.shape == (spec.dims.m + 1, 9)
    assert np.array_equal(res, ev.residuals(z))
    assert np.allclose(ev.thetas(z, res), 0.5 * (res * res).sum(axis=0), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "draws",
    [np.zeros(3), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((0, 3)), np.zeros((2, 4, 3))],
    ids=["1-d", "too_few_columns", "too_many_columns", "no_draws", "3-d"],
)
def test_evaluator_rejects_draws_of_the_wrong_shape(draws):
    spec = random_spec(np.random.default_rng(127), omega_dim=3)
    with pytest.raises(ValueError, match="shape"):
        SampleEvaluator(spec, draws)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluator_rejects_non_finite_draws(bad):
    spec = random_spec(np.random.default_rng(131), omega_dim=3)
    draws = np.zeros((5, 3))
    draws[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SampleEvaluator(spec, draws)


@pytest.mark.parametrize("n", [1, 257])
def test_evaluator_matches_dense_reference_on_a_wide_instance(n):
    rng = np.random.default_rng(109 + n)
    k, l = 10, 6
    spec = random_spec(rng, k=k, l=l, omega_dim=3)
    s = draw_samples(spec.distribution, spec.omega_dim, n, 17)
    ev = SampleEvaluator(spec, s)
    z = _random_point(rng, spec)

    want = np.empty((n, k + l + 1))
    x_m, u, t = z[:k], z[k:-1], z[-1]
    for j, omega in enumerate(s):
        f = f_eval(spec, omega, x_m + t, u)
        g1, v = f[:k], f[k:]
        want[j, :k] = np.hypot(x_m, g1) - x_m - g1
        want[j, k : k + l] = t * v + g1.sum() * u
        want[j, k + l] = t**2 - u @ u
    res = ev.residuals(z).T  # want is (n, k + l + 1), one row per draw
    assert res.shape == (n, k + l + 1)
    assert np.allclose(res, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(ev.thetas(z), 0.5 * (want**2).sum(axis=1), rtol=1e-12, atol=1e-12)

    jac = jacobians(ev, z)
    step = 1e-6
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = step
        fd = (ev.residuals(z + e) - ev.residuals(z - e)).T / (2 * step)
        assert np.max(np.abs(jac[:, :, i] - fd) / (1.0 + np.abs(jac[:, :, i]))) <= 1e-5

    grads = merit_grads(ev, z)
    w = rng.uniform(0, 1, size=n)
    assert np.allclose(merit_grad(ev, z, w), (w[:, None] * grads).mean(axis=0), rtol=1e-11, atol=1e-12)
    jbar, rbar = mean_jacobian(ev, z)
    assert np.allclose(jbar, jac.mean(axis=0), rtol=1e-12, atol=1e-12)
    assert np.allclose(rbar, want.mean(axis=0), rtol=1e-12, atol=1e-12)

"""Tests for the staged solver: config, directions, line search, full solves."""

import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from esoclcp.cone import ConeDims, classify_complementarity
from esoclcp.merit import merit_theta
from esoclcp.problem import builtin_example
from esoclcp.reformulate import MixPoint, init_from_lcp, recover_lcp_point
from esoclcp.risk import SmoothingKind, smooth_plus
from esoclcp.saa import SAAPoint, SampleEvaluator, SampleSet, theta_star
from esoclcp.solver import (
    SolverConfig,
    _lm_from_means,
    _StageProblem,
    aloc,
    default_start,
    solve,
    stage_samples,
    stage_seed,
    wolfe_search,
)

from conftest import case_iv_instance, random_spec
from dense_reference import jacobians


def test_config_defaults_valid():
    cfg = SolverConfig()
    assert cfg.alpha == 0.05
    assert cfg.schedule == (10, 100, 1000, 10000)
    assert cfg.mode == "cvar"
    assert cfg.k_max == 500


def test_config_validation_errors():
    bad = [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(mu=0.0),
        dict(mu=-1e-4),
        dict(lm_nu=0.0),
        dict(schedule=()),
        dict(schedule=(0, 10)),
        dict(schedule=(10, 10)),
        dict(schedule=(100, 10)),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed="42"),
        dict(tol_r=0.0),
        dict(eps=-1.0),
        dict(descent_r=0.0),
        dict(c1=0.0),
        dict(c1=0.5, c2=0.5),
        dict(c1=0.5, c2=0.2),
        dict(c2=1.0),
        dict(k_max=0),
        dict(k_max=2.5),
        dict(mode="saddle"),
        dict(smoothing="parabolic"),
    ]
    # inf > 0, so every positive bound must also refuse non-finite values
    for name in ("mu", "lm_nu", "tol_r", "eps", "descent_r"):
        bad += [{name: float("inf")}, {name: float("nan")}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def test_config_normalizes_schedule_to_int_tuple():
    cfg = SolverConfig(schedule=[np.int64(5), 50])
    assert cfg.schedule == (5, 50)
    assert all(type(n) is int for n in cfg.schedule)


def test_stage_seed_deterministic_and_distinct():
    assert stage_seed(42, 1) == stage_seed(42, 1)
    seen = {stage_seed(42, j) for j in range(1, 9)}
    assert len(seen) == 8
    assert stage_seed(7, 3) != stage_seed(42, 3)


def test_stage_samples_reproducible_and_sized():
    spec = random_spec(np.random.default_rng(0))
    cfg = SolverConfig(schedule=(4, 9, 25))
    for j in (1, 2, 3):
        a = stage_samples(spec, cfg, j)
        b = stage_samples(spec, cfg, j)
        assert a.N == cfg.schedule[j - 1]
        assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(
        stage_samples(spec, cfg, 1).draws[:4], stage_samples(spec, cfg, 2).draws[:4]
    )
    with pytest.raises(ValueError):
        stage_samples(spec, cfg, 4)
    with pytest.raises(ValueError):
        stage_samples(spec, cfg, 0)


def test_stage_samples_ev_mode_is_single_mean_draw():
    spec = random_spec(np.random.default_rng(1))
    cfg = SolverConfig(mode="ev", schedule=(10, 100))
    s = stage_samples(spec, cfg, 1)
    assert s.N == 1
    assert np.array_equal(s.draws, spec.mean_omega()[None, :])


def _gauss_newton(spec, s, p, nu):
    return _lm_from_means(*SampleEvaluator(spec, s.draws).mean_jacobian_residual(p), nu)


def test_gauss_newton_direction_zero_at_exact_solution():
    spec, x, u, _, _ = case_iv_instance()
    s = stage_samples(spec, SolverConfig(schedule=(3,)), 1)
    d = _gauss_newton(spec, s, init_from_lcp(x, u), 1e-6)
    assert float(np.linalg.norm(d)) <= 1e-12


def test_gauss_newton_direction_matches_dense_normal_equations():
    rng = np.random.default_rng(314)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        spec = random_spec(rng, k=k, l=l, omega_dim=2)
        s = stage_samples(spec, SolverConfig(schedule=(7,), seed=int(rng.integers(1000))), 1)
        p = MixPoint(rng.normal(size=k), rng.normal(size=l), float(rng.uniform(0.2, 2.0)))
        nu = float(rng.uniform(1e-8, 1e-2))
        ev = SampleEvaluator(spec, s.draws)
        a_bar = jacobians(ev, p).mean(axis=0)
        f_bar = ev.residuals(p).mean(axis=0)
        want = np.linalg.solve(
            a_bar.T @ a_bar + nu * np.eye(k + l + 1), -(a_bar.T @ f_bar)
        )
        got = _gauss_newton(spec, s, p, nu)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("fill, nu", [(np.nan, 1e-6), (np.inf, 1e-6), (0.0, -1.0)])
def test_unsolvable_normal_equations_fall_back_to_steepest_descent(monkeypatch, fill, nu):
    # a non-finite mean Jacobian, or an indefinite gram (-I), must raise
    # LinAlgError, and the stage must then step along -grad, without a
    # warning; the fill beside zeros is where inf * 0 would make a product warn
    spec = builtin_example()
    cfg = SolverConfig(schedule=(20,), seed=3)
    for a_bar in (np.full((6, 6), fill), np.diag([fill, 1.0, 1.0, 1.0, 1.0, 1.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _lm_from_means(a_bar, np.ones(6), nu)
            stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1).draws), cfg)
            monkeypatch.setattr(stage.ev, "mean_jacobian_residual", lambda *args, a_bar=a_bar: (a_bar, np.ones(6)))
            monkeypatch.setattr(stage, "cfg", SimpleNamespace(**{**vars(cfg), "lm_nu": nu}))
            e = stage.eval_point(default_start(spec).as_vector())
            grad = stage.grad(e)
            assert np.array_equal(stage.direction(e, grad), -grad)
    # a finite mean Jacobian beside a non-finite mean residual is refused too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _lm_from_means(np.eye(6), np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]), nu)


def test_gauss_newton_direction_huge_damping_aligns_with_steepest_descent():
    rng = np.random.default_rng(99)
    spec = random_spec(rng)
    s = stage_samples(spec, SolverConfig(schedule=(5,)), 1)
    p = MixPoint(rng.normal(size=3), rng.normal(size=2), 0.7)
    ev = SampleEvaluator(spec, s.draws)
    sd = -(jacobians(ev, p).mean(axis=0).T @ ev.residuals(p).mean(axis=0))
    d = _gauss_newton(spec, s, p, 1e12)
    cosang = float(d @ sd) / (np.linalg.norm(d) * np.linalg.norm(sd))
    assert np.arccos(np.clip(cosang, -1.0, 1.0)) <= 1e-6


def test_wolfe_quadratic_accepts_unit_step():
    # f(s) = s^2 - 2s has its minimum at s = 1 where the slope vanishes
    f = lambda s: s * s - 2.0 * s
    g = lambda s: 2.0 * s - 2.0
    assert wolfe_search(f, g, 1e-4, 0.9) == 1.0
    assert wolfe_search(f, g, 1e-4, 0.1) == 1.0
    # doubling has to walk up from a too-small initial step
    assert wolfe_search(f, g, 1e-4, 0.1, s_init=0.25) == 1.0


def test_wolfe_rejects_uphill_start():
    with pytest.raises(ValueError):
        wolfe_search(lambda s: s, lambda s: 1.0)
    with pytest.raises(ValueError):
        wolfe_search(lambda s: 0.0, lambda s: 0.0)
    with pytest.raises(ValueError):
        wolfe_search(lambda s: -s, lambda s: -1.0, s_init=0.0)


def test_wolfe_linear_decay_returns_armijo_step():
    # curvature condition never holds on a line, so the fallback must still
    # return a positive sufficient-decrease step
    s = wolfe_search(lambda t: -t, lambda t: -1.0, 1e-4, 0.9)
    assert np.isfinite(s) and s > 0
    assert -s <= 1e-4 * s * -1.0


def test_wolfe_satisfies_both_conditions_on_random_quadratics():
    rng = np.random.default_rng(2024)
    for i in range(200):
        a = float(10.0 ** rng.uniform(-3, 6))
        b = float(-(10.0 ** rng.uniform(-3, 3)))
        c2 = (0.1, 0.5, 0.9)[i % 3]
        f = lambda s: a * s * s + b * s
        g = lambda s: 2.0 * a * s + b
        s = wolfe_search(f, g, 1e-4, c2)
        assert s > 0
        assert f(s) <= 1e-4 * s * b + 1e-15
        assert g(s) >= c2 * b


def test_wolfe_backs_off_where_the_value_is_not_finite():
    # f is inf beyond s = 0.3 and nan beyond 0.6; the unit step and the first
    # bisection land there, and the step returned must be a finite one with
    # sufficient decrease, on a quadratic (Wolfe step) and on a line (fallback)
    for f0, g0 in ((lambda s: s * s - 2.0 * s, lambda s: 2.0 * s - 2.0), (lambda s: -s, lambda s: -1.0)):
        f = lambda s, f0=f0: f0(s) if s <= 0.3 else (np.inf if s <= 0.6 else np.nan)
        s = wolfe_search(f, g0, 1e-4, 0.9)
        assert np.isfinite(s) and 0.0 < s <= 0.3
        assert f(s) <= f(0.0) + 1e-4 * s * g0(0.0)


def test_default_start_values():
    spec = random_spec(np.random.default_rng(5), k=4, l=3)
    p = default_start(spec)
    assert np.array_equal(p.x_m, np.zeros(4))
    assert np.allclose(p.u, 0.1 / np.sqrt(3.0))
    assert p.t == pytest.approx(0.1)


def test_solve_ev_mode_reaches_case_iv_solution():
    spec, x, u, _, _ = case_iv_instance()
    rng = np.random.default_rng(77)
    exact = init_from_lcp(x, u).as_vector()
    z0 = exact + rng.uniform(-0.02, 0.02, size=exact.size)
    start = SAAPoint(MixPoint.from_vector(z0, 3, 2), 0.0)
    cfg = SolverConfig(mode="ev", tol_r=1e-8)
    t0 = time.perf_counter()
    rep = solve(spec, cfg, start)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(rep.stages) == 1
    assert rep.stages[0].N == 1
    assert rep.stages[0].termination == "grad_tol"
    p = rep.final_mix.p
    assert merit_theta(spec, spec.mean_omega(), p) <= 1e-10
    F = rep.F_at_mean
    got = classify_complementarity(
        spec.dims, rep.recovered.x, rep.recovered.u, F[:3], F[3:], tol=1e-4
    )
    assert got.case == "IV"
    assert np.allclose(rep.recovered.x, x, atol=1e-4)
    assert np.allclose(rep.recovered.u, u, atol=1e-4)


def test_solve_is_deterministic():
    spec = random_spec(np.random.default_rng(11))
    cfg = SolverConfig(schedule=(5, 12), k_max=25, seed=123)
    a = solve(spec, cfg)
    b = solve(spec, cfg)
    assert np.array_equal(a.recovered.x, b.recovered.x)
    assert np.array_equal(a.recovered.u, b.recovered.u)
    assert np.array_equal(a.F_at_mean, b.F_at_mean)
    assert a.aloc == b.aloc
    assert a.theta_threshold == b.theta_threshold
    for ra, rb in zip(a.stages, b.stages):
        assert (ra.inner_iters, ra.termination) == (rb.inner_iters, rb.termination)
        assert np.array_equal(ra.point.p.as_vector(), rb.point.p.as_vector())


def test_solve_theta_matches_reoptimized_threshold():
    spec = random_spec(np.random.default_rng(21))
    cfg = SolverConfig(schedule=(6, 15), k_max=30, seed=9)
    rep = solve(spec, cfg)
    final = rep.stages[-1]
    ev = SampleEvaluator(spec, stage_samples(spec, cfg, final.j).draws)
    th = theta_star(ev.thetas(rep.final_mix.p), cfg.alpha, cfg.mu, cfg.smoothing)
    assert rep.theta_threshold == pytest.approx(th, abs=1e-8)


def test_solve_outer_eps_stops_schedule_early():
    # a deterministic instance makes every stage identical, so starting at
    # the solution finishes stage one immediately and stage two lands on the
    # same point, triggering the between-stage displacement stop
    spec, x, u, _, _ = case_iv_instance()
    start = SAAPoint(init_from_lcp(x, u), 0.0)
    cfg = SolverConfig(schedule=(1, 2, 3), eps=1e-6)
    rep = solve(spec, cfg, start)
    assert len(rep.stages) == 2
    assert rep.stages[0].termination == "grad_tol"
    assert rep.stages[0].inner_iters == 0
    assert rep.stages[1].termination == "outer_eps"


def test_solve_kmax_termination_is_reported():
    spec = random_spec(np.random.default_rng(31))
    cfg = SolverConfig(schedule=(8,), k_max=2)
    rep = solve(spec, cfg)
    assert rep.stages[0].termination == "k_max"
    assert rep.stages[0].inner_iters == 2


def test_solve_erm_mode_runs():
    spec = random_spec(np.random.default_rng(41))
    cfg = SolverConfig(mode="erm", schedule=(5, 10), k_max=30)
    rep = solve(spec, cfg)
    assert rep.mode == "erm"
    assert [r.N for r in rep.stages] == [5, 10]
    assert np.all(np.isfinite(rep.final_mix.p.as_vector()))
    assert np.isfinite(rep.theta_threshold)
    assert np.isfinite(rep.aloc)


def test_solve_rejects_mismatched_start():
    spec = random_spec(np.random.default_rng(51), k=3, l=2)
    wrong = SAAPoint(MixPoint(np.zeros(2), np.zeros(2), 0.0), 0.0)
    with pytest.raises(ValueError):
        solve(spec, SolverConfig(schedule=(3,)), wrong)


def test_accepted_steps_never_increase_objective(monkeypatch):
    import esoclcp.solver as solver_mod

    orig = solver_mod.wolfe_search
    seen = []

    def spy(f, g, c1, c2, s_init=1.0, max_evals=60):
        s = orig(f, g, c1, c2, s_init=s_init, max_evals=max_evals)
        seen.append((f(0.0), f(s)))
        return s

    monkeypatch.setattr(solver_mod, "wolfe_search", spy)
    spec, _, _, _, _ = case_iv_instance()
    rep = solve(spec, SolverConfig(mode="ev", k_max=60))
    assert seen
    for f0, fs in seen:
        assert fs <= f0 + 1e-9 * (1.0 + abs(f0))
    assert rep.stages[0].inner_iters == len(seen) or rep.stages[0].termination != "grad_tol"


def test_stage_aloc_is_over_the_stage_sample():
    spec = builtin_example()
    cfg = SolverConfig(schedule=(5, 10), k_max=5)
    rep = solve(spec, cfg)
    for stage in rep.stages:
        pt = recover_lcp_point(stage.point.p)
        assert stage.aloc == aloc(spec, stage_samples(spec, cfg, stage.j), pt.x, pt.u)
    assert rep.aloc == rep.stages[-1].aloc


def test_aloc_zero_at_exact_complementarity():
    spec, x, u, _, _ = case_iv_instance()
    s = stage_samples(spec, SolverConfig(schedule=(3,)), 1)
    assert aloc(spec, s, x, u) <= 1e-12


def test_aloc_matches_hand_computation():
    rng = np.random.default_rng(61)
    for _ in range(20):
        spec = random_spec(rng)
        s = stage_samples(spec, SolverConfig(schedule=(4,), seed=int(rng.integers(100))), 1)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        from esoclcp.problem import f_eval

        w = np.concatenate([x, u])
        want = np.mean([abs(float(w @ f_eval(spec, om, x, u))) for om in s.draws])
        assert aloc(spec, s, x, u) == pytest.approx(want, rel=1e-12)


def test_aloc_rejects_bad_shapes():
    spec = random_spec(np.random.default_rng(71), k=3, l=2)
    s = stage_samples(spec, SolverConfig(schedule=(2,)), 1)
    with pytest.raises(ValueError):
        aloc(spec, s, np.zeros(2), np.zeros(2))


def _wide_stage(mode, n):
    # a fresh stage over one fixed k=10, l=6 instance and N-draw sample
    spec = random_spec(np.random.default_rng(137), k=10, l=6, omega_dim=3)
    cfg = SolverConfig(mode=mode, schedule=(n,), seed=5)
    return _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1).draws), cfg)


@pytest.mark.parametrize("mode", ["cvar", "erm"])
def test_stage_answers_for_an_older_point_as_a_fresh_stage_does(mode):
    rng = np.random.default_rng(139)
    za = np.concatenate([rng.normal(size=16), [0.8]])
    zb = za + rng.normal(scale=0.1, size=za.size)
    fresh = _wide_stage(mode, 300)
    a0 = fresh.eval_point(za)
    stage = _wide_stage(mode, 300)
    a = stage.eval_point(za)
    b = stage.eval_point(zb)
    # A is no longer the point the stage's buffers hold, and B's gradient and
    # FB coefficients are computed in between
    stage.direction(b, stage.grad(b))
    ga = stage.grad(a)
    assert np.array_equal(ga, fresh.grad(a0))
    assert np.array_equal(stage.direction(a, ga), fresh.direction(a0, fresh.grad(a0)))
    assert np.array_equal(stage.losses(a), fresh.losses(a0))
    assert np.array_equal([a.value, a.theta], [a0.value, a0.theta], equal_nan=True)


@pytest.mark.parametrize("mode", ["cvar", "erm"])
def test_trial_evaluation_allocates_no_per_draw_arrays(mode):
    import tracemalloc

    n = 4000
    stage = _wide_stage(mode, n)
    rng = np.random.default_rng(149)
    z = np.concatenate([rng.normal(size=16), [0.8]])
    e = stage.eval_point(z)
    stage.direction(e, stage.grad(e))
    stage.eval_point(z + 0.01)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        stage.eval_point(z + 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an allocating evaluation needs G1, v and the residuals: 2 m + 1 = 33 rows
    # of N doubles; the cvar threshold and its smoothing take a few
    assert peak < 5 * 8 * n, peak / (8 * n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trial_points_must_be_finite_and_of_the_right_length(bad):
    spec = builtin_example()
    cfg = SolverConfig(schedule=(5,), seed=3)
    stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1).draws), cfg)
    z0 = default_start(spec).as_vector()
    for i in (0, 3, 5):  # x_m, u and t
        z = z0.copy()
        z[i] = bad
        with pytest.raises(ValueError, match="mix point must be finite"):
            stage.eval_point(z)
    with pytest.raises(ValueError, match="length 6"):
        stage.eval_point(z0[:-1])


@pytest.mark.parametrize("n", [1, 7, 4000])
@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_trial_value_is_the_mean_over_the_losses_bit_for_bit(mode, n):
    rng = np.random.default_rng(151)
    spec = random_spec(np.random.default_rng(153), k=4, l=2, omega_dim=3)
    draws = stage_samples(spec, SolverConfig(schedule=(n,), seed=5), 1).draws
    kinds = list(SmoothingKind) if mode == "cvar" else [SmoothingKind.CHKS]
    for kind in kinds:
        cfg = SolverConfig(mode=mode, schedule=(n,), seed=5, smoothing=kind)
        stage = _StageProblem(SampleEvaluator(spec, draws), cfg)
        for _ in range(4):
            e = stage.eval_point(np.concatenate([rng.normal(size=6), [rng.uniform(0.1, 2.0)]]))
            losses = stage.losses(e)
            if mode == "cvar":
                shifted = smooth_plus(losses - e.theta, cfg.mu, kind)
                assert e.value == e.theta + float(np.mean(shifted)) / cfg.alpha
            else:
                assert e.value == float(np.mean(losses))


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_stage_gradient_matches_central_differences_of_the_value(mode):
    # the gradient the solver steps along against differences of the value
    # its line search compares; in cvar every trial point re-optimizes Theta
    # by theta_star, so the differences are of min_Theta Nhat(z, Theta)
    rng = np.random.default_rng(157)
    step = 1e-6
    checked = 0
    while checked < 20:
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        spec = random_spec(rng, k=k, l=l, omega_dim=2)
        z = np.concatenate([rng.normal(size=k + l), [rng.uniform(0.2, 2.0)]])
        # the FB rows are nonsmooth only where x_m and G1 both vanish
        if float(np.min(np.abs(z[:k]))) < 1e-2:
            continue
        cfg = SolverConfig(
            mode=mode,
            alpha=float(rng.uniform(0.1, 0.9)),
            mu=(1e-2, 1e-4)[checked % 2],
            schedule=(int(rng.integers(3, 9)),),
            seed=int(rng.integers(1000)),
        )
        stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1).draws), cfg)
        grad = stage.grad(stage.eval_point(z))
        fd = np.empty_like(z)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = step
            fd[i] = (stage.eval_point(z + e).value - stage.eval_point(z - e).value) / (2 * step)
        assert np.max(np.abs(grad - fd) / (1.0 + np.abs(grad))) <= 1e-5, (checked, grad, fd)
        checked += 1

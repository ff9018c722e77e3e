"""Tests for the staged solver: config, directions, line search, full solves."""

import re
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from esoclcp.cone import ConeDims, classify_complementarity
from esoclcp.merit import merit_theta
from esoclcp.problem import DistributionSpec, builtin_example, realize_batch
from esoclcp.reformulate import init_from_lcp, recover_lcp_point
from esoclcp.risk import (
    MU_MAX,
    MU_MIN,
    SmoothingKind,
    _tail_cvar,
    _tail_quantile,
    _tail_rank,
    cvar_empirical,
    smooth_plus,
    theta_star,
)
from esoclcp.saa import RayBound, SampleEvaluator, draw_samples
from esoclcp.solver import (
    COUNTS,
    _C1,
    _C2,
    SolverConfig,
    _lm_from_means,
    _PointEval,
    _StageProblem,
    aloc,
    default_start,
    solve,
    stage_samples,
    stage_seed,
    wolfe_search,
)

from conftest import assert_refuses, case_iv_instance, random_spec, scaled_example
from dense_reference import aloc_dense, f_eval, jacobians, mean_jacobian


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
        dict(mu=1.0000000000000002e100),
        dict(schedule=()),
        dict(schedule=(0, 10)),
        dict(schedule=(10, 10)),
        dict(schedule=(100, 10)),
        dict(schedule=(10.5, 100)),
        dict(schedule=("10", "100")),
        dict(schedule=(True, 2)),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed="42"),
        dict(seed=True),
        dict(tol_r=0.0),
        dict(eps=-1.0),
        dict(k_max=0),
        dict(k_max=2.5),
        dict(k_max=True),
        dict(mode="saddle"),
        dict(smoothing="parabolic"),
    ]
    # inf > 0, so every positive bound must also refuse non-finite values
    for name in ("mu", "tol_r", "eps"):
        bad += [{name: float("inf")}, {name: float("nan")}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
    # a bool is refused by the name of its field, not read as 0 or 1
    for name in ("seed", "k_max"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: True})
    # k_max is stored as a Python int, as seed is
    cfg = SolverConfig(k_max=np.int64(7), seed=np.uint64(3))
    assert type(cfg.k_max) is int and type(cfg.seed) is int


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SolverConfig(schedule=(0, 10)), "schedule[0] must be an integer >= 1, got 0"),
        (lambda: SolverConfig(schedule=(10, 10.5)), "schedule[1] must be an integer >= 1, got 10.5"),
        (lambda: SolverConfig(schedule=()), "schedule must be strictly increasing positive ints, got ()"),
        (lambda: SolverConfig(schedule=(10, 10)), "schedule must be strictly increasing positive ints, got (10, 10)"),
        (lambda: SolverConfig(k_max=True), "k_max must be an integer >= 1, got True"),
        (lambda: SolverConfig(seed=2**64), f"seed must be an unsigned 64-bit integer, got {2**64}"),
        (lambda: SolverConfig(mu=0.0), "mu must be a finite number in [1e-100, 1e+100], got 0.0"),
        (lambda: SolverConfig(mu=1e160), "mu must be a finite number in [1e-100, 1e+100], got 1e+160"),
        (lambda: SolverConfig(mu=True), "mu must be a finite number in [1e-100, 1e+100], got True"),
        (lambda: SolverConfig(tol_r=True), "tol_r must be a finite number in (0, inf), got True"),
        (lambda: SolverConfig(eps=True), "eps must be a finite number in (0, inf), got True"),
        (lambda: SolverConfig(eps=float("inf")), "eps must be a finite number in (0, inf), got inf"),
        (lambda: SolverConfig(eps=10**400), f"eps must be a finite number in (0, inf), got {10**400}"),
        (lambda: SolverConfig(alpha="0.05"), "alpha must be a finite number in (0, 1), got '0.05'"),
    ],
    ids=[
        "schedule-zero", "schedule-float", "schedule-empty", "schedule-flat", "k_max-bool", "seed-2**64", "mu-zero",
        "mu-above-MU_MAX", "mu-bool", "tol_r-bool", "eps-bool", "eps-inf", "eps-int-beyond-floats", "alpha-str",
    ],
)
def test_solver_refusals(make, message):
    # SolverConfig shares the counts', the seed's and the floats' checks
    # with the rest of the library
    assert_refuses(make, ValueError, message)


def test_config_stores_its_float_knobs_as_floats():
    cfg = SolverConfig(alpha=np.float32(0.25), mu=1, tol_r=np.int64(2), eps=np.float16(0.5))
    for name in ("alpha", "mu", "tol_r", "eps"):
        assert type(getattr(cfg, name)) is float, name
    assert (cfg.alpha, cfg.mu, cfg.tol_r, cfg.eps) == (0.25, 1.0, 2.0, 0.5)


def test_config_accepts_mu_up_to_its_limit():
    assert SolverConfig(mu=MU_MAX).mu == MU_MAX == 1e100


def test_config_accepts_mu_down_to_its_limit():
    assert SolverConfig(mu=MU_MIN).mu == MU_MIN == 1e-100
    for mu in (9.999999999999999e-101, 1e-300, 5e-324):
        message = f"mu must be a finite number in [1e-100, 1e+100], got {mu!r}"
        assert_refuses(lambda: SolverConfig(mu=mu), ValueError, message)


@pytest.mark.parametrize("mu", [1e-18, 1e-16, 1e-100])
def test_cvar_stage_refuses_tail_weights_that_miss_alpha_n(mu):
    # far below theta_star's resolution of Theta, 1e-10 (1 + |Theta|), the
    # smoothed tail weights are a step whose sum misses alpha N = 0.25; at
    # 1e-18 the stage used to end on grad_tol after 0 iterations
    total = {1e-18: "1.93427e-11", 1e-16: "1.93428e-07", 1e-100: "0"}[mu]
    cfg = SolverConfig(mu=mu, schedule=(5,), k_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = (
            f"stage 1 (N = 5): tail weights at Theta = 1056.87 sum to {total}, not alpha N = 0.25: "
            f"mu = {mu:g} is below theta_star's resolution of Theta, 1.06e-07"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(builtin_example(), cfg)


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
        assert len(a) == cfg.schedule[j - 1]
        assert np.array_equal(a, b)
    assert not np.array_equal(
        stage_samples(spec, cfg, 1)[:4], stage_samples(spec, cfg, 2)[:4]
    )
    with pytest.raises(ValueError):
        stage_samples(spec, cfg, 4)
    with pytest.raises(ValueError):
        stage_samples(spec, cfg, 0)


def test_stage_samples_ev_mode_is_single_mean_draw():
    spec = random_spec(np.random.default_rng(1))
    cfg = SolverConfig(mode="ev", schedule=(10, 100))
    s = stage_samples(spec, cfg, 1)
    assert len(s) == 1
    assert np.array_equal(s, spec.mean_omega()[None, :])


def _gauss_newton(spec, s, z, nu):
    ev = SampleEvaluator(spec, s)
    return _lm_from_means(*mean_jacobian(ev, z), nu * np.eye(ev.dim))


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
        z = np.r_[rng.normal(size=k), rng.normal(size=l), rng.uniform(0.2, 2.0)]
        nu = float(rng.uniform(1e-8, 1e-2))
        ev = SampleEvaluator(spec, s)
        a_bar = jacobians(ev, z).mean(axis=0)
        f_bar = ev.residuals(z).mean(axis=1)
        want = np.linalg.solve(
            a_bar.T @ a_bar + nu * np.eye(k + l + 1), -(a_bar.T @ f_bar)
        )
        got = _gauss_newton(spec, s, z, nu)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("fill, nu", [(np.nan, 1e-6), (np.inf, 1e-6), (0.0, 0.0)])
def test_unsolvable_normal_equations_fall_back_to_steepest_descent(monkeypatch, fill, nu):
    # a non-finite mean Jacobian, or a singular gram (no damping), must raise
    # LinAlgError, and the stage must then step along -grad, without a
    # warning; the fill beside zeros is where inf * 0 would make a product warn
    spec = builtin_example()
    cfg = SolverConfig(schedule=(20,), seed=3)
    for a_bar in (np.full((6, 6), fill), np.diag([fill, 1.0, 1.0, 1.0, 1.0, 1.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _lm_from_means(a_bar, np.ones(6), nu * np.eye(6))
            ev = SampleEvaluator(spec, stage_samples(spec, cfg, 1))
            stage = _StageProblem(ev, cfg)
            stage._damping = nu * np.eye(ev.dim)
            monkeypatch.setattr(stage.ev, "mean_jacobian_residual", lambda *args, a_bar=a_bar: (a_bar, np.ones(6)))
            e = stage.eval_point(default_start(spec))
            grad = stage.grad(e)
            assert np.array_equal(stage.direction(e, grad), -grad)
    # a finite mean Jacobian beside a non-finite mean residual is refused too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _lm_from_means(np.eye(6), np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]), nu * np.eye(6))


def test_gauss_newton_direction_huge_damping_aligns_with_steepest_descent():
    rng = np.random.default_rng(99)
    spec = random_spec(rng)
    s = stage_samples(spec, SolverConfig(schedule=(5,)), 1)
    z = np.r_[rng.normal(size=3), rng.normal(size=2), 0.7]
    ev = SampleEvaluator(spec, s)
    sd = -(jacobians(ev, z).mean(axis=0).T @ ev.residuals(z).mean(axis=1))
    d = _gauss_newton(spec, s, z, 1e12)
    cosang = float(d @ sd) / (np.linalg.norm(d) * np.linalg.norm(sd))
    assert np.arccos(np.clip(cosang, -1.0, 1.0)) <= 1e-6


def test_wolfe_quadratic_accepts_unit_step():
    # f(s) = s^2 - 2s has its minimum at s = 1 where the slope vanishes
    f = lambda s: s * s - 2.0 * s
    g = lambda s: 2.0 * s - 2.0
    assert wolfe_search(f, g) == 1.0


def test_wolfe_doubles_to_a_step_beyond_one():
    # f(s) = 0.02 s^2 - s has its minimum at s = 25; its slopes at 1 and 2,
    # -0.96 and -0.92, are below 0.9 g(0) = -0.9, so the search doubles
    # twice and stops at 4, where the slope is -0.84
    tried = []

    def f(s):
        tried.append(s)
        return 0.02 * s * s - s

    assert wolfe_search(f, lambda s: 0.04 * s - 1.0) == 4.0
    assert tried == [0.0, 1.0, 2.0, 4.0]


def test_wolfe_rejects_uphill_start():
    with pytest.raises(ValueError):
        wolfe_search(lambda s: s, lambda s: 1.0)
    with pytest.raises(ValueError):
        wolfe_search(lambda s: 0.0, lambda s: 0.0)


def test_wolfe_returns_no_step_where_no_step_decreases():
    # every step raises the value: the search bisects towards 0, tries 60
    # steps and returns none of them, and the slope is asked for only at 0
    tried, slopes = [], []

    def f(s):
        tried.append(s)
        return 1.0 if s else 0.0

    def g(s):
        slopes.append(s)
        return -1.0

    assert wolfe_search(f, g) == 0.0
    assert tried == [0.0] + [0.5**i for i in range(60)]
    assert slopes == [0.0]


def test_wolfe_linear_decay_returns_armijo_step():
    # the curvature condition never holds on a line, so the search returns
    # its best sufficient-decrease step
    s = wolfe_search(lambda t: -t, lambda t: -1.0)
    assert np.isfinite(s) and s > 0
    assert -s <= 1e-4 * s * -1.0


def test_wolfe_satisfies_both_conditions_on_random_quadratics():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-3, 6))
        b = float(-(10.0 ** rng.uniform(-3, 3)))
        f = lambda s: a * s * s + b * s
        g = lambda s: 2.0 * a * s + b
        s = wolfe_search(f, g)
        assert s > 0
        assert f(s) <= _C1 * s * b + 1e-15
        assert g(s) >= _C2 * b


def test_wolfe_backs_off_where_the_value_is_not_finite():
    # f is inf beyond s = 0.3 and nan beyond 0.6; the unit step and the first
    # bisection land there, and the step returned must be a finite one with
    # sufficient decrease, on a quadratic (Wolfe step) and on a line (best step)
    for f0, g0 in ((lambda s: s * s - 2.0 * s, lambda s: 2.0 * s - 2.0), (lambda s: -s, lambda s: -1.0)):
        f = lambda s, f0=f0: f0(s) if s <= 0.3 else (np.inf if s <= 0.6 else np.nan)
        s = wolfe_search(f, g0)
        assert np.isfinite(s) and 0.0 < s <= 0.3
        assert f(s) <= f(0.0) + 1e-4 * s * g0(0.0)


def test_default_start_values():
    spec = random_spec(np.random.default_rng(5), k=4, l=3)
    z = default_start(spec)
    assert z.shape == (8,)
    assert np.array_equal(z[:4], np.zeros(4))
    assert np.allclose(z[4:7], 0.1 / np.sqrt(3.0))
    assert z[7] == pytest.approx(0.1)


def test_solve_ev_mode_reaches_case_iv_solution():
    spec, x, u, _, _ = case_iv_instance()
    rng = np.random.default_rng(77)
    exact = init_from_lcp(x, u)
    start = exact + rng.uniform(-0.02, 0.02, size=exact.size)
    cfg = SolverConfig(mode="ev", tol_r=1e-8)
    t0 = time.perf_counter()
    stages = solve(spec, cfg, start)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(stages) == 1
    assert stages[0].N == 1
    assert stages[0].termination == "grad_tol"
    assert merit_theta(spec, spec.mean_omega(), stages[-1].point) <= 1e-10
    F = stages[-1].F_at_mean
    got = classify_complementarity(
        spec.dims, stages[-1].x, stages[-1].u, F[:3], F[3:], tol=1e-4
    )
    assert got.case == "IV"
    assert np.allclose(stages[-1].x, x, atol=1e-4)
    assert np.allclose(stages[-1].u, u, atol=1e-4)


def test_solve_is_deterministic():
    spec = random_spec(np.random.default_rng(11))
    cfg = SolverConfig(schedule=(5, 12), k_max=25, seed=123)
    a = solve(spec, cfg)
    b = solve(spec, cfg)
    assert np.array_equal(a[-1].x, b[-1].x)
    assert np.array_equal(a[-1].u, b[-1].u)
    assert np.array_equal(a[-1].F_at_mean, b[-1].F_at_mean)
    assert a[-1].aloc == b[-1].aloc
    assert a[-1].theta == b[-1].theta
    for ra, rb in zip(a, b):
        assert (ra.inner_iters, ra.termination) == (rb.inner_iters, rb.termination)
        assert np.array_equal(ra.point, rb.point)


def test_solve_theta_matches_reoptimized_threshold():
    spec = random_spec(np.random.default_rng(21))
    cfg = SolverConfig(schedule=(6, 15), k_max=30, seed=9)
    final = solve(spec, cfg)[-1]
    ev = SampleEvaluator(spec, stage_samples(spec, cfg, final.j))
    th = theta_star(ev.thetas(final.point), cfg.alpha, cfg.mu, cfg.smoothing)
    assert final.theta == pytest.approx(th, abs=1e-8)


def test_solve_outer_eps_stops_schedule_early():
    # a deterministic instance makes every stage identical, so starting at
    # the solution finishes stage one immediately and stage two lands on the
    # same point, triggering the between-stage displacement stop
    spec, x, u, _, _ = case_iv_instance()
    start = init_from_lcp(x, u)
    cfg = SolverConfig(schedule=(1, 2, 3), eps=1e-6)
    stages = solve(spec, cfg, start)
    assert len(stages) == 2
    assert stages[0].termination == "grad_tol"
    assert stages[0].inner_iters == 0
    assert stages[1].termination == "outer_eps"


def test_solve_kmax_termination_is_reported():
    spec = random_spec(np.random.default_rng(31))
    cfg = SolverConfig(schedule=(8,), k_max=2)
    stages = solve(spec, cfg)
    assert stages[0].termination == "k_max"
    assert stages[0].inner_iters == 2


def test_stage_whose_step_stops_moving_reports_the_iterations_run(monkeypatch):
    # at seed 5 the N = 100 stage's accepted step stops moving the point
    # well before the cap; the stage ends there, on the line searches it ran
    import esoclcp.solver as solver_mod

    orig = solver_mod.wolfe_search
    searches = []

    def spy(*args, **kwargs):
        searches.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "wolfe_search", spy)
    cfg = SolverConfig(schedule=(100,), seed=5, k_max=100)
    (stage,) = solve(builtin_example(), cfg)
    assert stage.termination == "stalled"
    assert stage.inner_iters == len(searches) < cfg.k_max


def test_solve_erm_mode_runs():
    spec = random_spec(np.random.default_rng(41))
    cfg = SolverConfig(mode="erm", schedule=(5, 10), k_max=30)
    stages = solve(spec, cfg)
    assert [r.N for r in stages] == [5, 10]
    assert np.all(np.isfinite(stages[-1].point))
    assert np.isfinite(stages[-1].theta)
    assert np.isfinite(stages[-1].aloc)


def test_solve_rejects_mismatched_start():
    # start is z = (x_m, u, t), of length k + l + 1 = 6 here
    spec = random_spec(np.random.default_rng(51), k=3, l=2)
    cfg = SolverConfig(schedule=(3,))
    for wrong, message in (
        (np.zeros(5), "start has length 5, expected 6"),
        (np.zeros(7), "start has length 7, expected 6"),
        (np.zeros((6, 1)), r"start must be a nonempty 1-d vector, got shape \(6, 1\)"),
        (np.r_[np.zeros(5), np.nan], "start must be finite"),
        (np.r_[np.inf, np.zeros(5)], "start must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(spec, cfg, wrong)


def test_solve_keeps_a_copy_of_its_start():
    # tol_r = 1e6 ends the stage at its start, so its point is start's value
    spec = random_spec(np.random.default_rng(51), k=3, l=2)
    start = default_start(spec)
    (stage,) = solve(spec, SolverConfig(schedule=(3,), tol_r=1e6), start)
    assert stage.inner_iters == 0 and np.array_equal(stage.point, start)
    start[:] = 7.0
    assert np.array_equal(stage.point, default_start(spec))


def test_stage_names_itself_in_the_refusal_of_its_draws():
    # std 1e308 sends some draws beyond the floats: the stage that drew them
    # refuses them, without an overflow warning (pytest's filter makes one
    # an error)
    spec = replace(builtin_example(), distribution=DistributionSpec("iid_normal", 0.0, 1e308))
    with pytest.raises(ValueError, match=r"^stage 1 \(N = 10\): draws must be finite$"):
        solve(spec, SolverConfig(schedule=(10, 100), k_max=3))


def test_solve_refuses_a_non_finite_theta(monkeypatch):
    # the Theta a stage records must be finite; in mode erm it is the one
    # theta_star call per stage, and its error names the stage like the rest
    import esoclcp.solver as solver_mod

    monkeypatch.setattr(solver_mod, "theta_star", lambda *args: float("nan"))
    spec = random_spec(np.random.default_rng(61))
    message = r"stage 1 \(N = 5\): theta_star overflows at the step of iteration 3, where the largest loss is \S+"
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(spec, SolverConfig(mode="erm", schedule=(5,), k_max=3))


def test_accepted_steps_never_increase_objective(monkeypatch):
    # on a case-IV instance in mode ev, and in every mode on the bundled
    # example scaled by 1e8, whose stages end where no step lowers the value
    import esoclcp.solver as solver_mod

    orig = solver_mod.wolfe_search
    seen = []

    def spy(f, g):
        s = orig(f, g)
        seen.append((f(0.0), f(s)))
        return s

    monkeypatch.setattr(solver_mod, "wolfe_search", spy)
    cases = [(case_iv_instance()[0], SolverConfig(mode="ev", k_max=60))] + [
        (scaled_example(), SolverConfig(mode=mode, schedule=(10, 100), k_max=50)) for mode in ("cvar", "erm", "ev")
    ]
    for spec, cfg in cases:
        seen.clear()
        stages = solve(spec, cfg)
        assert seen, cfg.mode
        for f0, fs in seen:
            assert fs <= f0 + 1e-9 * (1.0 + abs(f0)), cfg.mode
        assert sum(r.inner_iters for r in stages) == len(seen), cfg.mode


def test_stage_aloc_is_over_the_stage_sample():
    spec = builtin_example()
    cfg = SolverConfig(schedule=(5, 10), k_max=5)
    for stage in solve(spec, cfg):
        x, u = recover_lcp_point(spec.dims, stage.point)
        assert stage.aloc == aloc(SampleEvaluator(spec, stage_samples(spec, cfg, stage.j)), x, u)


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_solve_builds_one_evaluator_per_stage(monkeypatch, mode):
    # the stage's aloc is read off the evaluator the stage solved with, not
    # off a second one over the same draws
    built = []
    init = SampleEvaluator.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleEvaluator, "__init__", spy)
    spec = builtin_example()
    stages = solve(spec, SolverConfig(mode=mode, schedule=(5, 10), k_max=5))
    monkeypatch.undo()
    assert len(built) == len(stages) == (1 if mode == "ev" else 2)
    for ev, stage in zip(built, stages):
        assert ev.N == stage.N
        x, u = recover_lcp_point(spec.dims, stage.point)
        assert stage.aloc == aloc(ev, x, u)


@pytest.mark.parametrize("mode", ["cvar", "erm"])
def test_each_stage_is_freed_before_the_next_draws(monkeypatch, mode):
    # a stage's evaluator and its buffers die when the stage returns, by
    # reference count alone (no gc.collect), so a cycle that held them
    # until the collector ran would fail here too
    import weakref

    import esoclcp.solver as solver_mod

    held = []  # weak references to each stage's evaluator and _StageProblem

    def freed():
        assert all(ref() is None for ref in held), mode

    def kept(make, check):
        def spy(*args):
            if check:
                freed()
            obj = make(*args)
            held.append(weakref.ref(obj))
            return obj

        return spy

    draw = solver_mod.draw_samples

    def draw_spy(*args):
        freed()
        return draw(*args)

    monkeypatch.setattr(solver_mod, "draw_samples", draw_spy)
    monkeypatch.setattr(solver_mod, "SampleEvaluator", kept(SampleEvaluator, True))
    monkeypatch.setattr(solver_mod, "_StageProblem", kept(_StageProblem, False))
    stages = solve(builtin_example(), SolverConfig(mode=mode, schedule=(100, 1000), k_max=5))
    assert [stage.N for stage in stages] == [100, 1000] and len(held) == 4
    freed()


def test_aloc_zero_at_exact_complementarity():
    spec, x, u, _, _ = case_iv_instance()
    s = stage_samples(spec, SolverConfig(schedule=(3,)), 1)
    assert aloc(SampleEvaluator(spec, s), x, u) <= 1e-12


def test_aloc_matches_hand_computation():
    rng = np.random.default_rng(61)
    for _ in range(20):
        spec = random_spec(rng)
        s = stage_samples(spec, SolverConfig(schedule=(4,), seed=int(rng.integers(100))), 1)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        w = np.concatenate([x, u])
        want = np.mean([abs(float(w @ f_eval(spec, om, x, u))) for om in s])
        assert aloc(SampleEvaluator(spec, s), x, u) == pytest.approx(want, rel=1e-12)


def test_aloc_rejects_bad_shapes():
    spec = random_spec(np.random.default_rng(71), k=3, l=2)
    s = stage_samples(spec, SolverConfig(schedule=(2,)), 1)
    ev = SampleEvaluator(spec, s)
    with pytest.raises(ValueError):
        aloc(ev, np.zeros(2), np.zeros(2))
    # f_values, which aloc reads, checks the one draw it is given too
    for omega in (np.zeros(spec.omega_dim + 1), np.full(spec.omega_dim, np.nan)):
        with pytest.raises(ValueError):
            ev.f_values(np.zeros(3), np.zeros(2), omega)


def _aloc_scale(spec, s, x, u):
    # mean_j |w|^T (|T_j| |w| + |r_j|), w = (x, u): the size of the terms
    # w . F(x, u, w_j) sums, which does not shrink where they cancel
    T, r = realize_batch(spec, s)
    w = np.abs(np.concatenate([x, u]))
    return float(np.mean((np.abs(T) @ w + np.abs(r)) @ w))


def test_aloc_matches_the_dense_reference():
    rng = np.random.default_rng(211)
    cases = []
    for i in range(51):
        k, l, omega_dim = int(rng.integers(1, 11)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        spec = random_spec(rng, k=k, l=l, omega_dim=omega_dim, scale=10.0 ** rng.uniform(-2, 2), perturbed=i % 7 > 0)
        s = draw_samples(spec.distribution, omega_dim, (1, 5, 257)[i % 3], int(rng.integers(2**32)))
        x = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3)
        cases.append((spec, s, x, rng.normal(size=l)))
    spec = builtin_example()
    s = draw_samples(spec.distribution, spec.omega_dim, 1000, 7)
    cases.append((spec, s, np.array([0.5, 0.28, 1.04]), np.array([0.12, -0.25])))
    for spec, s, x, u in cases:
        ev = SampleEvaluator(spec, s)
        got = aloc(ev, x, u)
        assert abs(got - aloc_dense(spec, s, x, u)) <= 1e-12 * _aloc_scale(spec, s, x, u)
        # formed in a stage's buffer (solve passes its _f), to the bit
        assert aloc(ev, x, u, np.full((ev.dim, ev.N), np.nan)) == got
    # at an exact solution every w . F vanishes, up to rounding, on either path
    spec, x, u, _, _ = case_iv_instance()
    s = draw_samples(spec.distribution, spec.omega_dim, 257, 9)
    assert aloc(SampleEvaluator(spec, s), x, u) <= 1e-12 and aloc_dense(spec, s, x, u) <= 1e-12


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_solve_realizes_no_sample(monkeypatch, capsys, mode):
    # F at the mean draw, aloc and every kernel read the evaluator's draws;
    # neither a solve nor `esoclcp check` realizes T(w)
    import esoclcp.problem as problem_mod
    import esoclcp.saa as saa_mod
    import esoclcp.solver as solver_mod
    from esoclcp import cli

    def refuse(*args, **kwargs):
        raise AssertionError("T(w) was realized")

    for mod in (problem_mod, solver_mod, saa_mod):
        monkeypatch.setattr(mod, "realize_batch", refuse)
    stages = solve(builtin_example(), SolverConfig(mode=mode, schedule=(50, 200), k_max=5))
    assert len(stages) == (1 if mode == "ev" else 2)
    assert all(np.isfinite(stage.aloc) and np.isfinite(stage.F_at_mean).all() for stage in stages)
    assert cli.main(["check", "--builtin", "--point", "1.5,0.3,1.1,0.1,-0.25", "--samples", "200"]) == 0
    assert "aloc (N=200" in capsys.readouterr().out


def test_aloc_memory_grows_with_the_draws_not_with_m_squared():
    import tracemalloc

    # the wide benchmark shape: k = 10, l = 6, omega_dim = 8
    rng = np.random.default_rng(223)
    spec = random_spec(rng, k=10, l=6, omega_dim=8)
    n = 20000
    ev = SampleEvaluator(spec, draw_samples(spec.distribution, spec.omega_dim, n, 5))
    x, u = rng.normal(size=10), rng.normal(size=6)
    aloc(ev, x, u)  # one-off costs of a first call aside
    tracemalloc.start()
    try:
        aloc(ev, x, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # aloc reads the evaluator's draws and writes (m + 1, N) rows; the bound
    # leaves room for a second copy of the draws as well.  The N m^2 doubles
    # of one realized (N, m, m) sample are about five times it
    assert peak <= 2 * n * (16 + 8 + 2) * 8


def _wide_stage(mode, n):
    # a fresh stage over one fixed k=10, l=6 instance and N-draw sample
    spec = random_spec(np.random.default_rng(137), k=10, l=6, omega_dim=3)
    cfg = SolverConfig(mode=mode, schedule=(n,), seed=5)
    return _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1)), cfg)


def _exact(e):
    # eval_point returns an exact point, or a screened trial's bound as a float
    return isinstance(e, _PointEval)


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
    # FB coefficients are computed in between; then a trial point fills the
    # buffers and, in cvar, is screened out (erm ignores the bar)
    stage.direction(b, stage.grad(b))
    c = stage.eval_point(za + 0.5 * (zb - za), -1.0)
    assert _exact(c) == (mode != "cvar")
    assert np.array_equal(stage.losses(b), fresh.losses(fresh.eval_point(zb)))
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
    stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1)), cfg)
    z0 = default_start(spec)
    for i in (0, 3, 5):  # x_m, u and t
        z = z0.copy()
        z[i] = bad
        with pytest.raises(ValueError, match="^z must be finite$"):
            stage.eval_point(z)
    with pytest.raises(ValueError, match="^z has length 5, expected 6$"):
        stage.eval_point(z0[:-1])


@pytest.mark.parametrize("n", [1, 7, 4000])
@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_trial_value_is_the_mean_over_the_losses_bit_for_bit(mode, n):
    rng = np.random.default_rng(151)
    spec = random_spec(np.random.default_rng(153), k=4, l=2, omega_dim=3)
    draws = stage_samples(spec, SolverConfig(schedule=(n,), seed=5), 1)
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
        stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1)), cfg)
        grad = stage.grad(stage.eval_point(z))
        fd = np.empty_like(z)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = step
            fd[i] = (stage.eval_point(z + e).value - stage.eval_point(z - e).value) / (2 * step)
        assert np.max(np.abs(grad - fd) / (1.0 + np.abs(grad))) <= 1e-5, (checked, grad, fd)
        checked += 1


def _tied_stage(kind, alpha, mu, n):
    # a builtin cvar stage whose second half of draws repeats the first, so
    # the losses come in tied pairs
    spec = builtin_example()
    cfg = SolverConfig(alpha=alpha, mu=mu, schedule=(n,), seed=17, smoothing=kind)
    draws = stage_samples(spec, cfg, 1).copy()
    draws[n - n // 2 :] = draws[: n // 2]
    return _StageProblem(SampleEvaluator(spec, draws), cfg)


@pytest.mark.parametrize("n", [1, 7, 20, 4000])
@pytest.mark.parametrize("kind", list(SmoothingKind))
def test_screen_bound_is_below_the_exact_value(kind, n):
    # p_mu(t) >= [t]_+ for every kind, so min_Theta Nhat >= the empirical
    # CVaR up to rounding; the screen rejects with that bound, and never at a
    # bar the exact value meets
    rng = np.random.default_rng(163)
    for alpha in (0.05, 0.2, 0.95):
        for mu in (1e-9, 1e-4, 1e-1):
            stage = _tied_stage(kind, alpha, mu, n)
            for _ in range(3):
                z = np.concatenate([rng.normal(size=5), [rng.uniform(0.1, 2.0)]])
                e = stage.eval_point(z)
                bound = _tail_cvar(stage.losses(e), alpha)
                # where p_mu - [.]_+ is below rounding (nn, far from Theta)
                # the two agree to an ulp or two, either way
                assert bound - e.value <= 1e-14 * abs(e.value), (alpha, mu, bound, e.value)
                assert bound == cvar_empirical(stage.losses(e), alpha)
                assert _exact(stage.eval_point(z, e.value))
                low = stage.eval_point(z, bound - 1.0 - abs(bound))
                assert not _exact(low) and low == bound


@pytest.mark.parametrize("n", [7, 20, 4000])
@pytest.mark.parametrize("kind", list(SmoothingKind))
def test_tail_bound_is_below_the_exact_value(kind, n):
    # the losses of the draws above the start point's VaR, at most
    # floor(alpha N) of them, summed over alpha N, are at most the empirical
    # CVaR at any point, so at most its value up to rounding; the screen
    # rejects with that bound, never at a bar the exact value meets; a
    # rejection leaves the buffers holding no point, and the losses of the
    # point held before are formed again
    rng = np.random.default_rng(173)
    for alpha in (0.05, 0.2):
        for mu in (1e-9, 1e-4, 1e-1):
            stage = _tied_stage(kind, alpha, mu, n)
            tail = n - _tail_rank(n, alpha)
            if tail == 0:
                # N = 7 at alpha = 0.05: no draw to screen on
                assert not stage._tail_on
                continue
            # a stage screens on its own from N = 1000 on; below, where the
            # screen does not pay, the bound is checked all the same
            assert stage._tail_on == (n >= 1000)
            stage._tail_on = True
            start = stage.eval_point(np.concatenate([rng.normal(size=5), [rng.uniform(0.1, 2.0)]]))
            W = stage._tail_draws(start)
            # the draws whose losses exceed the start's VaR, tied pairs at
            # the VaR left out, so no more than floor(alpha N) of them
            var, upper = _tail_quantile(stage.losses(start), alpha)
            assert start.var == var
            top = np.flatnonzero(stage.losses(start) > var)
            assert top.size == np.count_nonzero(upper > var) <= tail
            assert np.array_equal(W, stage.ev.W[:, top])
            for _ in range(3):
                z = np.concatenate([rng.normal(size=5), [rng.uniform(0.1, 2.0)]])
                e = stage.eval_point(z)
                losses = stage.losses(e).copy()
                bound = stage._tail_screen(e.z, -1.0, W)
                assert bound == pytest.approx(float(np.sum(losses[top])) / (alpha * n), rel=1e-12, abs=0.0)
                assert bound - e.value <= 1e-14 * abs(e.value), (alpha, mu, bound, e.value)
                assert stage._tail_screen(e.z, e.value, W) is None
                assert _exact(stage.eval_point(z, e.value, tail_W=W))
                held = stage.eval_point(z)
                low = stage.eval_point(z, bound - 1.0 - abs(bound), tail_W=W)
                assert not _exact(low) and low == bound
                assert stage._held is None
                assert np.array_equal(stage.losses(held), losses)


def test_tail_screen_cuts_full_passes_at_n_10000(monkeypatch):
    # at N = 10000 in mode cvar the tail bound rejects trials before a pass
    # over the whole sample, so fewer such passes run, and the report and
    # the line-search values asked for are those of a solve without it
    spec = builtin_example()
    cfg = SolverConfig(schedule=(10000,), k_max=10, seed=7)
    screened = solve(spec, cfg)
    with monkeypatch.context() as m:
        m.setattr(_StageProblem, "_tail_screen", lambda self, z, bar, W: None)
        exact = solve(spec, cfg)
    (on,), (off,) = (r.counts for r in screened), (r.counts for r in exact)
    assert on["tail_answers"] > 0 and on["tail_passes"] > 0
    assert off["tail_answers"] == off["tail_passes"] == 0
    assert off["full_passes"] - on["full_passes"] == on["tail_answers"]
    _assert_reports_equal(screened, exact)
    assert on["trials"] == off["trials"]


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_trial_point_whose_losses_overflow_has_the_value_inf(mode):
    spec = builtin_example()
    cfg = SolverConfig(mode=mode, schedule=(100,), seed=3)
    stage = _StageProblem(SampleEvaluator(spec, stage_samples(spec, cfg, 1)), cfg)
    z = default_start(spec)
    z[0] = 1e160
    with np.errstate(over="ignore"):
        e = stage.eval_point(z)
        assert not np.isfinite(stage.losses(e)).any()
        screened = stage.eval_point(z, 1.0)
        losses = stage.losses(e)
    assert e.value == np.inf and _exact(e)
    # a non-finite bound falls through to the exact path
    assert _exact(screened) and screened.value == np.inf
    with pytest.raises(ValueError, match="losses must be finite"):
        theta_star(losses, cfg.alpha, cfg.mu)


def _kept_points_checked(monkeypatch):
    # every point the solver takes a gradient or a direction at is exact, and
    # theta_star runs inside eval_point exactly when the result is exact;
    # returns the (stage, z, bar, result) of every evaluation and the
    # (ray, s, bar, bound) of every trial the ray bound answered
    import esoclcp.solver as solver_mod

    calls = []
    evals = []
    rays = []
    orig_theta_star = solver_mod.theta_star
    orig_eval = _StageProblem.eval_point
    orig_grad = _StageProblem.grad
    orig_direction = _StageProblem.direction

    def theta_star_spy(*args, **kwargs):
        calls.append(1)
        return orig_theta_star(*args, **kwargs)

    def eval_spy(self, z, bar=None, floor=None, tail_W=None):
        before = len(calls)
        e = orig_eval(self, z, bar, floor, tail_W)
        assert len(calls) - before == (1 if _exact(e) and self.cfg.mode == "cvar" else 0)
        assert _exact(e) or (bar is not None and e > bar)
        evals.append((self, z, bar, e))
        return e

    def grad_spy(self, e):
        assert _exact(e)
        return orig_grad(self, e)

    def direction_spy(self, e, grad):
        assert _exact(e)
        return orig_direction(self, e, grad)

    class RaySpy(RayBound):
        def __init__(self, ev, z, d):
            super().__init__(ev, z, d)
            self.ev, self.z, self.d = ev, z, d

        def screen(self, s, bar):
            low = super().screen(s, bar)
            if low is not None:
                assert low > bar
                rays.append((self, s, bar, low))
            return low

    monkeypatch.setattr(solver_mod, "theta_star", theta_star_spy)
    monkeypatch.setattr(solver_mod, "RayBound", RaySpy)
    monkeypatch.setattr(_StageProblem, "eval_point", eval_spy)
    monkeypatch.setattr(_StageProblem, "grad", grad_spy)
    monkeypatch.setattr(_StageProblem, "direction", direction_spy)
    return evals, rays


def _screens_off(monkeypatch):
    # neither the ray bound, the FB rows, the tail bound nor the empirical
    # CVaR answers any trial: without the ray's floor, eval_point forms every
    # row of the residual before it compares
    import esoclcp.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_tail_cvar", lambda losses, alpha, tail=None: float("nan"))
    monkeypatch.setattr(RayBound, "screen", lambda self, s, bar: None)
    monkeypatch.setattr(RayBound, "floor", lambda self, s, bar: None)
    monkeypatch.setattr(_StageProblem, "_tail_screen", lambda self, z, bar, W: None)


def _screened(result):
    # the trials of a stage that a lower bound answered
    return sum(result.counts[key] for key in ("ray_answers", "fb_answers", "tail_answers", "cvar_answers"))


def _assert_reports_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.point, rb.point)
        assert ra.theta == rb.theta
        assert (ra.inner_iters, ra.termination) == (rb.inner_iters, rb.termination)
        assert ra.grad_inf_norm == rb.grad_inf_norm
        assert ra.aloc == rb.aloc
    assert np.array_equal(a[-1].F_at_mean, b[-1].F_at_mean)
    assert (a[-1].aloc, a[-1].theta) == (b[-1].aloc, b[-1].theta)


_MODE_KINDS = [pytest.param("cvar", kind, id=str(kind)) for kind in SmoothingKind] + [
    pytest.param(mode, SmoothingKind.CHKS, id=mode) for mode in ("erm", "ev")
]


@pytest.mark.parametrize("mode, kind", _MODE_KINDS)
def test_screen_leaves_the_report_unchanged(monkeypatch, mode, kind):
    spec = builtin_example()
    for seed in (7, 42, 1234):
        cfg = SolverConfig(schedule=(100, 1000), k_max=6, seed=seed, smoothing=kind, mode=mode)
        with monkeypatch.context() as m:
            evals, rays = _kept_points_checked(m)
            screened = solve(spec, cfg)
        assert rays
        # every stage but mode ev's single one (N = 1, where the ray bound
        # is the exact merit and the FB rows screen nothing) returns some
        # inexact evaluations: cvar's tail or CVaR bounds, erm's FB rows
        assert any(not _exact(e) for _, _, _, e in evals) == (mode != "ev")
        # each screened trial would have failed the test it was screened for
        for stage, z, bar, e in evals:
            if not _exact(e):
                assert stage.eval_point(z).value > bar
        for ray, s, bar, _ in rays:
            # the bar is the one wolfe_search forms, f(0) + c1 s g(0)
            stage = _StageProblem(ray.ev, cfg)
            start = stage.eval_point(ray.z)
            assert bar == start.value + _C1 * s * float(stage.grad(start) @ ray.d)
            assert stage.eval_point(ray.z + s * ray.d).value > bar
        with monkeypatch.context() as m:
            _screens_off(m)
            evals, rays = _kept_points_checked(m)
            exact = solve(spec, cfg)
        assert all(_exact(e) for _, _, _, e in evals) and not rays
        _assert_reports_equal(screened, exact)
        # the same line-search values were asked for, in the same searches
        assert [r.counts["trials"] for r in screened] == [r.counts["trials"] for r in exact]
        assert all(_screened(r) > 0 for r in screened)
        assert all(_screened(r) == 0 for r in exact)


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_search_without_decrease_returns_no_step_and_the_stage_stalls(monkeypatch, mode):
    # on the bundled example scaled by 1e8 each mode's first stage reaches a
    # point from which no step the search tries decreases the value: the
    # search returns 0.0, search returns the point it started from, and the
    # stage ends there, stalled, on the value and Theta it had
    import esoclcp.solver as solver_mod

    orig_wolfe, orig_search = solver_mod.wolfe_search, _StageProblem.search
    steps, starts = [], []

    def wolfe_spy(*args):
        steps.append(orig_wolfe(*args))
        return steps[-1]

    def search_spy(self, cur, d, slope):
        starts.append(cur)
        return orig_search(self, cur, d, slope)

    monkeypatch.setattr(solver_mod, "wolfe_search", wolfe_spy)
    monkeypatch.setattr(_StageProblem, "search", search_spy)
    evals, _ = _kept_points_checked(monkeypatch)
    cfg = SolverConfig(schedule=(10,), k_max=50, mode=mode)
    (stage,) = solve(scaled_example(), cfg)
    assert stage.termination == "stalled"
    assert stage.inner_iters == len(steps) < cfg.k_max
    assert steps[-1] == 0.0 and all(s > 0.0 for s in steps[:-1])
    last = starts[-1]
    assert stage.point is last.z
    # every point the stage kept was evaluated exactly once, without a bar:
    # the start and each step's point, none of them again after its search
    kept = [e for _, _, bar, e in evals if bar is None]
    assert kept == [evals[0][3]]
    if mode == "cvar":
        assert stage.theta == last.theta


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_stage_counts_line_search_values_and_screened_ones(monkeypatch, capsys, mode):
    # every entry of StageResult.counts is what spies on the evaluator's
    # kernels, the ray bound, theta_star, the line search and eval_point see
    # in that stage, which begins where solve builds its evaluator
    import esoclcp.cli as cli_mod
    import esoclcp.solver as solver_mod

    seen = []
    inside = []
    init, residuals, fb_rows = SampleEvaluator.__init__, SampleEvaluator.residuals, SampleEvaluator._fb_rows
    screen, search = RayBound.screen, solver_mod.wolfe_search

    def new_stage(self, *args):
        seen.append(Counter())
        init(self, *args)

    def counted_residuals(self, z, f=None, *args):
        seen[-1]["full_passes" if f is None or f.shape[1] == self.N else "tail_passes"] += 1
        inside.append(True)
        try:
            return residuals(self, z, f, *args)
        finally:
            inside.pop()

    def counted_fb_rows(self, *args):
        seen[-1]["fb_passes"] += not inside
        return fb_rows(self, *args)

    def counted_screen(self, s, bar):
        low = screen(self, s, bar)
        seen[-1]["ray_answers"] += low is not None
        return low

    def counted_search(f, g):
        # each search asks for f(0), the point it starts from, and then
        # distinct steps, none of them cached yet
        def value(s):
            seen[-1]["trials"] += s != 0.0
            return f(s)

        return search(value, g)

    def counted(theta_star):
        def spy(*args, **kwargs):
            seen[-1]["theta_calls"] += 1
            return theta_star(*args, **kwargs)

        return spy

    def answered(eval_point):
        # a bound eval_point returns is the CVaR's after a whole pass, else
        # the tail draws' after a pass over them, else the FB rows'
        def spy(self, *args):
            before = seen[-1].copy()
            e = eval_point(self, *args)
            if not _exact(e):
                passes = seen[-1] - before
                by = "cvar" if passes["full_passes"] else "tail" if passes["tail_passes"] else "fb"
                seen[-1][f"{by}_answers"] += 1
            return e

        return spy

    spec = builtin_example()
    cfg = SolverConfig(schedule=(100, 1000), k_max=8, seed=42, mode=mode)
    with monkeypatch.context() as m:
        _kept_points_checked(m)
        m.setattr(SampleEvaluator, "__init__", new_stage)
        m.setattr(SampleEvaluator, "residuals", counted_residuals)
        m.setattr(SampleEvaluator, "_fb_rows", counted_fb_rows)
        m.setattr(RayBound, "screen", counted_screen)
        m.setattr(solver_mod, "wolfe_search", counted_search)
        m.setattr(solver_mod, "theta_star", counted(solver_mod.theta_star))
        m.setattr(_StageProblem, "eval_point", answered(_StageProblem.eval_point))
        stages = solve(spec, cfg)
    assert len(seen) == len(stages)
    for stage, spied in zip(stages, seen):
        assert stage.counts == {key: spied[key] for key in COUNTS}
    total = sum((Counter(r.counts) for r in stages), Counter())
    assert 0 < sum(map(_screened, stages)) < total["trials"]
    # the bounds each mode screens on, and theta_star at every exact cvar
    # point or once per stage for the reported Theta
    answers = {"cvar": ("ray", "tail", "cvar"), "erm": ("ray", "fb"), "ev": ("ray",)}[mode]
    assert {key for key in total if key.endswith("_answers")} == {f"{by}_answers" for by in answers}
    assert (total["theta_calls"] > len(stages)) == (mode == "cvar")

    # the counts appear in no report format
    argv = ["solve", "--builtin", "--mode", mode, "--schedule", "100,1000", "--kmax", "8", "--no-timing"]
    orig_solve = cli_mod.solve

    def relabelled(*args, **kwargs):
        stages = orig_solve(*args, **kwargs)
        for stage in stages:
            stage.counts = dict.fromkeys(COUNTS, 10**9)
        return stages

    for fmt in ("table", "csv", "json"):
        assert cli_mod.main(argv + ["--format", fmt]) in (0, 2)
        plain = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(cli_mod, "solve", relabelled)
            assert cli_mod.main(argv + ["--format", fmt]) in (0, 2)
        assert capsys.readouterr().out == plain


def _ray_instances(n, rng):
    # (spec, draws, z, d): the bundled example over n draws whose second half
    # repeats the first, at random points and directions; and the case-IV
    # instance at its solution, where every row of the residual is 0 for
    # every draw and the head rows' two terms cancel
    spec = builtin_example()
    draws = draw_samples(spec.distribution, spec.omega_dim, n, 19).copy()
    draws[n - n // 2 :] = draws[: n // 2]
    for _ in range(3):
        z = np.concatenate([rng.normal(size=5), [rng.uniform(0.1, 2.0)]])
        yield spec, draws, z, rng.normal(size=6)
    spec, x, u, _, _ = case_iv_instance()
    draws = draw_samples(spec.distribution, spec.omega_dim, n, 23)
    z = init_from_lcp(x, u)
    for _ in range(3):
        yield spec, draws, z, rng.normal(size=6)


@pytest.mark.parametrize("n", [1, 7, 4000])
@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_ray_bound_is_below_the_exact_value(mode, n):
    # LB(s) <= the stage's value at z + s d in every mode, up to rounding far
    # below the screen's margin, so the screen never rejects at a bar equal
    # to the exact value, and does reject at a bar below the bound
    rng = np.random.default_rng(167)
    for spec, draws, z, d in _ray_instances(n, rng):
        cfg = SolverConfig(mode=mode, schedule=(n,), seed=5)
        stage = _StageProblem(SampleEvaluator(spec, draws), cfg)
        ray = RayBound(stage.ev, z, d)
        for s in np.logspace(-12, 6, 10):
            exact = stage.eval_point(z + s * d).value
            low = ray._quartic(s) + ray._fb_terms(s)
            margin = ray.margin(s, exact)
            assert low - exact <= 1e-3 * margin, (s, low, exact, margin)
            if n == 1 and mode != "cvar":
                # at one draw the bound is the mean merit
                assert abs(low - exact) <= 1e-3 * margin, (s, low, exact, margin)
            assert ray.screen(s, exact) is None
            bar = low - 2.0 * ray.margin(s, low)
            assert bar < ray.screen(s, bar) <= low


def test_ray_bound_that_overflows_screens_nothing():
    # overflow while building the bound, or in the bound at a step, leaves
    # the trial to the exact path, without a warning
    spec = builtin_example()
    ev = SampleEvaluator(spec, draw_samples(spec.distribution, spec.omega_dim, 50, 29))
    z = default_start(spec)
    d = np.ones_like(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert RayBound(ev, z, d).screen(1.0, -1.0) is not None
        assert RayBound(ev, z, 1e300 * d).screen(1.0, -1.0) is None
        assert RayBound(ev, z + 1e160, d).screen(1.0, -1.0) is None
        assert RayBound(ev, z, d).screen(1e100, -1.0) is None


@pytest.mark.parametrize("n", [1, 7, 20, 4000])
@pytest.mark.parametrize("mode", ["erm", "ev"])
def test_fb_row_bound_is_below_the_exact_value(mode, n):
    # half the FB rows' mean square plus the ray's floor for the head and
    # norm rows is at most the mean merit, so eval_point never rejects at a
    # bar the exact value meets; a rejection leaves the buffers holding no
    # point, and the losses of the point held before are formed again.  At
    # N = 1 the ray bound is the exact merit, and the stage does not screen
    # on the FB rows
    rng = np.random.default_rng(179)
    for spec, draws, z, d in _ray_instances(n, rng):
        cfg = SolverConfig(mode=mode, schedule=(n,), seed=5)
        stage = _StageProblem(SampleEvaluator(spec, draws), cfg)
        ray = RayBound(stage.ev, z, d)
        for s in np.logspace(-12, 6, 10):
            e = stage.eval_point(z + s * d)
            losses = stage.losses(e).copy()
            floor = ray.floor(s, e.value)
            if n == 1:
                assert not stage._fb_on
                continue
            low = stage.eval_point(z + s * d, -np.inf, floor)
            if not _exact(low):
                fb = stage._res[: stage.ev.k]
                assert low == 0.5 * float(np.vdot(fb, fb)) / n + floor
                assert low <= e.value, (s, low, e.value)
                assert stage._held is None
                assert np.array_equal(stage.losses(e), losses)
            assert _exact(stage.eval_point(z + s * d, e.value, floor))


def test_fb_row_screen_cuts_full_passes_in_an_erm_stage(monkeypatch):
    # at N = 5000 in mode erm the FB rows reject trials before the rest of
    # a pass over the sample, so fewer whole passes run, and the report and
    # the line-search values asked for are those of a solve without the screen
    spec = builtin_example()
    cfg = SolverConfig(schedule=(5000,), k_max=10, seed=7, mode="erm")
    screened = solve(spec, cfg)
    with monkeypatch.context() as m:
        m.setattr(RayBound, "floor", lambda self, s, bar: None)
        exact = solve(spec, cfg)
    (on,), (off,) = (r.counts for r in screened), (r.counts for r in exact)
    assert on["fb_answers"] > 0 and on["fb_passes"] > 0
    assert off["fb_answers"] == off["fb_passes"] == 0
    assert off["full_passes"] - on["full_passes"] == on["fb_answers"]
    _assert_reports_equal(screened, exact)
    assert on["trials"] == off["trials"]
    assert on["ray_answers"] == off["ray_answers"]

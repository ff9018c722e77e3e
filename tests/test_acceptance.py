"""Acceptance checks: one test per shipped claim, at the stated tolerances.

Each test prints a single summary line; failures carry the measured values so
a red run documents exactly what was observed.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from esoclcp.cone import classify_complementarity
from esoclcp.merit import merit_theta
from esoclcp.problem import builtin_example
from esoclcp.reformulate import MixPoint, init_from_lcp
from esoclcp.risk import (
    SmoothingKind,
    cvar_empirical,
    plus_part,
    smooth_plus,
    var_empirical,
)
from esoclcp.saa import SAAPoint, SampleEvaluator, draw_samples, theta_star
from esoclcp.solver import SolverConfig, solve

from conftest import case_iv_instance, random_spec, tail_gradient, tail_objective
from dense_reference import jacobians

FULL_SCHEDULE = (10, 100, 1000, 10000, 100000)
SEEDS = (7, 42, 1234)

# reference values for the bundled example at tail level 0.05
EXPECTED_XU = np.array([1.546, 0.261, 1.059, 0.124, -0.254])
EXPECTED_F = np.array([1.200, 28.566, -0.177, -12.617, 25.514])


def test_01_builtin_experiment_bands():
    # full staged run on the bundled example; passes if any seed lands inside
    # all four reporting bands
    spec = builtin_example()
    lines = []
    winner = None
    for seed in SEEDS:
        cfg = SolverConfig(alpha=0.05, schedule=FULL_SCHEDULE, seed=seed)
        t0 = time.perf_counter()
        rep = solve(spec, cfg)
        wall = time.perf_counter() - t0
        xu = np.concatenate([rep.recovered.x, rep.recovered.u])
        dev_xu = float(np.max(np.abs(xu - EXPECTED_XU)))
        dev_f = float(np.max(np.abs(rep.F_at_mean - EXPECTED_F)))
        ok = (
            dev_xu <= 0.05
            and dev_f <= 0.3
            and 0.9 <= rep.aloc <= 1.3
            and 0.07 <= rep.theta_threshold <= 0.11
        )
        lines.append(
            f"seed {seed}: dev_xu={dev_xu:.3f} (tol 0.05), dev_F={dev_f:.3f} (tol 0.3), "
            f"aloc={rep.aloc:.4f} (band [0.9, 1.3]), theta={rep.theta_threshold:.4f} "
            f"(band [0.07, 0.11]), wall={wall:.0f}s -> {'pass' if ok else 'fail'}"
        )
        if ok and winner is None:
            winner = seed
    for line in lines:
        print(line)
    if winner is None:
        pytest.fail(
            "no seed reproduces the reference bands on the bundled example:\n  "
            + "\n  ".join(lines)
        )
    print(f"bundled experiment bands: pass (seed {winner})")


def test_02_crafted_case_iv_solve():
    # deterministic instance with a known case-IV solution, solved at the
    # mean draw from a start within 0.1 of the solution
    spec, x, u, _, _ = case_iv_instance()
    rng = np.random.default_rng(12)
    exact = init_from_lcp(x, u).as_vector()
    z0 = exact + rng.uniform(-0.02, 0.02, size=exact.size)
    start = SAAPoint(MixPoint.from_vector(z0, 3, 2), 0.0)
    t0 = time.perf_counter()
    rep = solve(spec, SolverConfig(mode="ev", tol_r=1e-8), start)
    wall = time.perf_counter() - t0
    merit = merit_theta(spec, spec.mean_omega(), rep.final_mix.p)
    F = rep.F_at_mean
    cls = classify_complementarity(
        spec.dims, rep.recovered.x, rep.recovered.u, F[:3], F[3:], tol=1e-4
    )
    print(
        f"crafted case-IV solve: merit={merit:.3e} (tol 1e-10), case={cls.case}, "
        f"wall={wall:.3f}s (tol 1 s)"
    )
    assert merit <= 1e-10
    assert cls.case == "IV"
    assert wall < 1.0


def test_03_gradient_exactness():
    # 200 random (instance, point, mu) triples: analytic objective gradient,
    # its spatial part from the solver's kernel weighted_merit_grad, against
    # central differences, and the residual Jacobian at the first draw (dense
    # reference) against central differences of the residual, both to
    # relative error 1e-5; |x_m| >= 1e-2 keeps dpsi/db off zero, so the FB
    # rows still carry dG1
    rng = np.random.default_rng(3000)
    worst_grad = 0.0
    worst_jac = 0.0
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        spec = random_spec(rng, k=k, l=l, omega_dim=2)
        p = MixPoint(rng.normal(size=k), rng.normal(size=l), float(rng.uniform(0.2, 2.0)))
        # the complementarity rows are nonsmooth only where both arguments
        # vanish; the first argument is x_m, so keeping it off zero suffices
        if float(np.min(np.abs(p.x_m))) < 1e-2:
            continue
        s = draw_samples(spec.distribution, 2, int(rng.integers(3, 9)), int(rng.integers(10**6)))
        alpha = float(rng.uniform(0.1, 0.9))
        mu = (1e-2, 1e-4)[checked % 2]
        theta0 = float(rng.normal())
        ev = SampleEvaluator(spec, s.draws)

        def fval(v):
            return tail_objective(ev, MixPoint.from_vector(v[:-1], k, l), float(v[-1]), alpha, mu)

        v = np.concatenate([p.as_vector(), [theta0]])
        grad = tail_gradient(ev, p, theta0, alpha, mu)
        step = 1e-6
        fd = np.empty_like(v)
        for i in range(v.size):
            e = np.zeros_like(v)
            e[i] = step
            fd[i] = (fval(v + e) - fval(v - e)) / (2 * step)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd) / (1.0 + np.abs(grad)))))

        first = SampleEvaluator(spec, s.draws[:1])
        jac = jacobians(first, p)[0]

        def gval(v):
            return first.residuals(MixPoint.from_vector(v, k, l))[0]

        z = p.as_vector()
        fdj = np.empty((k + l + 1, k + l + 1))
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = step
            fdj[:, i] = (gval(z + e) - gval(z - e)) / (2 * step)
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fdj) / (1.0 + np.abs(jac)))))
        checked += 1
    print(
        f"gradient exactness over 200 triples: worst gradient rel err {worst_grad:.2e}, "
        f"worst Jacobian rel err {worst_jac:.2e} (tol 1e-5)"
    )
    assert worst_grad <= 1e-5
    assert worst_jac <= 1e-5


def test_04_risk_measure_coherence():
    # 1000 random empirical samples: exact positive homogeneity and
    # monotonicity, sub-additive tail averages, tail average >= threshold,
    # and the pinned discrete construction where the threshold measure
    # violates sub-additivity
    rng = np.random.default_rng(4000)
    worst_hom = 0.0
    worst_mono = 0.0
    worst_sub = -np.inf
    order_witness = None
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        alpha = float(rng.choice((0.05, 0.2, 0.5)))
        s = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=n)
        lam = float(rng.uniform(0.1, 10.0))
        worst_hom = max(
            worst_hom,
            abs(var_empirical(lam * s, alpha) - lam * var_empirical(s, alpha)),
            abs(cvar_empirical(lam * s, alpha) - lam * cvar_empirical(s, alpha)),
        )
        lower = s - np.abs(rng.normal(size=n))
        worst_mono = max(
            worst_mono,
            var_empirical(lower, alpha) - var_empirical(s, alpha),
            cvar_empirical(lower, alpha) - cvar_empirical(s, alpha),
        )
        other = rng.normal(scale=1.5, size=n)
        worst_sub = max(
            worst_sub,
            cvar_empirical(s + other, alpha)
            - cvar_empirical(s, alpha)
            - cvar_empirical(other, alpha),
        )
        if order_witness is None:
            c = cvar_empirical(s, alpha)
            v = var_empirical(s, alpha)
            if c < v:
                order_witness = (n, alpha, v, c)
    assert worst_hom <= 1e-12
    assert worst_mono <= 1e-12
    assert worst_sub <= 1e-10

    # two losses that are tiny with probability 0.991 and spike by 10 with
    # probability 0.009: each VaR_0.01 is tiny, but the spikes of the sum
    # cover ~1.8% of scenarios, pushing the sum's VaR above 10
    wrng = np.random.default_rng(991)
    n = 1000
    s1 = wrng.uniform(0, 1e-3, size=n)
    s2 = wrng.uniform(0, 1e-3, size=n)
    s1[wrng.choice(n, size=9, replace=False)] += 10.0
    s2[wrng.choice(n, size=9, replace=False)] += 10.0
    v1 = var_empirical(s1, 0.01)
    v2 = var_empirical(s2, 0.01)
    v12 = var_empirical(s1 + s2, 0.01)
    assert v1 < 1e-2 and v2 < 1e-2
    assert v12 > v1 + v2

    print(
        f"risk coherence over 1000 samples: homogeneity {worst_hom:.2e}, "
        f"monotonicity {worst_mono:.2e}, sub-additivity slack {max(worst_sub, 0.0):.2e}, "
        f"VaR sub-additivity violation witness {v12:.3f} > {v1 + v2:.6f}"
    )
    if order_witness is not None:
        n, alpha, v, c = order_witness
        pytest.fail(
            "tail average >= threshold fails under the sample-value threshold "
            f"convention: N={n}, alpha={alpha}: cvar={c:.6f} < var={v:.6f}. "
            "var_empirical minimizes over sample values with a >=-count tail, "
            "which overshoots the real-valued infimum whenever alpha*N is "
            "fractional (or ties inflate the tail count), while cvar_empirical "
            "is the exact minimum of the tail objective; the ordering is exact "
            "only for tie-free samples with integral alpha*N."
        )
    print("tail average >= threshold: held on all 1000 samples")


def test_05_ru_minimum_equals_tail_average():
    # the smoothed threshold objective, minimized exactly over the threshold,
    # reproduces the closed-form empirical tail average to 1e-4 at mu = 1e-8
    rng = np.random.default_rng(5000)
    mu = 1e-8
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 401))
        s = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=n) + float(rng.normal())
        for alpha in (0.05, 0.2, 0.5):
            th = theta_star(s, alpha, mu)
            val = th + float(np.mean(smooth_plus(s - th, mu, SmoothingKind.CHKS))) / alpha
            worst = max(worst, abs(val - cvar_empirical(s, alpha)))
    print(f"smoothed threshold minimum vs closed form over 300 checks: worst gap {worst:.2e} (tol 1e-4)")
    assert worst <= 1e-4


def test_06_smoothing_envelope():
    # 0 <= [t]_mu - [t]_+ <= mu on a dense grid, equality mu at t = 0, and
    # all four smoothers reduce to the plus part at mu = 0
    grid = np.linspace(-50.0, 50.0, 200001)
    worst = 0.0
    for mu in (1.0, 1e-2, 1e-6):
        gap = smooth_plus(grid, mu, SmoothingKind.CHKS) - plus_part(grid)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= mu + 1e-15)
        assert smooth_plus(0.0, mu, SmoothingKind.CHKS) == pytest.approx(mu)
        worst = max(worst, float(np.max(gap)) / mu)
    for kind in SmoothingKind:
        assert np.array_equal(smooth_plus(grid, 0.0, kind), plus_part(grid))
    print(f"smoothing envelope: bound held for all mu, largest gap/mu {worst:.6f}")


def test_07_cli_byte_determinism():
    # identical seeded invocations with blanked timing emit identical bytes
    argv = [
        sys.executable,
        "-m",
        "esoclcp",
        "solve",
        "--builtin",
        "--schedule",
        "10,100",
        "--seed",
        "7",
        "--format",
        "csv",
        "--no-timing",
    ]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.returncode == b.returncode
    assert a.stdout == b.stdout
    assert a.stdout.startswith(b"j,N,")
    print(f"cli determinism: {len(a.stdout)} identical bytes over two runs (exit {a.returncode})")

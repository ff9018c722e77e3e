"""FB residual system, merit function, and its first derivatives.

The residual comes from SampleEvaluator over a single draw, the Jacobian and
the merit gradient from the dense reference built on that evaluator;
merit_theta is the one-draw merit itself.
"""

import numpy as np
import pytest

from esoclcp.cone import ConeDims, classify_complementarity
from esoclcp.problem import DistributionSpec, ProblemSpec
from esoclcp.merit import merit_theta
from esoclcp.reformulate import MixPoint, init_from_lcp, recover_lcp_point

from conftest import case_iv_instance, one_draw, random_spec
from dense_reference import f_eval, jacobians, merit_grads


def _residual(spec, omega, p):
    return one_draw(spec, omega).residuals(p)[0]


def _jacobian(spec, omega, p):
    return jacobians(one_draw(spec, omega), p)[0]


def _merit_grad(spec, omega, p):
    return merit_grads(one_draw(spec, omega), p)[0]


def _fb_row(a, b):
    # k = l = 1 with G1 = u + b: at u = t = 0 the first residual is psi(a, b)
    # and its Jacobian entries in x_m and u are dpsi/da and dpsi/db
    T = np.zeros((2, 2))
    T[0, 1] = 1.0
    spec = ProblemSpec(
        dims=ConeDims(1, 1),
        omega_dim=1,
        T_base=T,
        r_base=np.array([b, 0.0]),
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )
    p = MixPoint(np.array([a]), np.zeros(1), 0.0)
    return _residual(spec, np.zeros(1), p)[0], _jacobian(spec, np.zeros(1), p)[0, :2]


def _fb_psi(a, b):
    return float(_fb_row(a, b)[0])


def _fb_grad(a, b):
    da, db = _fb_row(a, b)[1]
    return (float(da), float(db))


def test_fb_psi_values():
    assert _fb_psi(0.0, 0.0) == 0.0
    assert _fb_psi(3.0, 4.0) == pytest.approx(-2.0)
    assert _fb_psi(1.0, 0.0) == pytest.approx(0.0)
    assert _fb_psi(-1.0, 1.0) == pytest.approx(np.sqrt(2.0))


def test_fb_psi_zero_set():
    # psi(a,b) = 0 exactly when a >= 0, b >= 0, ab = 0
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
            is_zero = abs(_fb_psi(a, b)) <= 1e-14
            expect = a >= 0 and b >= 0 and a * b == 0
            assert is_zero == expect, f"psi({a},{b})"


def test_fb_grad_values():
    assert _fb_grad(3.0, 4.0) == pytest.approx((-0.4, -0.2))
    assert _fb_grad(0.0, 0.0) == (-1.0, -1.0)
    assert _fb_grad(1.0, 0.0) == pytest.approx((0.0, -1.0))


def test_fb_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.normal(size=2)
        if abs(a) + abs(b) < 1e-3:
            continue
        da, db = _fb_grad(a, b)
        step = 1e-6
        fa = (_fb_psi(a + step, b) - _fb_psi(a - step, b)) / (2 * step)
        fb = (_fb_psi(a, b + step) - _fb_psi(a, b - step)) / (2 * step)
        assert da == pytest.approx(fa, abs=1e-8)
        assert db == pytest.approx(fb, abs=1e-8)


def test_residual_zero_at_case_iv_solution():
    spec, x, u, _, _ = case_iv_instance()
    p = init_from_lcp(x, u)
    out = _residual(spec, np.zeros(1), p)
    assert out.shape == (6,)
    assert np.max(np.abs(out)) <= 1e-10


def test_residual_zero_point_zero_data():
    spec = ProblemSpec(
        dims=ConeDims(3, 2),
        omega_dim=1,
        T_base=np.zeros((5, 5)),
        r_base=np.zeros(5),
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )
    p = MixPoint(np.zeros(3), np.zeros(2), 0.0)
    assert np.array_equal(_residual(spec, np.zeros(1), p), np.zeros(6))


def test_merit_theta_is_half_squared_residual():
    rng = np.random.default_rng(6)
    for _ in range(50):
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        p = MixPoint(rng.normal(size=3), rng.normal(size=2), float(rng.normal()))
        r = _residual(spec, w, p)
        theta = merit_theta(spec, w, p)
        assert theta >= 0.0
        assert theta == pytest.approx(0.5 * float(r @ r), rel=1e-12)


def test_merit_grad_is_jacobian_transpose_residual():
    rng = np.random.default_rng(8)
    for _ in range(50):
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        p = MixPoint(rng.normal(size=3), rng.normal(size=2), float(rng.normal()))
        g = _merit_grad(spec, w, p)
        A = _jacobian(spec, w, p)
        r = _residual(spec, w, p)
        assert np.allclose(g, A.T @ r, atol=1e-13, rtol=1e-13)


def test_merit_grad_zero_at_zero_residual():
    spec, x, u, _, _ = case_iv_instance()
    p = init_from_lcp(x, u)
    g = _merit_grad(spec, np.zeros(1), p)
    assert np.max(np.abs(g)) <= 1e-9


def _fd_vector(fun, z, dim_out, step=1e-6):
    out = np.zeros((dim_out, z.size))
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        out[:, i] = (np.asarray(fun(zp)) - np.asarray(fun(zm))) / (2 * step)
    return out


def test_residual_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 30:
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        spec = random_spec(rng, k=k, l=l)
        w = rng.normal(size=spec.omega_dim)
        z0 = rng.normal(size=k + l + 1)
        p0 = MixPoint(z0[:k], z0[k : k + l], float(z0[k + l]))
        # keep clear of the FB kinks so central differences are valid
        f1 = one_draw(spec, w)._g1_v(p0)[:k, 0]
        if np.any(np.abs(z0[:k]) + np.abs(f1) <= 1e-3):
            continue
        A = _jacobian(spec, w, p0)
        J = _fd_vector(
            lambda z: _residual(spec, w, MixPoint(z[:k], z[k : k + l], float(z[k + l]))),
            z0,
            k + l + 1,
        )
        scale = 1 + np.max(np.abs(J))
        assert np.max(np.abs(A - J)) <= 1e-5 * scale
        checked += 1


def test_merit_grad_matches_finite_differences():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 30:
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        z0 = rng.normal(size=6)
        p0 = MixPoint(z0[:3], z0[3:5], float(z0[5]))
        if np.any(np.abs(z0[:3]) + np.abs(one_draw(spec, w)._g1_v(p0)[:3, 0]) <= 1e-3):
            continue
        g = _merit_grad(spec, w, p0)
        step = 1e-6
        fd = np.zeros(6)
        for i in range(6):
            zp, zm = z0.copy(), z0.copy()
            zp[i] += step
            zm[i] -= step
            fd[i] = (
                merit_theta(spec, w, MixPoint(zp[:3], zp[3:5], float(zp[5])))
                - merit_theta(spec, w, MixPoint(zm[:3], zm[3:5], float(zm[5])))
            ) / (2 * step)
        scale = 1 + np.max(np.abs(fd))
        assert np.max(np.abs(g - fd)) <= 1e-5 * scale
        checked += 1


def test_residual_jacobian_finite_at_fb_kink():
    # row convention (-1,-1) keeps the Jacobian finite when x_m_i = F1_i = 0
    spec = ProblemSpec(
        dims=ConeDims(2, 1),
        omega_dim=1,
        T_base=np.zeros((3, 3)),
        r_base=np.zeros(3),
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )
    p = MixPoint(np.zeros(2), np.zeros(1), 0.0)
    A = _jacobian(spec, np.zeros(1), p)
    assert np.all(np.isfinite(A))
    assert np.allclose(np.diag(A)[:2], -1.0)


def test_residual_jacobian_hand_case():
    # k=1, l=1, all data zero, x_m=1: psi(1, 0) has slope (0, -1), F1 is
    # constant zero, so the upper-left block is 0 - 1 * 0 = 0
    spec = ProblemSpec(
        dims=ConeDims(1, 1),
        omega_dim=1,
        T_base=np.zeros((2, 2)),
        r_base=np.zeros(2),
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )
    p = MixPoint(np.array([1.0]), np.zeros(1), 0.0)
    A = _jacobian(spec, np.zeros(1), p)
    assert A[0, 0] == 0.0


def test_merit_squared_is_differentiable_across_kink():
    # theta(p + d) - theta(p) - d.grad = o(||d||) even where FB has its kink
    rng = np.random.default_rng(16)
    spec = random_spec(rng, perturbed=False)
    w = np.zeros(2)
    # a point with x_m_1 = F1_1 = 0 cannot be built for generic data, so test
    # shrinking displacements around a random kink-adjacent point instead
    base = MixPoint(np.zeros(3), np.zeros(2), 0.0)
    g = _merit_grad(spec, w, base)
    f0 = merit_theta(spec, w, base)
    d = rng.normal(size=6)
    d /= np.linalg.norm(d)
    errs = []
    for h in (1e-2, 1e-3, 1e-4, 1e-5):
        z = h * d
        f1 = merit_theta(spec, w, MixPoint(z[:3], z[3:5], float(z[5])))
        errs.append(abs(f1 - f0 - h * float(g @ d)) / h)
    assert errs[-1] <= 1e-3 * (1 + abs(f0))
    assert errs[-1] <= errs[0] + 1e-12


def test_zero_merit_classifies_case_iv():
    spec, x, u, y, v = case_iv_instance()
    p = init_from_lcp(x, u)
    assert merit_theta(spec, np.zeros(1), p) <= 1e-10
    back = recover_lcp_point(p)
    F = f_eval(spec, np.zeros(1), back.x, back.u)
    out = classify_complementarity(spec.dims, back.x, back.u, F[:3], F[3:], tol=1e-8)
    assert out.case == "IV"
    assert out.lam == pytest.approx(2.0, rel=1e-9)

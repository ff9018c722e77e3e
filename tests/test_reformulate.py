"""Mixed-CP reformulation: G1 and G2 at one draw, their Jacobian, variable maps.

G1 and G2 are evaluated by SampleEvaluator over a single draw, the residual
Jacobian by the dense reference built on it.
"""

import numpy as np
import pytest

from esoclcp.cone import ConeDims, _check_vector
from esoclcp.problem import DistributionSpec, ProblemSpec, builtin_example
from esoclcp.merit import merit_theta
from esoclcp.reformulate import init_from_lcp, recover_lcp_point

from conftest import case_iv_instance, one_draw, random_spec
from dense_reference import f_eval, jacobians


def _plain_spec(k, l, T, r):
    return ProblemSpec(
        dims=ConeDims(k, l),
        omega_dim=1,
        T_base=np.asarray(T, dtype=float),
        r_base=np.asarray(r, dtype=float),
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )


def _g1(spec, omega, z):
    """G1 = A(w) (x_m + t e) + B(w) u + p(w) at one draw."""
    return one_draw(spec, omega)._g1_v(z)[: spec.dims.k, 0]


def _g2(spec, omega, z):
    """G2 at one draw: the equality rows of the residual, last one t^2 - ||u||^2."""
    return one_draw(spec, omega).residuals(z)[spec.dims.k :, 0]


def _jacobian(spec, omega, z):
    """Residual Jacobian at one draw; rows k.. are the Jacobian of G2."""
    return jacobians(one_draw(spec, omega), z)[0]


def test_f1_identity_A():
    # A = I, B = 0, p = 0: F1 at x_m=0, t=1 is the all-ones vector
    T = np.zeros((5, 5))
    T[:3, :3] = np.eye(3)
    spec = _plain_spec(3, 2, T, np.zeros(5))
    z = np.r_[np.zeros(3), 0.7, -0.2, 1.0]
    assert np.allclose(_g1(spec, np.zeros(1), z), np.ones(3))


def test_f1_matches_F_eval_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        z = init_from_lcp(x, u)
        lhs = _g1(spec, w, z)
        rhs = f_eval(spec, w, x, u)[:3]
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=1e-12)


def test_f1_zero_point_gives_p():
    spec = builtin_example()
    z = np.zeros(6)
    assert np.array_equal(_g1(spec, np.zeros(3), z), [-26.0, 4.0, 23.0])


def test_f2_all_terms_vanish():
    spec = _plain_spec(3, 2, np.zeros((5, 5)), np.zeros(5))
    z = np.array([1.0, -2.0, 3.0, 3.0, 4.0, 5.0])
    assert np.allclose(_g2(spec, np.zeros(1), z), np.zeros(3))


def test_f2_zero_u_and_t():
    rng = np.random.default_rng(9)
    for _ in range(20):
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        z = np.r_[rng.normal(size=3), np.zeros(2), 0.0]
        assert np.allclose(_g2(spec, w, z), np.zeros(3), atol=1e-14)


def test_f2_zero_at_case_iv_solution():
    spec, x, u, _, _ = case_iv_instance()
    z = init_from_lcp(x, u)
    out = _g2(spec, np.zeros(1), z)
    assert np.max(np.abs(out)) <= 1e-10


def test_f2_head_identity_at_t_norm_u():
    # first l components equal t(C x + D u + q) + u e^T (A x + B u + p)
    # whenever t = ||u||, with x the recovered LCP point
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = random_spec(rng)
        w = rng.normal(size=spec.omega_dim)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        if np.linalg.norm(u) < 1e-3:
            continue
        z = init_from_lcp(x, u)
        F = f_eval(spec, w, x, u)
        expect = z[-1] * F[3:] + z[3:5] * np.sum(F[:3])
        got = _g2(spec, w, z)[:2]
        scale = 1 + np.max(np.abs(expect))
        assert np.max(np.abs(got - expect)) <= 1e-10 * scale


def test_jacobian_zero_data():
    # every block of dG/d(x_m, u, t) vanishes, so the FB rows are the kink
    # convention's -I alone and the G2 rows are zero
    spec = _plain_spec(3, 2, np.zeros((5, 5)), np.zeros(5))
    jac = _jacobian(spec, np.zeros(1), np.zeros(6))
    assert np.allclose(jac[:3], np.hstack([-np.eye(3), np.zeros((3, 3))]))
    assert np.allclose(jac[3:], 0)


def test_jacobian_bottom_row():
    rng = np.random.default_rng(21)
    spec = random_spec(rng)
    z = np.r_[rng.normal(size=3), 1.0, 0.0, 2.0]
    jac = _jacobian(spec, np.zeros(2), z)
    assert np.allclose(jac[-1], [0.0, 0.0, 0.0, -2.0, 0.0, 4.0])


def _fd_jacobian(fun, z, dim_out, step=1e-6):
    out = np.zeros((dim_out, z.size))
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += step
        zm[i] -= step
        out[:, i] = (fun(zp) - fun(zm)) / (2 * step)
    return out


def test_jacobian_matches_finite_differences():
    # FB rows against central differences of the FB residual, whose
    # derivative carries dG1 scaled by dpsi/db; G2 rows against G2's
    rng = np.random.default_rng(33)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        spec = random_spec(rng, k=k, l=l)
        w = rng.normal(size=spec.omega_dim)
        z0 = rng.normal(size=k + l + 1)
        ev = one_draw(spec, w)

        def res_of(z):
            return ev.residuals(z)[:, 0]

        jac = jacobians(ev, z0)[0]
        J = _fd_jacobian(res_of, z0, k + l + 1)
        scale1 = 1 + np.max(np.abs(J[:k]))
        scale2 = 1 + np.max(np.abs(J[k:]))
        assert np.max(np.abs(jac[:k] - J[:k])) <= 1e-5 * scale1
        assert np.max(np.abs(jac[k:] - J[k:])) <= 1e-5 * scale2


def test_jacobian_upper_right_includes_q():
    # derivative of F2 head w.r.t. t carries the constant q term; a spec with
    # everything zero except q must still produce dF2_head/dt = q
    q = np.array([3.0, -7.0])
    r = np.concatenate([np.zeros(3), q])
    spec = _plain_spec(3, 2, np.zeros((5, 5)), r)
    jac = _jacobian(spec, np.zeros(1), np.zeros(6))
    assert np.allclose(jac[3:5, -1], q)


def test_recover_and_init_round_trip():
    rng = np.random.default_rng(77)
    dims = ConeDims(4, 3)
    for _ in range(100):
        x = rng.normal(size=4)
        u = rng.normal(size=3)
        z = init_from_lcp(x, u)
        assert z[-1] == pytest.approx(np.linalg.norm(u))
        back_x, back_u = recover_lcp_point(dims, z)
        assert np.allclose(back_x, x, atol=1e-12)
        assert np.array_equal(back_u, u)


def test_recover_examples():
    back_x, _ = recover_lcp_point(ConeDims(3, 2), np.array([0.0, 2.0, 3.0, 1.0, 0.0, 1.0]))
    assert np.array_equal(back_x, [1.0, 3.0, 4.0])
    z = np.array([4.0, -1.0, 0.5, 0.0])
    back_x, back_u = recover_lcp_point(ConeDims(2, 1), z)
    assert np.array_equal(back_x, z[:2]) and np.array_equal(back_u, z[2:3])
    back_u[0] = 7.0  # a copy, not a view of z
    assert z[2] == 0.5


def test_init_from_lcp_zero_u():
    z = init_from_lcp(np.array([1.0, 2.0, 3.0]), np.zeros(2))
    assert z[-1] == 0.0
    assert np.array_equal(z, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2, 3])
def test_mix_point_rejects_non_finite_entries(where, bad):
    # z = (x_m, u, t) with k = 2, l = 1: both x_m entries, u and t
    z = np.array([1.0, -2.0, 0.5, 3.0])
    z[where] = bad
    with pytest.raises(ValueError, match="^z must be finite$"):
        _check_vector(z, "z", 4)
    with pytest.raises(ValueError, match="^z must be finite$"):
        recover_lcp_point(ConeDims(2, 1), z)


def test_check_vector_checks_the_length_and_coerces():
    for z, message in (
        (np.zeros(3), "z has length 3, expected 4"),
        (np.zeros(5), "z has length 5, expected 4"),
        (np.zeros((4, 1)), r"z must be a nonempty 1-d vector, got shape \(4, 1\)"),
        (np.zeros((1, 4)), r"z must be a nonempty 1-d vector, got shape \(1, 4\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _check_vector(z, "z", 4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recover_lcp_point(ConeDims(2, 1), z)
    q = _check_vector([1, -2, 0, 3], "z", 4)
    assert q.dtype == np.float64 and np.array_equal(q, [1.0, -2.0, 0.0, 3.0])


def test_dimension_mismatch_errors():
    spec = builtin_example()
    with pytest.raises(ValueError, match="^z has length 5, expected 6$"):
        merit_theta(spec, np.zeros(3), np.zeros(5))
    with pytest.raises(ValueError, match="^z has length 7, expected 6$"):
        merit_theta(spec, np.zeros(3), np.zeros(7))
    with pytest.raises(ValueError, match="^omega has length 2, expected 3$"):
        merit_theta(spec, np.zeros(2), np.zeros(6))
    with pytest.raises(ValueError, match="^omega must be finite$"):
        merit_theta(spec, np.r_[0.0, np.nan, 0.0], np.zeros(6))

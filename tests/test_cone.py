"""Cone membership and complementarity classification."""

import numpy as np
import pytest

from esoclcp.cone import ConeDims, classify_complementarity, in_L, in_M
from esoclcp.problem import DistributionSpec, ProblemSpec

from conftest import assert_refuses

D32 = ConeDims(3, 2)


def _spec(omega_dim):
    return ProblemSpec(D32, omega_dim, np.eye(5), np.zeros(5), (), (), DistributionSpec("iid_normal", 0.0, 1.0))


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: ConeDims(True, 2), "k"),
        (lambda: ConeDims(3, False), "l"),
        (lambda: ConeDims(0, 2), "k"),
        (lambda: ConeDims(3, 2.0), "l"),
        (lambda: _spec(True), "omega_dim"),
        (lambda: _spec(0), "omega_dim"),
        (lambda: _spec(1.0), "omega_dim"),
    ],
    ids=["k-bool", "l-bool", "k-zero", "l-float", "omega_dim-bool", "omega_dim-zero", "omega_dim-float"],
)
def test_dimensions_refuse_bools_and_non_integers(make, name):
    # a bool is an int to isinstance, but not a dimension
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1"):
        make()


def test_dimensions_accept_numpy_integers():
    assert ConeDims(np.int64(3), 2).m == 5
    assert type(_spec(np.int32(2)).omega_dim) is int


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ConeDims(True, 2), "k must be an integer >= 1, got True"),
        (lambda: ConeDims(3, 2.0), "l must be an integer >= 1, got 2.0"),
        (lambda: ConeDims(-3, 2), "k must be an integer >= 1, got -3"),
        (lambda: in_L(D32, [1, 1], [0, 0]), "x has length 2, expected 3"),
        (lambda: in_M(D32, [1, 1, 1], [np.nan, 0]), "u must be finite"),
        (lambda: in_L(D32, np.ones((1, 3)), [0, 0]), "x must be a nonempty 1-d vector, got shape (1, 3)"),
        (lambda: classify_complementarity(D32, [1, 1, 1], [0, 0], [0, 0, 0], [0, 0], tol=-1.0),
         "tol must be a finite number in [0, inf), got -1.0"),
        (lambda: in_L(D32, [1, 1, 1], [0, 0], tol=np.nan), "tol must be a finite number in [0, inf), got nan"),
        (lambda: in_M(D32, [1, 1, 1], [0, 0], tol=True), "tol must be a finite number in [0, inf), got True"),
        (lambda: classify_complementarity(D32, [1, 1, 1], [0, 0], [0, 0, 0], [0, 0], tol=np.inf),
         "tol must be a finite number in [0, inf), got inf"),
    ],
    ids=[
        "k-bool", "l-float", "k-negative", "x-length", "u-nan", "x-2d", "tol-negative", "in_L-tol-nan", "in_M-tol-bool",
        "tol-inf",
    ],
)
def test_cone_refusals(make, message):
    assert_refuses(make, ValueError, message)


def test_in_L_examples():
    assert in_L(D32, [1, 1, 1], [0, 0], tol=0.0)
    assert in_L(D32, [1, 2, 3], [1, 0], tol=0.0)
    assert not in_L(D32, [0.5, 2, 3], [1, 0], tol=0.0)


def test_in_M_examples():
    assert in_M(D32, [1, 0, 0], [0.5, 0.5], tol=0.0)
    assert not in_M(D32, [1, 0, 0], [1, 1], tol=0.0)
    assert not in_M(D32, [-0.1, 2, 0], [0, 0], tol=0.0)


def test_in_L_zero_u_is_orthant_test():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.normal(size=3)
        assert in_L(D32, x, np.zeros(2), tol=0.0) == bool(np.min(x) >= 0.0)


def test_membership_dimension_mismatch():
    bad = [
        ([1, 1], [0, 0], "x has length 2, expected 3"),
        ([1, 1, 1], [0, 0, 0], "u has length 3, expected 2"),
        ([1, np.nan, 1], [0, 0], "x must be finite"),
        ([1, 1, 1], [np.inf, 0], "u must be finite"),
        ([[1, 1, 1]], [0, 0], r"x must be a nonempty 1-d vector, got shape \(1, 3\)"),
    ]
    for member in (in_L, in_M):
        for x, u, message in bad:
            with pytest.raises(ValueError, match=f"^{message}$"):
                member(D32, x, u)


def test_duality_pairing_nonnegative():
    # L and M are mutually dual, so <p, q> >= 0 for p in L, q in M
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        dims = ConeDims(k, l)
        u = rng.normal(size=l)
        x = np.linalg.norm(u) + rng.uniform(0, 2, size=k)
        assert in_L(dims, x, u)

        v = rng.normal(size=l)
        y = rng.uniform(0, 1, size=k)
        scale = np.linalg.norm(v) / max(np.sum(y), 1e-12)
        y = y * max(1.0, scale * 1.01) + 1e-9
        assert in_M(dims, y, v)

        pairing = float(x @ y + u @ v)
        assert pairing >= -1e-12, f"duality violated: {pairing}"


def test_classify_case_I():
    out = classify_complementarity(
        D32, [1, 0, 2], [0, 0], [0, 3, 0], [0, 0], tol=1e-12
    )
    assert out.case == "I"
    assert out.lam is None


def test_classify_case_II():
    # u = 0, v != 0, e^T y >= ||v||, (x, y) complementary on the orthant
    out = classify_complementarity(
        D32, [2, 0, 0], [0, 0], [0, 1, 3], [1.5, 0], tol=1e-12
    )
    assert out.case == "II"


def test_classify_case_III():
    out = classify_complementarity(
        D32, [2, 1, 1], [1, 0], [0, 0, 0], [0, 0], tol=1e-12
    )
    assert out.case == "III"


def test_classify_case_IV_crafted():
    # u=(1,0), lambda=2, v=(-2,0), y=(2,0,0) has e^T y = 2 = ||v||, and
    # x=(1,3,4) shifts to x - ||u||e = (0,2,3), complementary with y.
    out = classify_complementarity(
        D32, [1, 3, 4], [1, 0], [2, 0, 0], [-2, 0], tol=1e-12
    )
    assert out.case == "IV"
    assert out.lam == pytest.approx(2.0, abs=1e-12)


def test_classified_tuples_have_zero_pairing():
    # any matched case implies <(x,u),(y,v)> = 0 up to the stated slack
    tuples = [
        ([1, 0, 2], [0, 0], [0, 3, 0], [0, 0]),
        ([2, 0, 0], [0, 0], [0, 1, 3], [1.5, 0]),
        ([2, 1, 1], [1, 0], [0, 0, 0], [0, 0]),
        ([1, 3, 4], [1, 0], [2, 0, 0], [-2, 0]),
    ]
    tol = 1e-10
    for x, u, y, v in tuples:
        out = classify_complementarity(D32, x, u, y, v, tol=tol)
        assert out.case != "none"
        pairing = abs(np.dot(x, y) + np.dot(u, v))
        slack = 3 * tol * (1 + np.linalg.norm(x) + np.linalg.norm(y))
        assert pairing <= slack, f"case {out.case}: pairing {pairing}"


def test_classify_none_and_residuals():
    out = classify_complementarity(D32, [1, 1, 1], [1, 0], [1, 1, 1], [1, 0], tol=1e-12)
    assert out.case == "none"
    assert out.residuals
    assert all(val >= 0 for val in out.residuals.values())


def test_classify_case_IV_random_constructions():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 4))
        dims = ConeDims(k, l)
        u = rng.normal(size=l)
        nu = np.linalg.norm(u)
        if nu < 1e-6:
            continue
        lam = float(rng.uniform(0.5, 3.0))
        v = -lam * u
        # split indices so shifted x and y are componentwise complementary
        mask = rng.integers(0, 2, size=k).astype(bool)
        if not mask.any():
            mask[0] = True
        y = np.where(mask, rng.uniform(0.1, 1.0, size=k), 0.0)
        y = y * (lam * nu / np.sum(y))
        x = np.where(mask, nu, nu + rng.uniform(0.1, 2.0, size=k))
        out = classify_complementarity(dims, x, u, y, v, tol=1e-9)
        assert out.case == "IV", f"got {out.case} with residuals {out.residuals}"
        assert out.lam == pytest.approx(lam, rel=1e-9)


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError):
        classify_complementarity(D32, [1, 2], [0, 0], [0, 0, 0], [0, 0])

"""Shared builders for randomized and crafted problem instances."""

from dataclasses import replace

import numpy as np
import pytest

from esoclcp.cone import ConeDims
from esoclcp.problem import DistributionSpec, PerturbEntry, ProblemSpec, builtin_example
from esoclcp.risk import smooth_plus, smooth_plus_deriv
from esoclcp.saa import SampleEvaluator

from dense_reference import merit_grad


def random_spec(rng, k=3, l=2, omega_dim=2, scale=1.0, perturbed=True):
    """A small instance with dense base data and a few affine perturbations."""
    m = k + l
    T = rng.normal(scale=scale, size=(m, m))
    r = rng.normal(scale=scale, size=m)
    T_perturb = []
    r_perturb = []
    if perturbed:
        for _ in range(int(rng.integers(1, 4))):
            T_perturb.append(
                PerturbEntry(
                    row=int(rng.integers(0, m)),
                    col=int(rng.integers(0, m)),
                    coeff=float(rng.normal()),
                    omega_index=int(rng.integers(0, omega_dim)),
                )
            )
        r_perturb.append(
            PerturbEntry(
                row=int(rng.integers(0, m)),
                col=None,
                coeff=float(rng.normal()),
                omega_index=int(rng.integers(0, omega_dim)),
            )
        )
    return ProblemSpec(
        dims=ConeDims(k, l),
        omega_dim=omega_dim,
        T_base=T,
        r_base=r,
        T_perturb=tuple(T_perturb),
        r_perturb=tuple(r_perturb),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )


def scaled_example(c=1e8):
    """The bundled example with T_base, r_base and every perturbation coefficient times c: the same solutions."""
    spec = builtin_example()
    return replace(
        spec,
        T_base=c * spec.T_base,
        r_base=c * spec.r_base,
        T_perturb=tuple(replace(e, coeff=c * e.coeff) for e in spec.T_perturb),
        r_perturb=tuple(replace(e, coeff=c * e.coeff) for e in spec.r_perturb),
    )


def one_draw(spec, omega):
    """An evaluator over the single draw omega: G1, G2, R and theta at one draw."""
    return SampleEvaluator(spec, np.asarray(omega, dtype=float)[None, :])


def tail_objective(ev, z, theta, alpha, mu):
    """Nhat(z, Theta) = Theta + (alpha N)^{-1} sum_j [theta_j - Theta]_mu over ev's sample (CHKS)."""
    return theta + float(np.mean(smooth_plus(ev.thetas(z) - theta, mu))) / alpha


def tail_gradient(ev, z, theta, alpha, mu):
    """Gradient of tail_objective in (x_m, u, t, Theta), its spatial part from weighted_merit_grad."""
    w = smooth_plus_deriv(ev.thetas(z) - theta, mu)
    return np.append(merit_grad(ev, z, w) / alpha, 1.0 - float(np.mean(w)) / alpha)


def case_iv_instance(rng=None):
    """Deterministic instance whose known solution is a case-IV pair.

    Chosen tuple: u=(0.6, 0.8) so ||u||=1, lambda=2, v=-2u, y=(2,0,0) with
    e^T y = ||v||, x=(1,3,4) so x - ||u||e = (0,2,3) pairs complementarily
    with y.  The vector r is then defined as (y - Ax - Bu, v - Cx - Du), which
    makes (x,u) an exact solution with F = (y, v) regardless of A..D.
    """
    if rng is None:
        rng = np.random.default_rng(2718)
    k, l = 3, 2
    x = np.array([1.0, 3.0, 4.0])
    u = np.array([0.6, 0.8])
    y = np.array([2.0, 0.0, 0.0])
    v = np.array([-1.2, -1.6])
    T = rng.normal(size=(k + l, k + l))
    A, B = T[:k, :k], T[:k, k:]
    C, D = T[k:, :k], T[k:, k:]
    r = np.concatenate([y - A @ x - B @ u, v - C @ x - D @ u])
    spec = ProblemSpec(
        dims=ConeDims(k, l),
        omega_dim=1,
        T_base=T,
        r_base=r,
        T_perturb=(),
        r_perturb=(),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )
    return spec, x, u, y, v


def assert_refuses(make, cls, message):
    """make() raises exactly cls (not a subclass) with exactly message."""
    with pytest.raises(cls) as info:
        make()
    assert (type(info.value), str(info.value)) == (cls, message)

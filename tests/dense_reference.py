"""Per-draw dense F, Jacobians, merit gradients and aloc, the reference for the kernels.

SampleEvaluator assembles the residual Jacobian only blockwise (its sample
mean, and the weighted sum of J_j^T R_j), and reads F off its product over
the draws (f_values, which solver.aloc reads); these build every J_j and
F(x, u, w_j) in full from the realized T(w_j), so the kernels and central
differences can be checked against them.  kernel_inputs, merit_grad and
mean_jacobian call the gradient kernels the way a solver stage does, with
every array formed first.
"""

import numpy as np

from esoclcp.problem import realize_batch


def f_eval(spec, omega, x, u):
    """F(x, u, w) = T(w) (x; u) + r(w) at one draw, from the realized T(w) and r(w)."""
    T, r = realize_batch(spec, np.asarray(omega, dtype=float)[None, :])
    return T[0] @ np.concatenate([x, u]) + r[0]


def jacobians(ev, z):
    """Residual Jacobians at z = (x_m, u, t) over the evaluator's sample, shape (N, k+l+1, k+l+1)."""
    k, l, n = ev.k, ev.l, ev.N
    u, t = z[k : k + l], z[k + l]
    f = ev._g1_v(z)
    g1, v = f[:k].T, f[k:-1].T
    da, db = (a.T for a in ev._fb_coeffs(z, f, np.empty((2, k, n))))
    T, _ = realize_batch(ev.spec, ev.W[1:].T)
    # T(w_j) stored sample-last, as the evaluator's flat blocks are, which
    # fixes the order (and so the rounding) of the sums below
    T = np.ascontiguousarray(T.transpose(2, 1, 0)).transpose(2, 1, 0)
    A, B, C, D = T[:, :k, :k], T[:, :k, k:], T[:, k:, :k], T[:, k:, k:]

    out = np.zeros((n, ev.dim, ev.dim))
    # FB rows: D_a + D_b A for x_m, D_b [B | A e] for (u, t)
    out[:, :k, :k] = db[:, :, None] * A
    idx = np.arange(k)
    out[:, idx, idx] += da
    out[:, :k, k : k + l] = db[:, :, None] * B
    out[:, :k, k + l] = db * A.sum(axis=2)

    # equality rows: head block then the norm row
    out[:, k : k + l, :k] = t * C + u[None, :, None] * A.sum(axis=1)[:, None, :]
    s1 = g1.sum(axis=1)
    idx_l = np.arange(l)
    out[:, k + idx_l, k + idx_l] = s1[:, None]
    out[:, k : k + l, k : k + l] += u[None, :, None] * B.sum(axis=1)[:, None, :] + t * D
    out[:, k : k + l, k + l] = v + t * C.sum(axis=2) + np.outer(A.sum(axis=(1, 2)), u)
    out[:, k + l, :k] = 0.0
    out[:, k + l, k : k + l] = -2.0 * u
    out[:, k + l, k + l] = 2.0 * t
    return out


def merit_grads(ev, z):
    """Per-draw merit gradients J_j^T R_j at z, shape (N, k+l+1)."""
    return np.einsum("nij,in->nj", jacobians(ev, z), ev.residuals(z))


def kernel_inputs(ev, z):
    """(res, f, fb) at z: the residuals, the _g1_v rows and the FB coefficients, in fresh arrays."""
    f = ev._g1_v(z)
    return ev.residuals(z, f), f, ev._fb_coeffs(z, f, np.empty((2, ev.k, ev.N)))


def merit_grad(ev, z, w):
    """ev.weighted_merit_grad at z over kernel_inputs, w a scalar or one weight per draw."""
    w = np.broadcast_to(np.asarray(w, dtype=float), (ev.N,))
    return ev.weighted_merit_grad(z, w, *kernel_inputs(ev, z), np.empty((ev.dim - 1, ev.N)))


def mean_jacobian(ev, z):
    """ev.mean_jacobian_residual at z over kernel_inputs: the mean Jacobian and residual."""
    return ev.mean_jacobian_residual(z, *kernel_inputs(ev, z))


def aloc_dense(spec, draws, x, u):
    """mean_j |<(x, u), F(x, u, w_j)>| over the realized T(w_j) and r(w_j) of the (N, omega_dim) draws."""
    T, r = realize_batch(spec, draws)
    w = np.concatenate([x, u])
    vals = np.einsum("nij,j->ni", T, w) + r
    return float(np.mean(np.abs(vals @ w)))

"""Per-draw dense Jacobians, merit gradients and aloc, the reference for the kernels.

SampleEvaluator assembles the residual Jacobian only blockwise (its sample
mean, and the weighted sum of J_j^T R_j), and solver.aloc reads F off its
product over the draws; these build every J_j and F(x, u, w_j) in full from
the realized T(w_j), so the kernels and central differences can be checked
against them.
"""

import numpy as np

from esoclcp.problem import realize_batch


def jacobians(ev, p):
    """Residual Jacobians at p over the evaluator's sample, shape (N, k+l+1, k+l+1)."""
    k, l, n = ev.k, ev.l, ev.N
    f = ev._g1_v(p)
    g1, v = f[:k].T, f[k:-1].T
    da, db = (a.T for a in ev._fb_coeffs(p, f))
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
    out[:, k : k + l, :k] = p.t * C + p.u[None, :, None] * A.sum(axis=1)[:, None, :]
    s1 = g1.sum(axis=1)
    idx_l = np.arange(l)
    out[:, k + idx_l, k + idx_l] = s1[:, None]
    out[:, k : k + l, k : k + l] += p.u[None, :, None] * B.sum(axis=1)[:, None, :] + p.t * D
    out[:, k : k + l, k + l] = v + p.t * C.sum(axis=2) + np.outer(A.sum(axis=(1, 2)), p.u)
    out[:, k + l, :k] = 0.0
    out[:, k + l, k : k + l] = -2.0 * p.u
    out[:, k + l, k + l] = 2.0 * p.t
    return out


def merit_grads(ev, p):
    """Per-draw merit gradients J_j^T R_j at p, shape (N, k+l+1)."""
    return np.einsum("nij,ni->nj", jacobians(ev, p), ev.residuals(p))


def aloc_dense(spec, draws, x, u):
    """mean_j |<(x, u), F(x, u, w_j)>| over the realized T(w_j) and r(w_j) of the (N, omega_dim) draws."""
    T, r = realize_batch(spec, draws)
    w = np.concatenate([x, u])
    vals = np.einsum("nij,j->ni", T, w) + r
    return float(np.mean(np.abs(vals @ w)))

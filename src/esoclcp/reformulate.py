"""Reduction of the cone complementarity problem to a mixed one on the orthant.

A solution (x, u) of the cone problem with u != 0 satisfies, with t = ||u||
and the shifted variable x_m = x - t e, a mixed complementarity system on the
nonnegative orthant in the unknowns z = (x_m, u, t):

    G1(x_m, u, t, w) = A(w) (x_m + t e) + B(w) u + p(w)            (k rows)
    G2(x_m, u, t, w) = ([t C(w) + u e^T A(w)] (x_m + t e)
                        + u e^T [B(w) u + p(w)] + t [D(w) u + q(w)];
                        t^2 - ||u||^2)                             (l + 1 rows)

where x_m and G1 must be complementary nonnegative vectors and G2 must
vanish.  A point of the mixed problem is one float vector z of length
k + l + 1, checked by cone._check_vector; this module converts points
between the two coordinate systems.  saa.SampleEvaluator evaluates G1, G2
and their Jacobian.
"""

from __future__ import annotations

import numpy as np

from .cone import ConeDims, _check_vector


def recover_lcp_point(dims: ConeDims, z) -> tuple[np.ndarray, np.ndarray]:
    """Map z = (x_m, u, t) back to the cone variables (x, u) = (x_m + t e, u)."""
    z = _check_vector(z, "z", dims.m + 1)
    return z[: dims.k] + z[-1], z[dims.k : -1].copy()


def init_from_lcp(x, u) -> np.ndarray:
    """Map cone variables (x, u) to z = (x - ||u|| e, u, ||u||)."""
    u = np.asarray(u, dtype=float)
    t = np.linalg.norm(u)
    return np.concatenate([np.asarray(x, dtype=float) - t, u, [t]])

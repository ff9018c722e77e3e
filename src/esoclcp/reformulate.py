"""Reduction of the cone complementarity problem to a mixed one on the orthant.

A solution (x, u) of the cone problem with u != 0 satisfies, with t = ||u||
and the shifted variable x_m = x - t e, a mixed complementarity system on the
nonnegative orthant in the unknowns (x_m, u, t):

    G1(x_m, u, t, w) = A(w) (x_m + t e) + B(w) u + p(w)            (k rows)
    G2(x_m, u, t, w) = ([t C(w) + u e^T A(w)] (x_m + t e)
                        + u e^T [B(w) u + p(w)] + t [D(w) u + q(w)];
                        t^2 - ||u||^2)                             (l + 1 rows)

where x_m and G1 must be complementary nonnegative vectors and G2 must
vanish.  This module holds the point type of the mixed problem and converts
points between the two coordinate systems; G1, G2 and their Jacobian with
respect to (x_m, u, t) are evaluated by saa.SampleEvaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class MixPoint:
    """A point (x_m, u, t) of the reformulated problem."""

    x_m: np.ndarray
    u: np.ndarray
    t: float

    def __post_init__(self) -> None:
        self.x_m = np.asarray(self.x_m, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.t = float(self.t)
        if self.x_m.ndim != 1 or self.u.ndim != 1:
            raise ValueError("x_m and u must be 1-d vectors")
        if not (np.all(np.isfinite(self.x_m)) and np.all(np.isfinite(self.u)) and np.isfinite(self.t)):
            raise ValueError("mix point must be finite")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x_m, self.u, [self.t]])

    @staticmethod
    def from_vector(z, k: int, l: int) -> "MixPoint":
        # one check of the whole vector stands in for __post_init__'s
        z = np.asarray(z, dtype=float)
        if z.shape != (k + l + 1,):
            raise ValueError(f"expected a vector of length {k + l + 1}, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("mix point must be finite")
        p = object.__new__(MixPoint)
        p.x_m, p.u, p.t = z[:k], z[k : k + l], float(z[k + l])
        return p


def recover_lcp_point(p: MixPoint) -> tuple[np.ndarray, np.ndarray]:
    """Map (x_m, u, t) back to the cone variables (x, u) = (x_m + t e, u)."""
    return p.x_m + p.t, p.u.copy()


def init_from_lcp(x, u) -> MixPoint:
    """Map cone variables (x, u) to (x - ||u|| e, u, ||u||)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    t = float(np.linalg.norm(u))
    return MixPoint(x - t, u, t)

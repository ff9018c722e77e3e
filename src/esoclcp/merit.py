"""Fischer-Burmeister merit function for the reformulated problem.

The scalar C-function

    psi(a, b) = sqrt(a^2 + b^2) - (a + b)

vanishes exactly when a >= 0, b >= 0 and a b = 0.  Applying it componentwise
to the complementary pair (x_m, G1) and stacking the equality block G2 gives
the residual map

    R(x_m, u, t, w) = (psi((x_m)_1, (G1)_1), ..., psi((x_m)_k, (G1)_k), G2),

whose zeros are exactly the solutions of the mixed problem at the draw w.
The merit function is theta = 0.5 ||R||^2.  R and theta are evaluated over
a whole sample by saa.SampleEvaluator, which forms R's Jacobian only in
blocks, as its sample mean and as tail-weighted sums of J^T R; this module
keeps the one-draw merit that diagnostics score a single point with.
"""

from __future__ import annotations

from .problem import ProblemSpec, _check_omega
from .reformulate import MixPoint
from .saa import SampleEvaluator


def merit_theta(spec: ProblemSpec, omega, p: MixPoint) -> float:
    """theta = 0.5 ||R||^2 over all k + l + 1 residual components at one draw."""
    k, l = spec.dims.k, spec.dims.l
    if p.x_m.shape != (k,) or p.u.shape != (l,):
        raise ValueError(f"x_m and u must have lengths {k} and {l}, got shapes {p.x_m.shape} and {p.u.shape}")
    return float(SampleEvaluator(spec, _check_omega(spec, omega)[None, :]).thetas(p)[0])

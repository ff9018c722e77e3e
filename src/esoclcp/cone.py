"""Extended second order cones and their complementarity structure.

The cone L(k, l) collects pairs (x, u) in R^k x R^l with x >= ||u||_2 * e
componentwise, where e is the all-ones vector.  Its dual M(k, l) collects the
pairs with e^T x >= ||u||_2 and x >= 0.  A pair of points ((x, u), (y, v))
with (x, u) in L and (y, v) in M is complementary when the full inner product
x.y + u.v vanishes; every complementary pair falls into exactly one of four
mutually exclusive cases depending on whether u and v vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-8

CASE_NONE = "none"
CASE_ORDER = ("I", "II", "III", "IV")


def _is_int(value) -> bool:
    """An int or numpy integer, and not a bool, which is an int to isinstance."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str) -> int:
    # value as a Python int, where it is an integer >= 1: every size, count and cap
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """A float, int or numpy real, and not a bool."""
    return isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)


def _check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf, ends: str = "()") -> float:
    # value as a float, where it is a finite real in the interval from lo to
    # hi, whose brackets ends gives ("[)" takes lo in): every float knob
    if _is_real(value):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the floats
            x = math.inf
        if math.isfinite(x) and (lo < x or ends[0] == "[" and x == lo) and (x < hi or ends[1] == "]" and x == hi):
            return x
    raise ValueError(f"{name} must be a finite number in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")


@dataclass(frozen=True)
class ConeDims:
    """Dimensions (k, l) of the cone: k ordered components, l free components."""

    k: int
    l: int

    def __post_init__(self) -> None:
        _check_count(self.k, "k")
        _check_count(self.l, "l")

    @property
    def m(self) -> int:
        return self.k + self.l


@dataclass(eq=False)
class CompCase:
    """Outcome of a complementarity classification.

    ``case`` is one of "I", "II", "III", "IV" or "none"; ``lam`` is the
    positive multiplier v = -lam * u and is present only for case IV;
    ``residuals`` maps condition names of the matched (or nearest) case to
    their violation magnitudes, all of which are <= tol iff the case matched.
    """

    case: str
    lam: float | None = None
    residuals: dict[str, float] = field(default_factory=dict)


def _check_vector(a, name: str, n: int | None = None) -> np.ndarray:
    # a as a finite, nonempty 1-d float array, of length n when n is given;
    # the one check of every vector the library takes
    out = np.asarray(a, dtype=float)
    if out.ndim != 1 or out.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector, got shape {out.shape}")
    if n is not None and out.size != n:
        raise ValueError(f"{name} has length {out.size}, expected {n}")
    if not np.isfinite(out).all():  # the method: np.all's wrapper costs more than the test
        raise ValueError(f"{name} must be finite")
    return out


def _check_point(dims: ConeDims, x, u, names: str = "xu") -> tuple[np.ndarray, np.ndarray]:
    # x and u of lengths k and l; the two letters of names name them in errors
    return _check_vector(x, names[0], dims.k), _check_vector(u, names[1], dims.l)


def in_L(dims: ConeDims, x, u, tol: float = DEFAULT_TOL) -> bool:
    """Whether (x, u) lies in L(k, l): min_i x_i >= ||u|| - tol."""
    x, u = _check_point(dims, x, u)
    tol = _check_real(tol, "tol", 0.0, ends="[)")
    return bool(np.min(x) >= float(np.linalg.norm(u)) - tol)


def in_M(dims: ConeDims, x, u, tol: float = DEFAULT_TOL) -> bool:
    """Whether (x, u) lies in the dual cone M(k, l).

    Requires e^T x >= ||u|| - tol and min_i x_i >= -tol.
    """
    x, u = _check_point(dims, x, u)
    tol = _check_real(tol, "tol", 0.0, ends="[)")
    return bool(np.sum(x) >= float(np.linalg.norm(u)) - tol and np.min(x) >= -tol)


def _orthant_residuals(a: np.ndarray, b: np.ndarray) -> dict[str, float]:
    # complementarity on the nonnegative orthant: a >= 0, b >= 0, a_i b_i = 0
    return {
        "x_neg": float(max(0.0, -np.min(a))),
        "y_neg": float(max(0.0, -np.min(b))),
        "pairing": float(np.max(np.abs(a * b))),
    }


def _case_residuals(
    x: np.ndarray, u: np.ndarray, y: np.ndarray, v: np.ndarray
) -> dict[str, dict[str, float]]:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    orthant = _orthant_residuals(x, y)  # cases I-III share (x, y)'s terms
    out = {
        "I": {"u_norm": nu, "v_norm": nv, **orthant},
        "II": {"u_norm": nu, "tail_short": float(max(0.0, nv - np.sum(y))), **orthant},
        "III": {"v_norm": nv, "cone_gap": float(max(0.0, nu - np.min(x))), **orthant},
    }
    lam = nv / nu if nu > 0 else float("inf")
    if np.isfinite(lam):
        parallel = float(np.linalg.norm(v + lam * u))
        shifted = x - nu * np.ones_like(x)
        out["IV"] = {
            "parallel": parallel,
            "tail": float(abs(np.sum(y) - nv)),
            **_orthant_residuals(shifted, y),
        }
    else:
        out["IV"] = dict.fromkeys(("parallel", "tail", "x_neg", "y_neg", "pairing"), float("inf"))
    return out


def classify_complementarity(
    dims: ConeDims,
    x,
    u,
    y,
    v,
    tol: float = DEFAULT_TOL,
) -> CompCase:
    """Classify a complementary tuple ((x, u), (y, v)) into one of four cases.

    Cases are tried in order and the first match is returned:

    I.   u = 0, v = 0, and (x, y) complementary on the nonnegative orthant.
    II.  u = 0, v != 0, e^T y >= ||v||, and (x, y) complementary.
    III. u != 0, v = 0, x >= ||u|| e, and (x, y) complementary.
    IV.  u != 0, v != 0, v = -lam u with lam = ||v||/||u|| > 0, e^T y = ||v||,
         and (x - ||u|| e, y) complementary on the nonnegative orthant.

    A vector counts as zero when its norm is <= tol, and each residual is
    accepted when <= tol.  If nothing matches, the case is "none" and the
    residuals of the nearest case (smallest worst violation) are reported.
    """
    x, u = _check_point(dims, x, u)
    y, v = _check_point(dims, y, v, "yv")
    tol = _check_real(tol, "tol", 0.0, ends="[)")

    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    res = _case_residuals(x, u, y, v)
    # each case's residuals are exactly the conditions it needs <= tol; the
    # cases with u or v nonzero also need that norm above tol
    nonzero = {"I": (), "II": (nv,), "III": (nu,), "IV": (nu, nv)}
    for name in CASE_ORDER:
        if all(val <= tol for val in res[name].values()) and all(n > tol for n in nonzero[name]):
            return CompCase(name, nv / nu if name == "IV" else None, res[name])
    # no match: report the case with the smallest worst violation, first on ties
    best = min(CASE_ORDER, key=lambda name: max(res[name].values()))
    return CompCase(CASE_NONE, None, res[best])

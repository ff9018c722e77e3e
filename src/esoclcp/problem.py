"""Stochastic affine complementarity problem data and its JSON file format.

A problem instance is the affine map F(x, u, w) = T(w) (x; u) + r(w) on
R^m = R^k x R^l, where the matrix T and vector r depend on a random vector w
through sparse affine perturbations of a few entries.  The square matrix T is
read in blocks

    T = [[A, B],
         [C, D]],   r = (p, q),

with A of shape (k, k), B (k, l), C (l, k) and D (l, l).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cone import ConeDims

DISTRIBUTION_KINDS = ("iid_normal",)

_TOP_KEYS = {"k", "l", "omega_dim", "T_base", "r_base", "T_perturb", "r_perturb", "distribution"}
_T_ENTRY_KEYS = {"row", "col", "coeff", "omega"}
_R_ENTRY_KEYS = {"row", "coeff", "omega"}
_DIST_KEYS = {"kind", "mean", "std"}


class ProblemParseError(ValueError):
    """The problem text is not well-formed JSON or violates the schema."""


class ProblemValidationError(ValueError):
    """The parsed problem data violates a structural invariant."""


@dataclass(frozen=True)
class PerturbEntry:
    """One affine perturbation: entry (row[, col]) += coeff * w[omega_index]."""

    row: int
    col: int | None
    coeff: float
    omega_index: int


@dataclass(frozen=True)
class DistributionSpec:
    """Marginal distribution of the iid components of the random vector."""

    kind: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTION_KINDS:
            raise ProblemValidationError(
                f"distribution kind must be one of {DISTRIBUTION_KINDS}, got {self.kind!r}"
            )
        if not np.isfinite(self.mean):
            raise ProblemValidationError("distribution mean must be finite")
        if not (np.isfinite(self.std) and self.std > 0):
            raise ProblemValidationError("distribution std must be finite and > 0")


@dataclass(eq=False)
class ProblemSpec:
    """A full problem instance: base data plus perturbation structure."""

    dims: ConeDims
    omega_dim: int
    T_base: np.ndarray
    r_base: np.ndarray
    T_perturb: tuple[PerturbEntry, ...]
    r_perturb: tuple[PerturbEntry, ...]
    distribution: DistributionSpec

    def __post_init__(self) -> None:
        m = self.dims.m
        if not (isinstance(self.omega_dim, (int, np.integer)) and self.omega_dim >= 1):
            raise ProblemValidationError(f"omega_dim must be an integer >= 1, got {self.omega_dim!r}")
        self.omega_dim = int(self.omega_dim)
        self.T_base = np.asarray(self.T_base, dtype=float)
        self.r_base = np.asarray(self.r_base, dtype=float)
        if self.T_base.shape != (m, m):
            raise ProblemValidationError(
                f"T_base must have shape ({m}, {m}) for k={self.dims.k}, l={self.dims.l}; got {self.T_base.shape}"
            )
        if self.r_base.shape != (m,):
            raise ProblemValidationError(f"r_base must have length {m}, got shape {self.r_base.shape}")
        if not np.all(np.isfinite(self.T_base)) or not np.all(np.isfinite(self.r_base)):
            raise ProblemValidationError("T_base and r_base must be finite")
        self.T_perturb = tuple(self.T_perturb)
        self.r_perturb = tuple(self.r_perturb)
        for entry in self.T_perturb:
            if entry.col is None:
                raise ProblemValidationError("T_perturb entries need a column index")
            if not (0 <= entry.row < m and 0 <= entry.col < m):
                raise ProblemValidationError(f"T_perturb entry out of range: {entry}")
            _check_entry_common(entry, self.omega_dim)
        for entry in self.r_perturb:
            if entry.col is not None:
                raise ProblemValidationError("r_perturb entries must not carry a column index")
            if not 0 <= entry.row < m:
                raise ProblemValidationError(f"r_perturb entry out of range: {entry}")
            _check_entry_common(entry, self.omega_dim)

    @property
    def m(self) -> int:
        return self.dims.m

    def mean_omega(self) -> np.ndarray:
        """The mean of the random vector (constant across components)."""
        return np.full(self.omega_dim, self.distribution.mean)


def _check_entry_common(entry: PerturbEntry, omega_dim: int) -> None:
    if not np.isfinite(entry.coeff):
        raise ProblemValidationError(f"perturbation coefficient must be finite: {entry}")
    if not 0 <= entry.omega_index < omega_dim:
        raise ProblemValidationError(
            f"omega index {entry.omega_index} out of range for omega_dim={omega_dim}"
        )


def realize_batch(spec: ProblemSpec, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Stacked T(w_j) = T_base + sum coeff * w_ji, shape (N, m, m), and r(w_j), (N, m)."""
    omegas = _check_omegas(spec, omegas)
    n = omegas.shape[0]
    T = np.broadcast_to(spec.T_base, (n,) + spec.T_base.shape).copy()
    r = np.broadcast_to(spec.r_base, (n,) + spec.r_base.shape).copy()
    for entry in spec.T_perturb:
        T[:, entry.row, entry.col] += entry.coeff * omegas[:, entry.omega_index]
    for entry in spec.r_perturb:
        r[:, entry.row] += entry.coeff * omegas[:, entry.omega_index]
    return T, r


def _check_omegas(spec: ProblemSpec, omegas) -> np.ndarray:
    # a sample of draws: N >= 1 finite rows of length omega_dim
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 2 or omegas.shape[0] < 1 or omegas.shape[1] != spec.omega_dim:
        raise ValueError(f"draws must have shape (N, {spec.omega_dim}) with N >= 1, got {omegas.shape}")
    if not np.all(np.isfinite(omegas)):
        raise ValueError("draws must be finite")
    return omegas


def _check_omega(spec: ProblemSpec, omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (spec.omega_dim,):
        raise ValueError(f"omega must have shape ({spec.omega_dim},), got {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    return omega


def load_problem(text) -> ProblemSpec:
    """Parse a problem from JSON text (str or bytes).

    The document must carry exactly the keys k, l, omega_dim, T_base, r_base,
    T_perturb, r_perturb and distribution; unknown or missing keys are
    rejected, as are entries whose indices fall outside the declared shapes.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ProblemParseError("problem document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "problem")

    k, l = doc["k"], doc["l"]
    if not isinstance(k, int) or isinstance(k, bool) or not isinstance(l, int) or isinstance(l, bool):
        raise ProblemParseError("k and l must be integers")
    omega_dim = doc["omega_dim"]
    if not isinstance(omega_dim, int) or isinstance(omega_dim, bool):
        raise ProblemParseError("omega_dim must be an integer")
    t_entries = _entries(doc, "T_perturb", _T_ENTRY_KEYS)
    r_entries = _entries(doc, "r_perturb", _R_ENTRY_KEYS)

    dist_doc = doc["distribution"]
    if not isinstance(dist_doc, dict):
        raise ProblemParseError("distribution must be an object")
    _require_keys(dist_doc, _DIST_KEYS, "distribution")

    try:
        dims = ConeDims(k, l)
    except ValueError as exc:
        raise ProblemValidationError(str(exc)) from exc
    dist = DistributionSpec(
        dist_doc["kind"],
        _as_number(dist_doc["mean"], "distribution.mean"),
        _as_number(dist_doc["std"], "distribution.std"),
    )
    base = {}
    for name in ("T_base", "r_base"):
        cells = _as_numbers(doc[name], name)
        try:
            base[name] = np.asarray(cells, dtype=float)
        except ValueError as exc:  # rows of different lengths
            raise ProblemParseError(f"{name} must be an array of numbers: {exc}") from exc
    return ProblemSpec(
        dims=dims,
        omega_dim=omega_dim,
        T_base=base["T_base"],
        r_base=base["r_base"],
        T_perturb=t_entries,
        r_perturb=r_entries,
        distribution=dist,
    )


def _entries(doc: dict, name: str, keys: set[str]) -> tuple[PerturbEntry, ...]:
    # T_perturb or r_perturb; an r_perturb entry has no "col"
    if not isinstance(doc[name], list):
        raise ProblemParseError(f"{name} must be an array")
    entries = []
    for i, item in enumerate(doc[name]):
        where = f"{name}[{i}]"
        if not isinstance(item, dict):
            raise ProblemParseError(f"{where} must be an object")
        _require_keys(item, keys, where)
        entries.append(
            PerturbEntry(
                _as_index(item["row"], f"{where}.row"),
                _as_index(item["col"], f"{where}.col") if "col" in keys else None,
                _as_number(item["coeff"], f"{where}.coeff"),
                _as_index(item["omega"], f"{where}.omega"),
            )
        )
    return tuple(entries)


def _as_index(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemParseError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProblemParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_numbers(value, where: str):
    # a number or a nested array of them, each cell checked like a scalar field;
    # a cell's name is spelled out only when the cell is not a JSON number
    if not isinstance(value, list):
        return _as_number(value, where)
    return [float(v) if type(v) in (int, float) else _as_numbers(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _require_keys(doc: dict, keys: set[str], where: str) -> None:
    got = set(doc)
    missing = keys - got
    unknown = got - keys
    if missing:
        raise ProblemParseError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ProblemParseError(f"{where}: unknown keys {sorted(unknown)}")


def serialize_problem(spec: ProblemSpec) -> str:
    """Render a problem back to its JSON document form."""
    doc = {
        "k": spec.dims.k,
        "l": spec.dims.l,
        "omega_dim": spec.omega_dim,
        "T_base": [[float(v) for v in row] for row in spec.T_base],
        "r_base": [float(v) for v in spec.r_base],
        "T_perturb": [
            {"row": e.row, "col": e.col, "coeff": e.coeff, "omega": e.omega_index}
            for e in spec.T_perturb
        ],
        "r_perturb": [
            {"row": e.row, "coeff": e.coeff, "omega": e.omega_index} for e in spec.r_perturb
        ],
        "distribution": {
            "kind": spec.distribution.kind,
            "mean": spec.distribution.mean,
            "std": spec.distribution.std,
        },
    }
    return json.dumps(doc, indent=2)


def builtin_example() -> ProblemSpec:
    """The bundled 3+2-dimensional instance with three random entries."""
    T_base = [
        [41.0, -3.0, -31.0, 18.0, 19.0],
        [28.0, 22.0, -33.0, 25.0, -29.0],
        [-23.0, -29.0, 11.0, -21.0, -43.0],
        [-9.0, -31.0, -20.0, -12.0, 47.0],
        [-8.0, 46.0, 50.0, -22.0, 21.0],
    ]
    r_base = [-26.0, 4.0, 23.0, 44.0, -19.0]
    return ProblemSpec(
        dims=ConeDims(3, 2),
        omega_dim=3,
        T_base=np.array(T_base),
        r_base=np.array(r_base),
        T_perturb=(
            PerturbEntry(0, 0, 1.0, 0),
            PerturbEntry(3, 2, 2.0, 1),
        ),
        r_perturb=(PerturbEntry(1, None, -1.0, 2),),
        distribution=DistributionSpec("iid_normal", 0.0, 1.0),
    )

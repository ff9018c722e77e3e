"""Problem data model: file format, realization, builtin instance, F.

F is read through SampleEvaluator.f_values, at one draw or over a sample.
"""

import json
import re

import numpy as np
import pytest

from esoclcp.problem import (
    ProblemParseError,
    ProblemValidationError,
    builtin_example,
    load_problem,
    realize_batch,
    serialize_problem,
)
from esoclcp.saa import SampleEvaluator

T_ROWS = [
    (41, -3, -31, 18, 19),
    (28, 22, -33, 25, -29),
    (-23, -29, 11, -21, -43),
    (-9, -31, -20, -12, 47),
    (-8, 46, 50, -22, 21),
]
R_BASE = (-26, 4, 23, 44, -19)


def test_builtin_matrices():
    spec = builtin_example()
    assert spec.dims.k == 3 and spec.dims.l == 2 and spec.omega_dim == 3
    assert np.array_equal(spec.T_base, np.array(T_ROWS, dtype=float))
    assert np.array_equal(spec.r_base, np.array(R_BASE, dtype=float))
    assert spec.distribution.kind == "iid_normal"
    assert spec.distribution.mean == 0.0 and spec.distribution.std == 1.0


def _realize(spec, omega):
    # T(w) and r(w) at one draw
    T, r = realize_batch(spec, np.asarray(omega, dtype=float)[None, :])
    return T[0], r[0]


def test_realize_zero_omega_is_base():
    spec = builtin_example()
    T, r = _realize(spec, np.zeros(3))
    assert np.array_equal(T, spec.T_base)
    assert np.array_equal(r, spec.r_base)


def test_realize_perturbations():
    spec = builtin_example()
    T, _ = _realize(spec, np.array([1.0, 0.0, 0.0]))
    assert T[0][0] == 42.0
    base_mask = np.ones((5, 5), dtype=bool)
    base_mask[0, 0] = False
    assert np.array_equal(T[base_mask], spec.T_base[base_mask])

    T, r = _realize(spec, np.array([0.0, 2.0, 1.0]))
    assert T[3][2] == -20 + 2 * 2
    assert r[1] == 4 - 1


def test_realize_is_affine_in_omega():
    spec = builtin_example()
    rng = np.random.default_rng(3)
    for _ in range(50):
        w1 = rng.normal(size=3)
        w2 = rng.normal(size=3)
        (T12, r12), (T1, r1), (T2, r2) = (_realize(spec, w) for w in (w1 + w2, w1, w2))
        assert np.allclose(T12 + spec.T_base, T1 + T2, atol=1e-12)
        assert np.allclose(r12 + spec.r_base, r1 + r2, atol=1e-12)


def test_realize_batch_matches_single():
    spec = builtin_example()
    rng = np.random.default_rng(11)
    omegas = rng.normal(size=(40, 3))
    T_all, r_all = realize_batch(spec, omegas)
    for i in (0, 7, 39):
        T, r = _realize(spec, omegas[i])
        assert np.array_equal(T_all[i], T)
        assert np.array_equal(r_all[i], r)


def _f_at(spec, omega, x, u):
    # F(x, u, w) at the one draw omega, from an evaluator holding another sample
    ev = SampleEvaluator(spec, np.ones((2, spec.omega_dim)))
    return ev.f_values(x, u, omega)


def test_f_eval_zero_point_gives_r():
    spec = builtin_example()
    w = np.array([0.3, -1.2, 0.5])
    out = _f_at(spec, w, np.zeros(3), np.zeros(2))
    assert np.array_equal(out, _realize(spec, w)[1])
    # over a sample, one column per draw
    out = SampleEvaluator(spec, np.stack([np.zeros(3), w])).f_values(np.zeros(3), np.zeros(2))
    assert np.array_equal(out[:, 1], _realize(spec, w)[1])


def test_f_eval_paper_solution():
    spec = builtin_example()
    out = _f_at(spec, np.zeros(3), np.array([1.546, 0.261, 1.059]), np.array([0.124, -0.254]))
    expect = np.array([1.20, 28.57, -0.18, -12.62, 25.51])
    assert np.all(np.abs(out - expect) <= 0.05), out


def test_f_eval_is_linear_in_point():
    spec = builtin_example()
    rng = np.random.default_rng(19)
    w = rng.normal(size=3)
    for _ in range(30):
        x1, x2 = rng.normal(size=(2, 3))
        u1, u2 = rng.normal(size=(2, 2))
        a, b = rng.normal(size=2)
        lhs = _f_at(spec, w, a * x1 + b * x2, a * u1 + b * u2)
        rhs = (
            a * _f_at(spec, w, x1, u1)
            + b * _f_at(spec, w, x2, u2)
            - (a + b - 1) * _realize(spec, w)[1]
        )
        scale = 1 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_serialize_round_trip():
    spec = builtin_example()
    text = serialize_problem(spec)
    again = load_problem(text)
    assert again.dims == spec.dims
    assert again.omega_dim == spec.omega_dim
    assert np.array_equal(again.T_base, spec.T_base)
    assert np.array_equal(again.r_base, spec.r_base)
    assert again.T_perturb == spec.T_perturb
    assert again.r_perturb == spec.r_perturb
    assert again.distribution == spec.distribution


def test_load_rejects_out_of_range_omega_index():
    spec = builtin_example()
    text = serialize_problem(spec).replace('"omega": 2', '"omega": 3')
    with pytest.raises(ProblemValidationError):
        load_problem(text)


def test_load_rejects_wrong_T_shape():
    text = """
    {"k": 3, "l": 2, "omega_dim": 3,
     "T_base": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],
     "r_base": [0,0,0,0,0],
     "T_perturb": [], "r_perturb": [],
     "distribution": {"kind": "iid_normal", "mean": 0, "std": 1}}
    """
    with pytest.raises(ProblemValidationError):
        load_problem(text)


def test_load_rejects_unknown_keys():
    spec = builtin_example()
    text = serialize_problem(spec).replace('"k":', '"extra": 1, "k":', 1)
    with pytest.raises((ProblemParseError, ProblemValidationError)):
        load_problem(text)


def test_load_rejects_malformed_text():
    with pytest.raises(ProblemParseError):
        load_problem("{not json")


def _edited(edit):
    doc = json.loads(serialize_problem(builtin_example()))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "where, edit",
    [
        ("T_perturb[0].coeff", lambda d: d["T_perturb"][0].update(coeff=None)),
        ("T_perturb[1].coeff", lambda d: d["T_perturb"][1].update(coeff="abc")),
        ("T_perturb[0].coeff", lambda d: d["T_perturb"][0].update(coeff=True)),
        ("r_perturb[0].coeff", lambda d: d["r_perturb"][0].update(coeff=[1.0])),
        ("distribution.mean", lambda d: d["distribution"].update(mean=None)),
        ("distribution.mean", lambda d: d["distribution"].update(mean=False)),
        ("distribution.std", lambda d: d["distribution"].update(std=[1])),
        ("distribution.std", lambda d: d["distribution"].update(std="1")),
        ("T_base", lambda d: d.update(T_base=[[1, 2], [3]])),
        ("T_base", lambda d: d.update(T_base="abc")),
        ("r_base", lambda d: d.update(r_base={})),
        ("r_base", lambda d: d.update(r_base=[1, 2, {"a": 1}, 4, 5])),
        ("T_base[0][0]", lambda d: d["T_base"][0].__setitem__(0, "41")),
        ("T_base[1][2]", lambda d: d["T_base"][1].__setitem__(2, None)),
        ("T_base[4][4]", lambda d: d["T_base"][4].__setitem__(4, False)),
        ("r_base[1]", lambda d: d["r_base"].__setitem__(1, True)),
        ("r_base[0]", lambda d: d["r_base"].__setitem__(0, "-26")),
    ],
)
def test_load_names_the_field_that_is_not_a_number(where, edit):
    with pytest.raises(ProblemParseError, match=re.escape(where)):
        load_problem(_edited(edit))


def test_load_accepts_integer_numbers():
    def edit(doc):
        doc["distribution"].update(mean=0, std=2)
        doc["T_perturb"][0]["coeff"] = 3
        doc.update(T_base=[list(row) for row in T_ROWS], r_base=list(R_BASE))

    spec = load_problem(_edited(edit))
    assert spec.distribution.std == 2.0 and type(spec.distribution.std) is float
    assert spec.T_base.dtype == float and np.array_equal(spec.T_base, np.array(T_ROWS, dtype=float))
    assert spec.r_base.dtype == float and np.array_equal(spec.r_base, np.array(R_BASE, dtype=float))
    assert spec.T_perturb[0].coeff == 3.0 and type(spec.T_perturb[0].coeff) is float


def test_f_eval_identity_spec():
    text = """
    {"k": 1, "l": 1, "omega_dim": 1,
     "T_base": [[1,0],[0,1]], "r_base": [0,0],
     "T_perturb": [], "r_perturb": [],
     "distribution": {"kind": "iid_normal", "mean": 0, "std": 1}}
    """
    spec = load_problem(text)
    out = _f_at(spec, np.zeros(1), np.array([3.0]), np.array([4.0]))
    assert np.array_equal(out, [3.0, 4.0])

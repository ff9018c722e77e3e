"""End-to-end tests of the command line interface."""

import json

import numpy as np
import pytest

from esoclcp.cli import main
from esoclcp.problem import builtin_example, load_problem, serialize_problem

from conftest import case_iv_instance

CSV_HEADER = "j,N,x1,x2,x3,u1,u2,F1,F2,F3,F4,F5,time_s,aloc,theta"

FAST = ["--schedule", "5,10", "--kmax", "5"]


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_example_emits_loadable_problem(capsys):
    rc, out, _ = run(capsys, ["example"])
    assert rc == 0
    spec = load_problem(out)
    assert (spec.dims.k, spec.dims.l, spec.omega_dim) == (3, 2, 3)
    want = builtin_example()
    assert np.array_equal(spec.T_base, want.T_base)
    assert np.array_equal(spec.r_base, want.r_base)
    assert spec.T_perturb == want.T_perturb
    assert spec.r_perturb == want.r_perturb


def test_example_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "prob.json"
    rc, out, _ = run(capsys, ["example"])
    rc2 = main(["example", "--out", str(path)])
    assert rc == rc2 == 0
    assert path.read_text(encoding="utf-8") == out


def test_solve_csv_shape(capsys):
    rc, out, _ = run(capsys, ["solve", "--builtin", *FAST, "--format", "csv", "--no-timing"])
    assert rc in (0, 2)
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line, n_want in zip(lines[1:], (5, 10)):
        cells = line.split(",")
        assert len(cells) == 15
        assert cells[1] == str(n_want)
        assert cells[12] == ""
        for cell in cells[2:12] + cells[13:]:
            float(cell)


def test_solve_csv_with_timing_fills_column(capsys):
    rc, out, _ = run(capsys, ["solve", "--builtin", *FAST, "--format", "csv"])
    assert rc in (0, 2)
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[12]) >= 0.0


def test_solve_table_sections(capsys):
    rc, out, _ = run(capsys, ["solve", "--builtin", *FAST, "--no-timing"])
    assert rc in (0, 2)
    assert "solutions and F at the mean draw:" in out
    assert "performance:" in out
    assert out.count("\n  ") >= 6  # two headers plus two rows in each section


def test_solve_json_document(capsys):
    rc, out, _ = run(capsys, ["solve", "--builtin", *FAST, "--format", "json", "--no-timing"])
    assert rc in (0, 2)
    doc = json.loads(out)
    assert doc["mode"] == "cvar"
    assert [s["N"] for s in doc["stages"]] == [5, 10]
    for s in doc["stages"]:
        assert s["time_s"] is None
        assert s["termination"] in ("grad_tol", "k_max", "outer_eps")
        assert len(s["x"]) == 3 and len(s["u"]) == 2 and len(s["F_at_mean"]) == 5
    assert set(doc["final"]) == {"x", "u", "F_at_mean", "aloc", "theta"}


def test_solve_problem_file_equals_builtin(tmp_path, capsys):
    path = tmp_path / "prob.json"
    assert main(["example", "--out", str(path)]) == 0
    flags = [*FAST, "--format", "csv", "--no-timing"]
    rc_a, out_a, _ = run(capsys, ["solve", "--problem", str(path), *flags])
    rc_b, out_b, _ = run(capsys, ["solve", "--builtin", *flags])
    assert rc_a == rc_b
    assert out_a == out_b


def test_solve_repeated_runs_identical(capsys):
    argv = ["solve", "--builtin", *FAST, "--format", "csv", "--no-timing", "--seed", "7"]
    rc_a, out_a, _ = run(capsys, argv)
    rc_b, out_b, _ = run(capsys, argv)
    assert rc_a == rc_b
    assert out_a == out_b


def test_solve_draws_each_stage_sample_once(monkeypatch, capsys):
    # each stage's aloc comes from the sample the stage solved over, so
    # neither the per-stage rows nor the final summary draw it again
    import esoclcp.cli as cli_mod
    import esoclcp.solver as solver_mod

    sizes = []
    orig = solver_mod.draw_samples

    def spy(*args, **kwargs):
        sizes.append(args[2])
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "draw_samples", spy)
    monkeypatch.setattr(cli_mod, "draw_samples", spy)
    rc, out, _ = run(capsys, ["solve", "--builtin", "--format", "json", "--no-timing"] + FAST)
    assert rc in (0, 2)
    doc = json.loads(out)
    assert sizes == [stage["N"] for stage in doc["stages"]] == [5, 10]
    assert doc["final"]["aloc"] == doc["stages"][-1]["aloc"]


def test_solve_missing_problem_file(capsys):
    rc, _, err = run(capsys, ["solve", "--problem", "/nonexistent/prob.json", *FAST])
    assert rc == 1
    assert "error:" in err
    assert "/nonexistent/prob.json" in err


def test_solve_exit_codes_by_termination(capsys):
    # a huge tolerance stops on the gradient test immediately: success
    rc, _, _ = run(capsys, ["solve", "--builtin", "--schedule", "2,3", "--tol", "1e6"])
    assert rc == 0
    # a huge displacement threshold makes stage two stop on outer agreement
    rc, _, _ = run(
        capsys,
        ["solve", "--builtin", "--schedule", "2,3", "--kmax", "1", "--eps", "1e9"],
    )
    assert rc == 0
    # exhausting the iteration cap at the final stage is reported as 2
    rc, _, _ = run(capsys, ["solve", "--builtin", "--schedule", "2", "--kmax", "1"])
    assert rc == 2


def test_solve_bad_config_value(capsys):
    rc, _, err = run(capsys, ["solve", "--builtin", "--alpha", "2.0", *FAST])
    assert rc == 1
    assert "error:" in err and "alpha" in err


@pytest.mark.parametrize("flag, name", [("--tol", "tol_r"), ("--lm-nu", "lm_nu"), ("--eps", "eps")])
def test_solve_rejects_an_infinite_bound_before_solving(capsys, flag, name):
    rc, out, err = run(capsys, ["solve", "--builtin", flag, "inf", *FAST])
    assert rc == 1
    assert "error:" in err and name in err and "finite" in err
    assert out == ""


def test_solve_mode_and_smoothing_flags(capsys):
    rc, out, _ = run(
        capsys,
        ["solve", "--builtin", "--mode", "erm", "--smoothing", "nn", *FAST, "--format", "json", "--no-timing"],
    )
    assert rc in (0, 2)
    assert json.loads(out)["mode"] == "erm"


def test_solve_out_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    argv = ["solve", "--builtin", *FAST, "--format", "csv", "--no-timing"]
    rc = main(["solve", "--builtin", *FAST, "--format", "csv", "--no-timing", "--out", str(path)])
    _, out, _ = run(capsys, argv)
    assert rc in (0, 2)
    assert path.read_text(encoding="utf-8") == out


def test_flag_errors_exit_1(capsys):
    cases = [
        ["solve", "--builtin", "--nonsense"],
        ["solve"],
        ["solve", "--builtin", "--problem", "x.json"],
        ["solve", "--builtin", "--schedule", "10,abc"],
        ["solve", "--builtin", "--format", "yaml"],
        [],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_check_reports_classification(tmp_path, capsys):
    spec, x, u, _, _ = case_iv_instance()
    path = tmp_path / "prob.json"
    path.write_text(serialize_problem(spec), encoding="utf-8")
    point = ",".join(repr(float(v)) for v in np.concatenate([x, u]))
    rc, out, _ = run(
        capsys, ["check", "--problem", str(path), "--point", point, "--samples", "50"]
    )
    assert rc == 0
    assert "in_L = True" in out
    assert "complementarity case: IV" in out
    assert "lambda = 2" in out
    assert "aloc" in out


def test_check_point_length_error(capsys):
    rc, _, err = run(capsys, ["check", "--builtin", "--point", "1,2,3"])
    assert rc == 1
    assert "error:" in err and "5 numbers" in err


def test_solve_imports_no_scipy():
    # a fresh interpreter, so that nothing imported by the test session counts;
    # a solve runs after the import, so a lazy import inside it is caught too
    import os
    import subprocess
    import sys

    import esoclcp

    child = (
        "import sys\n"
        "import esoclcp.cli\n"
        "rc = esoclcp.cli.main(['solve', '--builtin', '--schedule', '10,100', '--kmax', '5', '--no-timing'])\n"
        "assert rc in (0, 2), rc\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(esoclcp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"

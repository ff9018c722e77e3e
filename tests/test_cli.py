"""End-to-end tests of the command line interface."""

import json
import re
import warnings

import numpy as np
import pytest

from esoclcp.cli import CONFIG_FLAGS, main
from esoclcp.problem import builtin_example, load_problem, serialize_problem
from esoclcp.risk import SmoothingKind
from esoclcp.solver import MODES, SolverConfig, solve

from conftest import case_iv_instance, scaled_example

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


@pytest.mark.parametrize("mode", ["cvar", "erm", "ev"])
def test_solve_json_rows_are_the_stage_results(capsys, mode):
    # each JSON row carries its stage's fields bit for bit, and the mode is the config's
    argv = ["solve", "--builtin", *FAST, "--mode", mode, "--seed", "7", "--format", "json", "--no-timing"]
    rc, out, _ = run(capsys, argv)
    doc = json.loads(out)
    stages = solve(builtin_example(), SolverConfig(mode=mode, schedule=(5, 10), k_max=5, seed=7))
    assert rc == (2 if stages[-1].termination in ("k_max", "stalled") else 0)
    assert doc["mode"] == mode
    assert len(doc["stages"]) == len(stages)
    for row, stage in zip(doc["stages"], stages):
        assert (row["j"], row["N"]) == (stage.j, stage.N)
        for key in ("x", "u", "F_at_mean", "aloc", "theta"):
            got = np.asarray(row[key], dtype=float)
            assert got.tobytes() == np.asarray(getattr(stage, key), dtype=float).tobytes(), key
        assert (row["inner_iters"], row["termination"]) == (stage.inner_iters, stage.termination)


def test_table_and_csv_cells_render_the_json_numbers(capsys):
    # the three formats render one list of stage rows: each CSV cell is the
    # repr and each table cell the .6g of the number in the JSON row
    argv = ["solve", "--builtin", *FAST, "--no-timing", "--seed", "7", "--format"]
    out = {}
    for fmt in ("table", "csv", "json"):
        rc, out[fmt], _ = run(capsys, argv + [fmt])
        assert rc == 2
    doc = json.loads(out["json"])
    stages = doc["stages"]
    assert doc["final"] == {key: stages[-1][key] for key in ("x", "u", "F_at_mean", "aloc", "theta")}

    def solution(s):
        return [s["j"], s["N"], *s["x"], *s["u"], *s["F_at_mean"]]

    def shown(v, fmt):
        return str(v) if isinstance(v, int) else fmt(v)

    csv_rows = [line.split(",") for line in out["csv"].splitlines()[1:]]
    assert csv_rows == [
        [shown(v, repr) for v in solution(s)] + ["", repr(s["aloc"]), repr(s["theta"])] for s in stages
    ]
    solutions, performance = out["table"].split("\n\n")
    assert [line.split() for line in solutions.splitlines()[2:]] == [
        [shown(v, "{:.6g}".format) for v in solution(s)] for s in stages
    ]
    assert [line.split() for line in performance.splitlines()[2:]] == [
        [str(s["j"]), str(s["N"]), "-", f"{s['aloc']:.6g}", f"{s['theta']:.6g}", str(s["inner_iters"]), s["termination"]]
        for s in stages
    ]


def test_solve_flag_defaults_are_the_solver_config_defaults(capsys):
    defaults = SolverConfig()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    shown = {"mode": defaults.mode, "smoothing": "chks"}
    assert SmoothingKind("chks") is defaults.smoothing
    assert SolverConfig(smoothing="nn").smoothing is SmoothingKind.NEURAL_NETWORK
    assert "--mode {" + ",".join(MODES) + "}" in options
    # --smoothing's choices are exactly the SmoothingKind values
    choices = re.search(r"--smoothing \{([^}]*)\}", options).group(1).split(",")
    assert choices == ["asip", "chks", "ip", "nn"] == sorted(kind.value for kind in SmoothingKind)
    for flag, name, _, _ in CONFIG_FLAGS:
        value = getattr(defaults, name)
        shown[flag[2:]] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    for flag, text in shown.items():
        assert re.search(rf"--{flag} \S+ [^()]*\(default {re.escape(text)}\)", options), flag


def test_each_solve_flag_sets_its_solver_config_field(monkeypatch, capsys):
    import esoclcp.cli as cli_mod

    seen = []

    def stop(spec, cfg):
        seen.append(cfg)
        raise ValueError("stopped before solving")

    monkeypatch.setattr(cli_mod, "solve", stop)
    rc, _, _ = run(capsys, ["solve", "--builtin"])
    assert rc == 1 and seen[-1] == SolverConfig()
    flags = {
        "--alpha": ("alpha", "0.1", 0.1),
        "--mu": ("mu", "0.002", 0.002),
        "--schedule": ("schedule", "3,40", (3, 40)),
        "--seed": ("seed", "9", 9),
        "--tol": ("tol_r", "1e-3", 1e-3),
        "--eps": ("eps", "0.25", 0.25),
        "--kmax": ("k_max", "7", 7),
        "--mode": ("mode", "erm", "erm"),
        "--smoothing": ("smoothing", "nn", SmoothingKind("nn")),
    }
    assert {flag for flag, *_ in CONFIG_FLAGS} < set(flags)
    rc, _, _ = run(capsys, ["solve", "--builtin"] + [a for flag, (_, text, _) in flags.items() for a in (flag, text)])
    assert rc == 1
    for flag, (name, _, value) in flags.items():
        assert getattr(seen[-1], name) == value, flag
        assert value != getattr(SolverConfig(), name), flag


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


@pytest.mark.parametrize("field, value", [("coeff", None), ("coeff", True), ("std", [1]), ("r_base", {})])
def test_solve_refuses_a_problem_field_that_is_not_a_number(tmp_path, capsys, field, value):
    # one error line naming the field, exit 1, no traceback
    doc = json.loads(serialize_problem(builtin_example()))
    if field == "coeff":
        doc["T_perturb"][0]["coeff"] = value
    elif field == "std":
        doc["distribution"]["std"] = value
    else:
        doc[field] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["solve", "--problem", str(path), *FAST])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_solve_exit_codes_by_termination(tmp_path, capsys):
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
    # and so is a final stage whose step stopped moving the point
    rc, out, _ = run(capsys, ["solve", "--builtin", "--schedule", "100", "--seed", "5", "--kmax", "100"])
    assert rc == 2 and "stalled" in out
    # even where it agrees with the stage before: on the bundled example
    # scaled by 1e8 both stages stall at the same point, and the second is
    # not reported as outer_eps
    path = tmp_path / "scaled.json"
    path.write_text(serialize_problem(scaled_example()), encoding="utf-8")
    argv = ["solve", "--problem", str(path), "--schedule", "10,100,1000", "--kmax", "50", "--format", "json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 2
    assert [(s["N"], s["termination"]) for s in json.loads(out)["stages"]] == [(10, "stalled"), (100, "stalled")]


def test_solve_bad_config_value(capsys):
    rc, _, err = run(capsys, ["solve", "--builtin", "--alpha", "2.0", *FAST])
    assert rc == 1
    assert "error:" in err and "alpha" in err


@pytest.mark.parametrize("flag, name", [("--tol", "tol_r"), ("--eps", "eps")])
def test_solve_rejects_an_infinite_bound_before_solving(capsys, flag, name):
    rc, out, err = run(capsys, ["solve", "--builtin", flag, "inf", *FAST])
    assert rc == 1
    assert "error:" in err and name in err and "finite" in err
    assert out == ""


@pytest.mark.parametrize("smoothing", ["chks", "asip"])
def test_solve_rejects_a_mu_beyond_the_limit_before_solving(capsys, smoothing):
    # 3e153 squared by the smoothing, and Theta's bracket around it, overflow
    argv = ["solve", "--builtin", "--mu", "3e153", "--smoothing", smoothing, "--schedule", "10", "--kmax", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: mu must be a finite number in [1e-100, 1e+100], got 3e+153"]


@pytest.mark.parametrize(
    "mu, message",
    [
        (
            "1e-18",
            r"error: stage 1 \(N = 5\): tail weights at Theta = 1056\.87 sum to 1\.93427e-11, not alpha N = 0\.25: "
            r"mu = 1e-18 is below theta_star's resolution of Theta, 1\.06e-07",
        ),
        ("1e-300", r"error: mu must be a finite number in \[1e-100, 1e\+100\], got 1e-300"),
    ],
    ids=["tail_weights", "below_mu_min"],
)
def test_solve_refuses_a_mu_too_small_for_theta_star(capsys, mu, message):
    # a tiny mu used to end the stage on a false grad_tol (1e-18), or print a
    # RuntimeWarning and then a nan slope (1e-300)
    argv = ["solve", "--builtin", "--schedule", "5", "--kmax", "3", "--mu", mu, "--no-timing"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1 and re.fullmatch(message, err.strip())


@pytest.mark.parametrize("mode", MODES)
def test_solve_names_the_stage_whose_start_point_overflows(tmp_path, capsys, mode):
    # each input ends on one error line, with no warning, naming the stage
    # and the first point that overflows.  r_base[0] = 1e200 squares to inf
    # in the merit at the start.  At 1e150 and 1e100 the merit is finite in
    # modes erm and ev, and so is T_base scaled by 3e152 in mode ev, but no
    # step from the start lowers it: the stage stalls there, where the Theta
    # reported overflows in theta_star; the line-search trials that
    # overflow on the way used to print RuntimeWarnings.  T_base scaled by
    # 3e152 overflows the gradient at the start in mode erm (at 5e152,
    # ev's).  In mode cvar the losses of the 1e150, 1e100 and T_base inputs
    # are finite and theta_star overflows on them (it used to read as "the
    # merit overflows ..., objective nan"), so the error names it and the
    # largest loss.  A tolerance of 1e300 ends the
    # stage at its start point, where modes erm and ev's reported Theta
    # overflows in theta_star (it used to read "Theta must be finite"), and
    # where mode cvar's nn tail weights miss alpha N (with no stage named);
    # there theta_star's resolution, 5e+187, is far above every mu accepted
    stage = f"error: stage 1 (N = {1 if mode == 'ev' else 10}): "
    start = stage + "the merit overflows at the start point, objective inf"
    gradient = stage + "the merit's gradient overflows at the start point"
    top = stage + "theta_star overflows at the start point, where the largest loss is "
    steps = ["--schedule", "10,100", "--kmax", "5"]
    at_start = ["--schedule", "10", "--tol", "1e300"]
    cases = [("r_base", 1e200, steps, start)] + {
        "cvar": [
            ("r_base", 1e150, steps, top + "5e+297"),
            ("r_base", 1e100, steps, top + "5e+197"),
            ("T_base", 3e152, steps, top + "1.34256e+307"),
            (
                "r_base",
                1e100,
                [*at_start, "--smoothing", "nn"],
                stage + "tail weights at Theta = 5e+197 sum to 5, not alpha N = 0.5: "
                "mu = 0.0001 is below theta_star's resolution of Theta, 5e+187",
            ),
        ],
        "erm": [
            ("r_base", 1e150, steps, top + "5e+297"),
            ("r_base", 1e100, steps, top + "5e+197"),
            ("T_base", 3e152, steps, gradient),
            ("r_base", 1e100, at_start, top + "5e+197"),
        ],
        "ev": [
            ("r_base", 1e150, steps, top + "5e+297"),
            ("r_base", 1e100, steps, top + "5e+197"),
            ("T_base", 3e152, steps, top + "1.34256e+307"),
            ("T_base", 5e152, steps, gradient),
            ("r_base", 1e100, at_start, top + "5e+197"),
        ],
    }[mode]
    path = tmp_path / "prob.json"
    for name, value, schedule, message in cases:
        argv = ["solve", "--problem", str(path), *schedule, "--mode", mode]
        doc = json.loads(serialize_problem(builtin_example()))
        if name == "r_base":
            doc["r_base"][0] = value
        else:
            doc["T_base"] = [[value * v for v in row] for row in doc["T_base"]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, ""), (name, value, schedule)
        assert err.splitlines() == [message], (name, value, schedule)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "--schedule", "1000000000000", "--kmax", "1"],
        ["check", "--builtin", "--point", "1,0.3,1,0.1,-0.2", "--samples", "1000000000000"],
    ],
    ids=["solve", "check"],
)
def test_a_sample_too_large_for_memory_is_one_error_line(capsys, monkeypatch, argv):
    # numpy raises MemoryError naming the array; no real allocation is tried here
    def refuse(dist, omega_dim, N, seed):
        raise MemoryError(f"Unable to allocate an array with shape ({N}, {omega_dim})")

    monkeypatch.setattr("esoclcp.solver.draw_samples", refuse)
    monkeypatch.setattr("esoclcp.cli.draw_samples", refuse)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.splitlines() == ["error: out of memory: Unable to allocate an array with shape (1000000000000, 3)"]


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
    assert err == "error: --point has length 3, expected 5\n"


@pytest.mark.parametrize(
    "point",
    ["1e155,0.28,1.04,0.12,-0.25", "1e200,0.28,1.04,0.12,-0.25", "0.5,0.28,1.04,1e155,-0.25"],
    ids=["x-1e155", "x-1e200", "u-1e155"],
)
def test_check_refuses_a_point_whose_figures_overflow(capsys, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["check", "--builtin", "--point", point])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.parametrize("point", ["nan,1,1,0,0", "inf,1,1,0,0", "1,1,1,nan,0", "1,1,1,0,inf"])
def test_check_refuses_a_non_finite_point(capsys, point):
    rc, out, err = run(capsys, ["check", "--builtin", "--point", point])
    assert rc == 1
    assert out == ""
    assert err == "error: --point must be finite\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "--samples must be an integer >= 1, got 0"),
        ("--seed", "-1", "--seed must be an unsigned 64-bit integer, got -1"),
        ("--seed", str(2**64), f"--seed must be an unsigned 64-bit integer, got {2**64}"),
    ],
    ids=["samples-zero", "seed-negative", "seed-2**64"],
)
def test_check_refuses_a_sample_flag_by_its_name(capsys, flag, value, message):
    # the sample's size and seed go through the library's count and seed rules
    argv = ["check", "--builtin", "--point", "1.5,0.3,1.1,0.1,-0.25", flag, value]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def _problem_with(edit):
    # the bundled example's document, edited
    doc = json.loads(serialize_problem(builtin_example()))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["check", "--builtin", "--point", "1,x,1,0,0"], None,
         "bad --point '1,x,1,0,0': could not convert string to float: 'x'"),
        (["solve", "--builtin", "--kmax", "0"], None, "k_max must be an integer >= 1, got 0"),
        (["solve", "--builtin", "--schedule", "10,10"], None,
         "schedule must be strictly increasing positive ints, got (10, 10)"),
        (["solve", "--builtin", "--seed", "-1"], None, "seed must be an unsigned 64-bit integer, got -1"),
        (["solve"], _problem_with(lambda d: d.update(k=True)), "k must be an integer >= 1, got True"),
        (["solve"], _problem_with(lambda d: d.update(omega_dim=0)), "omega_dim must be an integer >= 1, got 0"),
        (["solve"], _problem_with(lambda d: d["T_perturb"][0].update(coeff=float("nan"))),
         "perturbation coefficient of PerturbEntry(row=0, col=0, coeff=nan, omega_index=0) must be a finite number "
         "in (-inf, inf), got nan"),
        (["solve"], b"\xff\xfe", "problem text is not UTF-8 at byte 0: invalid start byte"),
        (["solve", "--schedule", "10,100", "--kmax", "3"], _problem_with(lambda d: d["distribution"].update(std=1e308)),
         "stage 1 (N = 10): draws must be finite"),
        (["check", "--point", "1.5,0.3,1.1,0.1,-0.25"], _problem_with(lambda d: d["distribution"].update(std=1e308)),
         "draws must be finite"),
    ],
    ids=["point-unparsable", "kmax-zero", "schedule-flat", "seed-negative", "file-k-bool", "file-omega_dim-zero",
         "file-coeff-nan", "file-not-utf8", "solve-draws-overflow", "check-draws-overflow"],
)
def test_refusals_end_on_one_error_line(tmp_path, capsys, argv, doc, message):
    # tools/report_bytes.py's refuse/ reports, and its overflow/std1e+308
    # ones, whose draws overflow without a warning; the point's length and
    # finiteness, and a mu below MU_MIN, are pinned by the tests above
    if doc is not None:
        path = tmp_path / "prob.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
        argv = [*argv, "--problem", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags",
    [["--lm-nu", "1e-6"], ["--c1", "0.5"], ["--c2", "0.5"], ["--c1", "0.5", "--c2", "0.5"], ["--lm-nu", "inf"]],
    ids=["lm-nu", "c1", "c2", "c1-c2", "lm-nu-inf"],
)
def test_solve_refuses_the_flags_of_retired_step_rules(capsys, flags):
    # the damping and the Wolfe constants are the solver's own, not options;
    # c1-c2 and lm-nu-inf are the calls the checks of their values refused
    # before the flags went
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--builtin", *flags])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")


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

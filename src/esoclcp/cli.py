"""Command line interface: solve, example, and check subcommands."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cone import _check_count, _check_vector, classify_complementarity, in_L, in_M
from .merit import merit_theta
from .problem import ProblemParseError, ProblemSpec, builtin_example, load_problem, serialize_problem
from .reformulate import init_from_lcp
from .risk import SmoothingKind
from .saa import SampleEvaluator, _check_seed, draw_samples
from .solver import MODES, SolverConfig, StageResult, aloc, solve

FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    # flag mistakes are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {exc}") from exc


# solve's flags that set a SolverConfig field: (flag, field, type, help); each
# flag's default is the field's value in SolverConfig()
CONFIG_FLAGS = (
    ("--alpha", "alpha", float, "tail level"),
    ("--mu", "mu", float, "smoothing parameter"),
    ("--schedule", "schedule", _parse_schedule, "comma-separated increasing sample sizes"),
    ("--seed", "seed", int, "base seed"),
    ("--tol", "tol_r", float, "gradient stopping tolerance"),
    ("--eps", "eps", float, "between-stage displacement stop"),
    ("--kmax", "k_max", int, "inner iteration cap"),
)


def _shown(value) -> str:
    # a default as it is typed on the command line
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _build_parser() -> _Parser:
    parser = _Parser(prog="esoclcp", description="Stochastic cone complementarity solver")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the staged solve and report per-stage results")
    _add_problem_flags(ps)
    defaults = SolverConfig()
    for flag, name, kind, text in CONFIG_FLAGS:
        default = getattr(defaults, name)
        metavar = flag[2:].replace("-", "_").upper()  # the one argparse derives from the flag
        help_text = f"{text} (default {_shown(default)})"
        ps.add_argument(flag, dest=name, metavar=metavar, type=kind, default=default, help=help_text)
    mode_help = (
        f"objective (default {defaults.mode}); ev solves one stage at the mean draw, so it ignores --schedule and "
        "--seed, and --alpha, --mu and --smoothing only set its reported Theta"
    )
    ps.add_argument("--mode", choices=MODES, default=defaults.mode, help=mode_help)
    kinds, smoothing = sorted(kind.value for kind in SmoothingKind), defaults.smoothing.value
    ps.add_argument("--smoothing", choices=kinds, default=smoothing, help=f"kind (default {smoothing})")
    ps.add_argument("--format", choices=FORMATS, default="table")
    ps.add_argument("--out", help="write the report here instead of stdout")
    ps.add_argument("--no-timing", action="store_true", help="blank wall times for reproducible output")

    pe = sub.add_parser("example", help="write the bundled example problem")
    pe.add_argument("--out", help="write the problem here instead of stdout")

    pc = sub.add_parser("check", help="diagnostics for a problem and a point")
    _add_problem_flags(pc)
    pc.add_argument("--point", required=True, help="comma-separated x then u (k + l numbers)")
    pc.add_argument("--samples", type=int, default=10000, help="sample size for the loss average")
    pc.add_argument("--seed", type=int, default=42)
    return parser


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="path to a problem JSON file")
    group.add_argument("--builtin", action="store_true", help="use the bundled example problem")


def _load_spec(args) -> ProblemSpec:
    if args.builtin:
        return builtin_example()
    try:
        with open(args.problem, "rb") as fh:
            return load_problem(fh.read())
    except OSError as exc:
        raise ProblemParseError(f"cannot read {args.problem}: {exc}") from exc


def _fmt6(v: float) -> str:
    return f"{v:.6g}"


def _fmt_full(v) -> str:
    return repr(float(v))


def _stage_rows(stages: list[StageResult], no_timing: bool) -> list[dict]:
    """Each stage's object of the JSON report; the table and the CSV render the same rows."""
    return [
        {
            "j": stage.j,
            "N": stage.N,
            "x": stage.x.tolist(),
            "u": stage.u.tolist(),
            "F_at_mean": stage.F_at_mean.tolist(),
            "time_s": None if no_timing else stage.wall_time,
            "aloc": stage.aloc,
            "theta": stage.theta,
            "grad_inf_norm": stage.grad_inf_norm,
            "inner_iters": stage.inner_iters,
            "termination": stage.termination,
        }
        for stage in stages
    ]


def _head(spec: ProblemSpec) -> list[str]:
    # j, N and one column per component of x, u and F at the mean draw
    sizes = (spec.dims.k, spec.dims.l, spec.dims.m)
    return ["j", "N"] + [f"{name}{i + 1}" for name, n in zip("xuF", sizes) for i in range(n)]


def _cells(row: dict, keys: tuple[str, ...], fmt, blank: str) -> list[str]:
    # one cell per number of the row's keys: floats through fmt, None as blank,
    # counts and text as they are
    values = [v for key in keys for v in (row[key] if isinstance(row[key], list) else [row[key]])]
    return [blank if v is None else fmt(v) if isinstance(v, float) else str(v) for v in values]


_SOLUTION_KEYS = ("j", "N", "x", "u", "F_at_mean")
_PERFORMANCE_KEYS = ("j", "N", "time_s", "aloc", "theta", "inner_iters", "termination")


def _render_table(spec: ProblemSpec, rows: list[dict]) -> str:
    sections = (
        ("solutions and F at the mean draw:", _head(spec), _SOLUTION_KEYS),
        ("performance:", ["j", "N", "time_s", "aloc", "theta", "iters", "stop"], _PERFORMANCE_KEYS),
    )
    blocks = []
    for title, head, keys in sections:
        table = [head] + [_cells(row, keys, _fmt6, "-") for row in rows]
        blocks.append("\n".join([title] + ["  " + "  ".join(c.rjust(11) for c in cells) for cells in table]))
    return "\n\n".join(blocks) + "\n"


def _render_csv(spec: ProblemSpec, rows: list[dict]) -> str:
    tail = ("time_s", "aloc", "theta")
    lines = [_head(spec) + list(tail)] + [_cells(row, _SOLUTION_KEYS + tail, _fmt_full, "") for row in rows]
    return "".join(",".join(cells) + "\n" for cells in lines)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    cfg = SolverConfig(
        **{name: getattr(args, name) for _, name, _, _ in CONFIG_FLAGS},
        mode=args.mode,
        smoothing=args.smoothing,
    )
    stages = solve(spec, cfg)
    rows = _stage_rows(stages, args.no_timing)
    if args.format == "table":
        text = _render_table(spec, rows)
    elif args.format == "csv":
        text = _render_csv(spec, rows)
    else:
        final = {key: rows[-1][key] for key in ("x", "u", "F_at_mean", "aloc", "theta")}
        text = json.dumps({"mode": cfg.mode, "stages": rows, "final": final}, indent=2) + "\n"
    _emit(text, args.out)
    return 2 if stages[-1].termination in ("k_max", "stalled") else 0


def _cmd_example(args) -> int:
    _emit(serialize_problem(builtin_example()) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    spec = _load_spec(args)
    k = spec.dims.k
    try:
        values = [float(v) for v in args.point.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --point {args.point!r}: {exc}") from exc
    point = _check_vector(values, "--point", spec.dims.m)
    x, u = point[:k], point[k:]
    mean_omega = spec.mean_omega()
    n, seed = _check_count(args.samples, "--samples"), _check_seed(args.seed, "--seed")
    ev = SampleEvaluator(spec, draw_samples(spec.distribution, spec.omega_dim, n, seed))

    # a point at which a figure overflows is refused before anything is printed
    with np.errstate(all="ignore"):
        f_mean = ev.f_values(x, u, mean_omega)
        finite_t = np.isfinite(np.linalg.norm(u))  # the shifted point's t = ||u||
        merit = merit_theta(spec, mean_omega, init_from_lcp(x, u)) if finite_t else np.inf
        loss = aloc(ev, x, u)
        for name, value in (("F at the mean draw", f_mean), ("the merit", merit), ("aloc", loss)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} is not finite at --point {args.point}")
        y, v = f_mean[:k], f_mean[k:]
        cls = classify_complementarity(spec.dims, x, u, y, v)
        in_l, in_m = in_L(spec.dims, x, u), in_M(spec.dims, y, v)

    print(f"point (x, u): in_L = {in_l}")
    print(f"F at mean draw as (y, v): in_M = {in_m}")
    lam = "" if cls.lam is None else f", lambda = {_fmt6(cls.lam)}"
    print(f"complementarity case: {cls.case}{lam}")
    residuals = "  ".join(f"{name}={val:.3e}" for name, val in sorted(cls.residuals.items()))
    print(f"  residuals: {residuals}")
    print(f"merit at shifted point (mean draw): {_fmt6(merit)}")
    print(f"aloc (N={args.samples}, seed={args.seed}): {_fmt6(loss)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "example":
            return _cmd_example(args)
        return _cmd_check(args)
    except (ValueError, OSError) as exc:  # the problem's parse and validation errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

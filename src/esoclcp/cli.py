"""Command line interface: solve, example, and check subcommands."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cone import ConeDims, ConePoint, classify_complementarity, in_L, in_M
from .merit import merit_theta
from .problem import (
    ProblemParseError,
    ProblemSpec,
    ProblemValidationError,
    builtin_example,
    f_eval,
    load_problem,
    serialize_problem,
)
from .reformulate import init_from_lcp, recover_lcp_point
from .risk import SmoothingKind
from .saa import SampleEvaluator, draw_samples
from .solver import DEFAULT_SCHEDULE, SolveReport, SolverConfig, aloc, solve

SMOOTHING_NAMES = {
    "chks": SmoothingKind.CHKS,
    "nn": SmoothingKind.NEURAL_NETWORK,
    "ip": SmoothingKind.INTERIOR_POINT,
    "asip": SmoothingKind.AUTO_SCALING_IP,
}

FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    # flag mistakes are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="esoclcp", description="Stochastic cone complementarity solver")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the staged solve and report per-stage results")
    _add_problem_flags(ps)
    ps.add_argument("--alpha", type=float, default=0.05, help="tail level (default 0.05)")
    ps.add_argument("--mu", type=float, default=1e-4, help="smoothing parameter (default 1e-4)")
    ps.add_argument("--lm-nu", type=float, default=1e-6, help="damping of the normal equations")
    ps.add_argument(
        "--schedule",
        type=_parse_schedule,
        default=DEFAULT_SCHEDULE,
        help="comma-separated increasing sample sizes (default 10,100,1000,10000)",
    )
    ps.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    ps.add_argument("--tol", type=float, default=1e-6, help="gradient stopping tolerance")
    ps.add_argument("--eps", type=float, default=1e-6, help="between-stage displacement stop")
    ps.add_argument("--c1", type=float, default=1e-4, help="sufficient decrease constant")
    ps.add_argument("--c2", type=float, default=0.9, help="curvature constant")
    ps.add_argument("--kmax", type=int, default=500, help="inner iteration cap (default 500)")
    ps.add_argument("--mode", choices=("cvar", "ev", "erm"), default="cvar")
    ps.add_argument("--smoothing", choices=sorted(SMOOTHING_NAMES), default="chks")
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


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {exc}") from exc


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


def _stage_rows(spec: ProblemSpec, report: SolveReport) -> list[dict]:
    rows = []
    mean_omega = spec.mean_omega()
    for stage in report.stages:
        pt = recover_lcp_point(stage.point.p)
        f_mean = f_eval(spec, mean_omega, pt.x, pt.u)
        rows.append(
            {
                "j": stage.j,
                "N": stage.N,
                "x": pt.x,
                "u": pt.u,
                "F": f_mean,
                "time_s": stage.wall_time,
                "aloc": stage.aloc,
                "theta": stage.point.Theta,
                "grad_inf_norm": stage.grad_inf_norm,
                "inner_iters": stage.inner_iters,
                "termination": stage.termination,
            }
        )
    return rows


def _render_table(spec: ProblemSpec, rows: list[dict], no_timing: bool) -> str:
    k, l, m = spec.dims.k, spec.dims.l, spec.m
    head1 = ["j", "N"] + [f"x{i+1}" for i in range(k)] + [f"u{i+1}" for i in range(l)] + [
        f"F{i+1}" for i in range(m)
    ]
    lines = ["solutions and F at the mean draw:"]
    lines.append("  " + "  ".join(h.rjust(11) for h in head1))
    for row in rows:
        cells = [str(row["j"]), str(row["N"])]
        cells += [_fmt6(v) for v in row["x"]]
        cells += [_fmt6(v) for v in row["u"]]
        cells += [_fmt6(v) for v in row["F"]]
        lines.append("  " + "  ".join(c.rjust(11) for c in cells))
    lines.append("")
    lines.append("performance:")
    head2 = ["j", "N", "time_s", "aloc", "theta", "iters", "stop"]
    lines.append("  " + "  ".join(h.rjust(11) for h in head2))
    for row in rows:
        time_cell = "-" if no_timing else _fmt6(row["time_s"])
        cells = [
            str(row["j"]),
            str(row["N"]),
            time_cell,
            _fmt6(row["aloc"]),
            _fmt6(row["theta"]),
            str(row["inner_iters"]),
            row["termination"],
        ]
        lines.append("  " + "  ".join(c.rjust(11) for c in cells))
    return "\n".join(lines) + "\n"


def _render_csv(spec: ProblemSpec, rows: list[dict], no_timing: bool) -> str:
    k, l, m = spec.dims.k, spec.dims.l, spec.m
    header = (
        ["j", "N"]
        + [f"x{i+1}" for i in range(k)]
        + [f"u{i+1}" for i in range(l)]
        + [f"F{i+1}" for i in range(m)]
        + ["time_s", "aloc", "theta"]
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["j"]), str(row["N"])]
        cells += [_fmt_full(v) for v in row["x"]]
        cells += [_fmt_full(v) for v in row["u"]]
        cells += [_fmt_full(v) for v in row["F"]]
        cells.append("" if no_timing else _fmt_full(row["time_s"]))
        cells.append(_fmt_full(row["aloc"]))
        cells.append(_fmt_full(row["theta"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(spec: ProblemSpec, rows: list[dict], report: SolveReport, no_timing: bool) -> str:
    import json

    stages = []
    for row in rows:
        stages.append(
            {
                "j": row["j"],
                "N": row["N"],
                "x": [float(v) for v in row["x"]],
                "u": [float(v) for v in row["u"]],
                "F_at_mean": [float(v) for v in row["F"]],
                "time_s": None if no_timing else row["time_s"],
                "aloc": row["aloc"],
                "theta": row["theta"],
                "grad_inf_norm": row["grad_inf_norm"],
                "inner_iters": row["inner_iters"],
                "termination": row["termination"],
            }
        )
    doc = {
        "mode": report.mode,
        "stages": stages,
        "final": {
            "x": [float(v) for v in report.recovered.x],
            "u": [float(v) for v in report.recovered.u],
            "F_at_mean": [float(v) for v in report.F_at_mean],
            "aloc": report.aloc,
            "theta": report.theta_threshold,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    cfg = SolverConfig(
        alpha=args.alpha,
        mu=args.mu,
        lm_nu=args.lm_nu,
        schedule=args.schedule,
        seed=args.seed,
        tol_r=args.tol,
        eps=args.eps,
        c1=args.c1,
        c2=args.c2,
        k_max=args.kmax,
        mode=args.mode,
        smoothing=SMOOTHING_NAMES[args.smoothing],
    )
    report = solve(spec, cfg)
    rows = _stage_rows(spec, report)
    if args.format == "table":
        text = _render_table(spec, rows, args.no_timing)
    elif args.format == "csv":
        text = _render_csv(spec, rows, args.no_timing)
    else:
        text = _render_json(spec, rows, report, args.no_timing)
    _emit(text, args.out)
    return 2 if report.stages[-1].termination == "k_max" else 0


def _cmd_example(args) -> int:
    _emit(serialize_problem(builtin_example()) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    spec = _load_spec(args)
    k, l = spec.dims.k, spec.dims.l
    try:
        values = [float(v) for v in args.point.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --point {args.point!r}: {exc}") from exc
    if len(values) != k + l:
        raise ValueError(f"--point needs {k + l} numbers for k={k}, l={l}, got {len(values)}")
    x = np.array(values[:k])
    u = np.array(values[k:])
    mean_omega = spec.mean_omega()
    dims = ConeDims(k, l)
    point = ConePoint(x, u)
    ev = SampleEvaluator(spec, draw_samples(spec.distribution, spec.omega_dim, args.samples, args.seed))

    # a point at which a figure overflows is refused before anything is printed
    with np.errstate(all="ignore"):
        f_mean = f_eval(spec, mean_omega, x, u)
        finite_t = np.isfinite(np.linalg.norm(u))  # the shifted point's t = ||u||
        merit = merit_theta(spec, mean_omega, init_from_lcp(x, u)) if finite_t else np.inf
        loss = aloc(ev, x, u)
        for name, value in (("F at the mean draw", f_mean), ("the merit", merit), ("aloc", loss)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} is not finite at --point {args.point}")
        y, v = f_mean[:k], f_mean[k:]
        cls = classify_complementarity(dims, x, u, y, v)
        in_l, in_m = in_L(dims, point), in_M(dims, ConePoint(y, v))

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
    except (ProblemParseError, ProblemValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process figures for a default `esoclcp solve --builtin`.

Run from the root of a checkout:

    python3 tools/fresh_solve.py --seed 7 --seed 42 --seed 1234 [--src DIR] [--schedule LIST]
        [--alpha A] [--kmax K] [--mode MODE] [--smoothing KIND] [--repeat R]

Each seed runs in a new interpreter that imports esoclcp from DIR (default
./src), pinned to one BLAS thread, and calls `esoclcp.cli.main(["solve",
"--builtin", "--seed", S, ...])` once with the default schedule, tail
level, iteration cap, mode and smoothing, or with LIST (say
10,100,1000,10000,100000, the acceptance schedule), A, K, MODE and KIND.  Per seed, one JSON line reports
the child's wall time (interpreter start-up and import included), the
child's `import esoclcp.cli` time (import_s) and the solve's own time
(solve_s) separately, the child's own peak RSS (peak_rss_mb, from
resource.getrusage RUSAGE_SELF in the child: RUSAGE_CHILDREN here would
report the largest child so far), the child's minor page faults (from
RUSAGE_CHILDREN, so every allocation the allocator had to map counts), one
list per stage, the total passes of each of three kinds, the solve time per
whole-sample pass, and src_lines, the line count of DIR/esoclcp/*.py.  A
whole-sample or subset pass is one SampleEvaluator.residuals call: over the
whole sample when it is given no G1 array or one with a column per draw,
over a subset (the draws of the mode-cvar tail bound) when given fewer
columns.  An FB-row pass is one SampleEvaluator._fb_rows call that is not
part of a residuals call: the FB rows of a mode erm or ev trial, formed
over the whole sample to screen it; a trial they do not reject goes on to a
whole-sample pass that forms the other rows.  A stage's list holds, in this
order: its sample size, termination, inner iterations, whole-sample passes,
subset passes, FB-row passes, line-search values asked for
(StageResult.trials), how many of those a lower bound answered
(StageResult.screened), its wall time in seconds (StageResult.wall_time),
that time per inner iteration in microseconds (null for 0 iterations), its
theta_star calls (those through esoclcp.solver.theta_star, in the stage's
search and in its reported Theta), and then the screened trials by the
bound that answered them, in the order the line search tries them: the ray
bound (saa.RayBound.screen), the FB rows (a float from
_StageProblem._fill), the tail draws (_StageProblem._tail_screen) and the
empirical CVaR (any other float from _StageProblem.eval_point).  The four
sum to screened, which the tool checks.  The stages are read off the list
of StageResults `solve` returns.

With --repeat R, each seed runs R times, each run in its own new
interpreter and printing its own line, and then one summary line per seed
gives, per stage, the median and the quartile distance (Q3 - Q1) over the R
runs of its wall time in seconds and of its microseconds per inner
iteration, so that a stage's spread between fresh runs can be read off.

The benchmark in perfbench/ cannot see the allocator's share of this time:
its reference kernel allocates multi-megabyte temporaries between solves,
which moves glibc's mmap and trim thresholds for the whole process.  A fresh
process starts from the default thresholds, as a user's run does.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

CHILD = """
import json, resource, sys, time
t_import = time.perf_counter()
import esoclcp.cli as cli
import_s = time.perf_counter() - t_import
from esoclcp.saa import RayBound, SampleEvaluator

# per evaluator, and so per stage: [whole-sample, subset] residuals calls,
# _fb_rows calls outside them, theta_star calls, and the trials the ray
# bound, the FB rows, the tail draws and the empirical CVaR answered; the
# stages' line-search counts from the StageResults solve returns
import esoclcp.solver as solver
calls = []
residuals = SampleEvaluator.residuals
theta_star = solver.theta_star
fb_rows = SampleEvaluator._fb_rows
init = SampleEvaluator.__init__
screen = RayBound.screen
stage_cls = solver._StageProblem
fill, tail_screen, eval_point = stage_cls._fill, stage_cls._tail_screen, stage_cls.eval_point
solve = cli.solve
stages = []
inside = []

def counted(ev, z, f=None, *args, **kwargs):
    calls[-1][f is not None and f.shape[1] < ev.N] += 1
    inside.append(True)
    try:
        return residuals(ev, z, f, *args, **kwargs)
    finally:
        inside.pop()

def counted_fb(*args, **kwargs):
    if not inside:
        calls[-1][2] += 1
    return fb_rows(*args, **kwargs)

def counted_theta_star(*args, **kwargs):
    calls[-1][3] += 1
    return theta_star(*args, **kwargs)

def counted_screen(*args, **kwargs):
    low = screen(*args, **kwargs)
    calls[-1][4] += low is not None
    return low

def counted_fill(*args, **kwargs):
    out = fill(*args, **kwargs)
    calls[-1][5] += isinstance(out, float)
    return out

def counted_tail_screen(*args, **kwargs):
    bound = tail_screen(*args, **kwargs)
    calls[-1][6] += bound is not None
    return bound

def counted_eval_point(*args, **kwargs):
    # a float that neither the FB rows nor the tail draws returned is the CVaR's
    before = calls[-1][5] + calls[-1][6]
    out = eval_point(*args, **kwargs)
    calls[-1][7] += isinstance(out, float) and calls[-1][5] + calls[-1][6] == before
    return out

def new_stage(*args, **kwargs):
    calls.append([0] * 8)
    init(*args, **kwargs)

def kept(*args, **kwargs):
    result = solve(*args, **kwargs)
    stages.extend({k: getattr(r, k) for k in ("trials", "screened", "wall_time")} for r in result)
    return result

SampleEvaluator.residuals = counted
SampleEvaluator._fb_rows = counted_fb
SampleEvaluator.__init__ = new_stage
RayBound.screen = counted_screen
stage_cls._fill, stage_cls._tail_screen, stage_cls.eval_point = counted_fill, counted_tail_screen, counted_eval_point
solver.theta_star = counted_theta_star
cli.solve = kept
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
solve_s = time.perf_counter() - t0
# solve builds one evaluator per stage
for stage, n in zip(stages, calls):
    stage["full_passes"], stage["tail_passes"], stage["fb_passes"], stage["theta_star_calls"] = n[:4]
    stage["answered"] = n[4:]
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rc": rc, "import_s": import_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb,
                  "full_passes": sum(n[0] for n in calls), "tail_passes": sum(n[1] for n in calls),
                  "fb_passes": sum(n[2] for n in calls), "stages": stages}))
"""


def run_seed(src: str, seed: int, schedule: str | None = None, alpha: str | None = None,
             kmax: int | None = None, mode: str | None = None, smoothing: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        argv = ["solve", "--builtin", "--seed", str(seed), "--format", "json", "--no-timing", "--out", report_path]
        flags = (("--schedule", schedule), ("--alpha", alpha), ("--kmax", kmax), ("--mode", mode), ("--smoothing", smoothing))
        for flag, value in flags:
            if value is not None:
                argv += [flag, str(value)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    child = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "rc": child["rc"],
        "wall_s": wall,
        "import_s": child["import_s"],
        "solve_s": child["solve_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "stages": [
            [
                s["N"],
                s["termination"],
                s["inner_iters"],
                c["full_passes"],
                c["tail_passes"],
                c["fb_passes"],
                c["trials"],
                c["screened"],
                c["wall_time"],
                1e6 * c["wall_time"] / s["inner_iters"] if s["inner_iters"] else None,
                c["theta_star_calls"],
                *_answered(c),
            ]
            for s, c in zip(report["stages"], child["stages"])
        ],
        "full_passes": child["full_passes"],
        "tail_passes": child["tail_passes"],
        "fb_passes": child["fb_passes"],
        "solve_s_per_full_pass": child["solve_s"] / max(child["full_passes"], 1),
        "src_lines": src_lines(src),
    }


def _answered(stage: dict) -> list[int]:
    """The trials the ray bound, the FB rows, the tail draws and the CVaR answered; they sum to screened."""
    if sum(stage["answered"]) != stage["screened"]:
        raise RuntimeError(f"screens answered {stage['answered']}, which do not sum to screened = {stage['screened']}")
    return stage["answered"]


def src_lines(src: str) -> int:
    """Lines in the package's modules, as `wc -l DIR/esoclcp/*.py` totals them."""
    total = 0
    for path in glob.glob(os.path.join(src, "esoclcp", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def spread(values: list[float]) -> tuple[float, float]:
    """(median, Q3 - Q1) of at least two values, the quartiles by the inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summary(seed: int, runs: list[dict]) -> dict:
    """Per stage, the median and quartile distance over runs of its wall time and time per iteration."""
    stages = []
    for i, first in enumerate(runs[0]["stages"]):
        # every fresh run of one seed takes the same steps, only its times differ
        if any(run["stages"][i][:8] + run["stages"][i][10:] != first[:8] + first[10:] for run in runs):
            raise RuntimeError(f"seed {seed}: stage {i + 1} differs between runs")
        wall, wall_iqr = spread([run["stages"][i][8] for run in runs])
        per_iter = [run["stages"][i][9] for run in runs]
        us, us_iqr = spread(per_iter) if per_iter[0] is not None else (None, None)
        stages.append(
            {"N": first[0], "inner_iters": first[2], "wall_time_median": wall, "wall_time_iqr": wall_iqr,
             "us_per_iter_median": us, "us_per_iter_iqr": us_iqr}
        )
    return {"seed": seed, "repeat": len(runs), "stages": stages}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fresh-process figures for esoclcp solve --builtin")
    p.add_argument("--seed", type=int, action="append", required=True, help="solver seed; repeat for more")
    p.add_argument("--src", default=os.path.join(os.getcwd(), "src"), help="directory esoclcp is imported from")
    p.add_argument("--schedule", help="comma-separated sample sizes passed to solve (default: solve's own)")
    p.add_argument("--alpha", help="tail level passed to solve (default: solve's own)")
    p.add_argument("--kmax", type=int, help="inner iteration cap passed to solve (default: solve's own)")
    p.add_argument("--mode", help="solve mode passed to solve (default: solve's own)")
    p.add_argument("--smoothing", help="smoothing kind passed to solve (default: solve's own)")
    p.add_argument("--repeat", type=int, default=1, help="fresh runs per seed; from 2 on, a summary line per seed")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error(f"--repeat must be at least 1, got {args.repeat}")
    for seed in args.seed:
        runs = []
        for _ in range(args.repeat):
            runs.append(
                run_seed(os.path.abspath(args.src), seed, args.schedule, args.alpha, args.kmax, args.mode, args.smoothing)
            )
            print(json.dumps(runs[-1]), flush=True)
        if args.repeat > 1:
            print(json.dumps(summary(seed, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process figures for a default `esoclcp solve --builtin`, or over a problem file.

Run from the root of a checkout:

    python3 tools/fresh_solve.py --seed 7 --seed 42 --seed 1234 [--src DIR] [--problem FILE]
        [--schedule LIST] [--alpha A] [--kmax K] [--mode MODE] [--smoothing KIND] [--repeat R]

Each seed runs in a new interpreter that imports esoclcp from DIR (default
./src), pinned to one BLAS thread, and calls `esoclcp.cli.main(["solve",
"--builtin", "--seed", S, ...])` once with the default schedule, tail
level, iteration cap, mode and smoothing, or with LIST (say
10,100,1000,10000,100000, the acceptance schedule), A, K, MODE and KIND;
with FILE, `--problem FILE` takes the place of `--builtin` (say the
instance of perfbench's wide-erm workload, which is wider than the bundled
example).  Per seed, one JSON line reports
the child's wall time (interpreter start-up and import included), the
child's `import esoclcp.cli` time (import_s) and the solve's own time
(solve_s) separately, the child's own peak RSS (peak_rss_mb, from
resource.getrusage RUSAGE_SELF in the child: RUSAGE_CHILDREN here would
report the largest child so far), the child's minor page faults (from
RUSAGE_CHILDREN, so every allocation the allocator had to map counts), one
list per stage, the total passes of each of three kinds, the solve time per
whole-sample pass, and src_lines, the line count of DIR/esoclcp/*.py.  The
counts are those solve returns, StageResult.counts (esoclcp.solver.COUNTS
says what each counts): the child replaces cli.solve by a wrapper that keeps
its StageResults, and changes nothing else.  A stage's list holds, in this
order: its sample size, termination, inner iterations, whole-sample passes,
tail-draw passes, FB-row passes, line-search values asked for, how many of
those a lower bound answered, its wall time in seconds
(StageResult.wall_time), that time per inner iteration in microseconds (null
for 0 iterations), its Theta solves, and then the screened trials by the
bound that answered them, in the order the line search tries them: the ray
bound, the FB rows, the tail draws and the empirical CVaR.

With --repeat R, each seed runs R times, each run in its own new
interpreter and printing its own line, and then one summary line per seed
gives the median and the quartile distance (Q3 - Q1) over the R runs of
the child's peak RSS and of its minor page faults, and, per stage, of its
wall time in seconds and of its microseconds per inner iteration, so that
the spread between fresh runs can be read off.

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

# each stage's counts and wall time, from the StageResults solve returns
solve = cli.solve
stages = []

def kept(*args, **kwargs):
    result = solve(*args, **kwargs)
    stages.extend({"counts": r.counts, "wall_time": r.wall_time} for r in result)
    return result

cli.solve = kept
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
solve_s = time.perf_counter() - t0
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rc": rc, "import_s": import_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb, "stages": stages}))
"""

# the passes of each kind, summed over the stages into the line's totals
PASSES = ("full_passes", "tail_passes", "fb_passes")
# the bounds that answer trials, in the order the line search tries them
ANSWERS = ("ray_answers", "fb_answers", "tail_answers", "cvar_answers")


def run_seed(src: str, seed: int, schedule: str | None = None, alpha: str | None = None,
             kmax: int | None = None, mode: str | None = None, smoothing: str | None = None,
             problem: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        source = ["--problem", problem] if problem else ["--builtin"]
        argv = ["solve", *source, "--seed", str(seed), "--format", "json", "--no-timing", "--out", report_path]
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
    totals = {name: sum(stage["counts"][name] for stage in child["stages"]) for name in PASSES}
    return {
        "seed": seed,
        "rc": child["rc"],
        "wall_s": wall,
        "import_s": child["import_s"],
        "solve_s": child["solve_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "stages": [_stage_row(s, c) for s, c in zip(report["stages"], child["stages"])],
        **totals,
        "solve_s_per_full_pass": child["solve_s"] / max(totals["full_passes"], 1),
        "src_lines": src_lines(src),
    }


def _stage_row(row: dict, stage: dict) -> list:
    """One stage's list, from its row of the JSON report and its counts and wall time."""
    n, wall = stage["counts"], stage["wall_time"]
    iters = row["inner_iters"]
    return [
        row["N"], row["termination"], iters, *(n[name] for name in PASSES), n["trials"],
        sum(n[name] for name in ANSWERS), wall, 1e6 * wall / iters if iters else None, n["theta_calls"],
        *(n[name] for name in ANSWERS),
    ]


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
    """Medians and quartile distances over runs: peak RSS, minor faults and, per stage, wall time and time per iteration."""
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
    rss, rss_iqr = spread([run["peak_rss_mb"] for run in runs])
    faults, faults_iqr = spread([run["minor_faults"] for run in runs])
    return {
        "seed": seed, "repeat": len(runs), "peak_rss_mb_median": rss, "peak_rss_mb_iqr": rss_iqr,
        "minor_faults_median": faults, "minor_faults_iqr": faults_iqr, "stages": stages,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fresh-process figures for esoclcp solve")
    p.add_argument("--seed", type=int, action="append", required=True, help="solver seed; repeat for more")
    p.add_argument("--src", default=os.path.join(os.getcwd(), "src"), help="directory esoclcp is imported from")
    p.add_argument("--problem", help="problem JSON file solved in place of the bundled example")
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
                run_seed(os.path.abspath(args.src), seed, args.schedule, args.alpha, args.kmax, args.mode, args.smoothing,
                         args.problem and os.path.abspath(args.problem))
            )
            print(json.dumps(runs[-1]), flush=True)
        if args.repeat > 1:
            print(json.dumps(summary(seed, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

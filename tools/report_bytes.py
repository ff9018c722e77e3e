"""Fingerprints of esoclcp's deterministic reports, so that "same bytes" is a diff.

Run from the root of a checkout:

    python3 tools/report_bytes.py [--src DIR] [--dump OUT] --seed 7 --seed 11 > bytes.txt

esoclcp is imported from DIR (default ./src), in this process, on one BLAS
thread.  One line `name rc sha256` is printed per report, where sha256 is
that of the report's stdout followed by its stderr, with every warning
shown, and rc the CLI's exit code.  With --dump, that text is also written
to OUT/<name>, and the printed lines to OUT/index.txt, for
tools/report_diff.py.  The reports:

  <workload>/seed<S>/op<i>/<format>  every operation perfbench/workloads.py
                                     builds for run seed S, in each of the
                                     formats table, csv and json
  builtin/seed<S>/<format>           a default `solve --builtin --seed S`,
                                     S in 7, 42 and 1234
  builtin-erm/seed<S>/<format>       the same in mode erm, `solve --builtin
                                     --mode erm --seed S`, stages N = 10 to
                                     10000
  builtin-<kind>/seed7/json          `solve --builtin --smoothing <kind>
                                     --seed 7`, kind in nn, ip and asip
                                     (chks is the default above)
  builtin-erm-<kind>/seed7/json      the same in mode erm, `solve --builtin
                                     --mode erm --smoothing <kind> --seed
                                     7`, where the kind sets only the
                                     reported Theta: theta_star's numerics
                                     with the same steps for every kind
  builtin-alpha<A>/seed7/json        `solve --builtin --alpha A --schedule
                                     1000,10000 --kmax 60 --seed 7`, A in
                                     0.2, 0.5 and 0.9: mode cvar's tail
                                     screen from 0.2 to 0.8, none at 0.9
  check/<point>                      `check --builtin --point <point>` at
                                     four points, which between them give
                                     both answers of in_L and of in_M
  overflow/<case>/<mode>             `solve --schedule 10,100 --kmax 5
                                     --mode <mode>` in modes cvar, erm and
                                     ev, on the bundled example (written by
                                     `esoclcp example`) with r_base[0] set
                                     to 1e100, 1e150 or 1e200 (case
                                     r_base1e+100 and so on) or T_base
                                     scaled by 3e152 (T_base3e+152); each
                                     ends on one error line
  overflow/std1e+308/<command>       `solve --schedule 10,100 --kmax 3` and
                                     `check --point` at the README's point,
                                     on the bundled example with
                                     distribution std 1e308, whose draws
                                     overflow: one error line each, and no
                                     warning
  scaled/<mode>                      `solve --schedule 10,100 --kmax 50
                                     --mode <mode>` in modes cvar, erm and
                                     ev, on the bundled example with
                                     T_base, r_base and every perturbation
                                     coefficient times 1e8 (the same
                                     solutions): each stage stops where no
                                     step the line search tries lowers the
                                     value (stalled), which exits 2
  final-theta/<mode>-<kind>          `solve --schedule 10 --tol 1e300
                                     --mode <mode> --smoothing <kind>` on
                                     the r_base1e+100 data above, in modes
                                     cvar, erm and ev, kind chks or nn: the
                                     stage ends at its start point, where
                                     the Theta it reports overflows (chks
                                     in erm and ev) or its tail weights
                                     miss alpha N (nn in cvar); each error
                                     names the stage
  refuse/<case>                      one refused input each, ending on one
                                     error line: `check --builtin --point`
                                     1,2,3 (point-length), 1,x,1,0,0
                                     (point-unparsable), nan,1,1,0,0
                                     (point-nan), and the README's point
                                     with --samples 0 (check-samples);
                                     `solve --builtin` with --mu 1e-300
                                     (mu), --kmax 0 (kmax),
                                     --schedule 10,10 (schedule), --seed -1
                                     (seed) and the flags of retired
                                     options, --lm-nu 1e-6 --c1 0.5 --c2
                                     0.5 (retired-flags), which argparse
                                     refuses; `solve --problem` on the
                                     bundled example with "k": true
                                     (file-k), "omega_dim": 0
                                     (file-omega_dim) or a NaN perturbation
                                     coefficient (file-coeff), and on a
                                     file holding the bytes ff fe, which
                                     are not UTF-8 (file-not-utf8)

Every solve runs with --no-timing.  A flag argparse refuses exits through
SystemExit, whose code is the report's rc.  Run the script once per tree
with the same seeds and diff the two outputs, or compare two dumps field
by field with tools/report_diff.py.  perfbench/ is imported, not changed.
"""

from __future__ import annotations

import os

# before numpy is imported: the last bits of a solve depend on the BLAS threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("table", "csv", "json")
BUILTIN_SEEDS = (7, 42, 1234)
# the smoothing kinds besides the default chks, each solved once
SMOOTHING_KINDS = ("nn", "ip", "asip")
# the tail levels solved once each at N = 1000 and 10000
ALPHAS = ("0.2", "0.5", "0.9")
# the README's point and three more; the nearest complementarity cases are
# II, I, IV and II, and only the last has in_L = False and in_M = True
CHECK_POINTS = ("1.5,0.3,1.1,0.1,-0.25", "1,2,3,0,0", "4,4,4,0.001,0", "0.8,0,-2,1,-1.1")
# the bundled example's data field and the value that overflows a solve on
# it: r_base[0] is set to the value, T_base is scaled by it
OVERFLOWS = (("r_base", 1e100), ("r_base", 1e150), ("r_base", 1e200), ("T_base", 3e152))
# the factor the scaled reports multiply the bundled example's data by
SCALE = 1e8
# the distribution std of the bundled example whose draws overflow
DRAWS_STD = 1e308
# the smoothing kinds of the final-theta reports, which stop at the start point
FINAL_THETA_KINDS = ("chks", "nn")
# refuse/<case>: CLI calls that each end on one error line, the builtin
# example's flags and then problem files, the bundled example with one edit
REFUSED_FLAGS = (
    ("point-length", ["check", "--builtin", "--point", "1,2,3"]),
    ("point-unparsable", ["check", "--builtin", "--point", "1,x,1,0,0"]),
    ("point-nan", ["check", "--builtin", "--point", "nan,1,1,0,0"]),
    ("check-samples", ["check", "--builtin", "--point", CHECK_POINTS[0], "--samples", "0"]),
    ("mu", ["solve", "--builtin", "--mu", "1e-300"]),
    ("kmax", ["solve", "--builtin", "--kmax", "0"]),
    ("schedule", ["solve", "--builtin", "--schedule", "10,10"]),
    ("seed", ["solve", "--builtin", "--seed", "-1"]),
    ("retired-flags", ["solve", "--builtin", "--lm-nu", "1e-6", "--c1", "0.5", "--c2", "0.5"]),
)
REFUSED_FILES = (
    ("file-k", lambda doc: doc.update(k=True)),
    ("file-omega_dim", lambda doc: doc.update(omega_dim=0)),
    ("file-coeff", lambda doc: doc["T_perturb"][0].update(coeff=float("nan"))),
)


def reports(cli, workloads, seeds, workdir: str):
    """(name, argv) for every report, in a fixed order."""
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.build(cli, seed, workdir)
            for i, op in enumerate(workload.ops(inputs, seed)):
                argv = workload.argv(op.inp, op.solver_seed)
                for fmt in FORMATS:
                    argv[argv.index("--format") + 1] = fmt
                    yield f"{name}/seed{seed}/op{i}/{fmt}", list(argv)
    for name, mode in (("builtin", []), ("builtin-erm", ["--mode", "erm"])):
        for seed in BUILTIN_SEEDS:
            for fmt in FORMATS:
                argv = ["solve", "--builtin", *mode, "--seed", str(seed), "--format", fmt, "--no-timing"]
                yield f"{name}/seed{seed}/{fmt}", argv
    for name, mode in (("builtin", []), ("builtin-erm", ["--mode", "erm"])):
        for kind in SMOOTHING_KINDS:
            argv = ["solve", "--builtin", *mode, "--smoothing", kind, "--seed", "7", "--format", "json", "--no-timing"]
            yield f"{name}-{kind}/seed7/json", argv
    for alpha in ALPHAS:
        argv = ["solve", "--builtin", "--alpha", alpha, "--schedule", "1000,10000", "--kmax", "60", "--seed", "7"]
        yield f"builtin-alpha{alpha}/seed7/json", [*argv, "--format", "json", "--no-timing"]
    for point in CHECK_POINTS:
        yield f"check/{point}", ["check", "--builtin", "--point", point]
    example = os.path.join(workdir, "example.json")
    cli.main(["example", "--out", example])

    def edited(name: str, edit) -> str:
        # the path of a copy of the bundled example, edited in place by edit
        with open(example, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    for field, value in OVERFLOWS:

        def overflow(doc, field=field, value=value):
            if field == "r_base":
                doc["r_base"][0] = value
            else:
                doc["T_base"] = [[value * v for v in row] for row in doc["T_base"]]

        case = f"{field}{value:g}"
        path = edited(case, overflow)
        for mode in ("cvar", "erm", "ev"):
            argv = ["solve", "--problem", path, "--schedule", "10,100", "--kmax", "5", "--mode", mode, "--no-timing"]
            yield f"overflow/{case}/{mode}", argv
    case = f"std{DRAWS_STD:g}"
    path = edited(case, lambda doc: doc["distribution"].update(std=DRAWS_STD))
    yield f"overflow/{case}/solve", ["solve", "--problem", path, "--schedule", "10,100", "--kmax", "3", "--no-timing"]
    yield f"overflow/{case}/check", ["check", "--problem", path, "--point", CHECK_POINTS[0]]

    def scaled(doc):
        doc["T_base"] = [[SCALE * v for v in row] for row in doc["T_base"]]
        doc["r_base"] = [SCALE * v for v in doc["r_base"]]
        for entry in doc["T_perturb"] + doc["r_perturb"]:
            entry["coeff"] *= SCALE

    path = edited("scaled", scaled)
    for mode in ("cvar", "erm", "ev"):
        argv = ["solve", "--problem", path, "--schedule", "10,100", "--kmax", "50", "--mode", mode, "--no-timing"]
        yield f"scaled/{mode}", argv
    path = os.path.join(workdir, "r_base1e+100.json")
    for mode in ("cvar", "erm", "ev"):
        for kind in FINAL_THETA_KINDS:
            argv = ["solve", "--problem", path, "--schedule", "10", "--tol", "1e300", "--mode", mode]
            yield f"final-theta/{mode}-{kind}", [*argv, "--smoothing", kind, "--no-timing"]
    for case, argv in REFUSED_FLAGS:
        yield f"refuse/{case}", argv + (["--no-timing"] if argv[0] == "solve" else [])
    for case, edit in REFUSED_FILES:
        yield f"refuse/{case}", ["solve", "--problem", edited(case, edit), "--no-timing"]
    path = os.path.join(workdir, "file-not-utf8.json")
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe")
    yield "refuse/file-not-utf8", ["solve", "--problem", path, "--no-timing"]


def run(cli, argv) -> tuple[int, str]:
    """The CLI's exit code, and its stdout followed by its stderr, with every warning shown."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refused a flag
            rc = exc.code
    return rc, out.getvalue() + err.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sha256 of every deterministic esoclcp report")
    p.add_argument("--seed", type=int, action="append", required=True, help="perfbench run seed; repeat for more")
    p.add_argument("--src", default=os.path.join(os.getcwd(), "src"), help="directory esoclcp is imported from")
    p.add_argument("--dump", metavar="OUT", help="also write each report's text, and OUT/index.txt, under OUT")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/ or in DIR
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import esoclcp.cli as cli
    import workloads

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "esoclcp"):
        print(f"error: imported esoclcp from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    index = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, report_argv in reports(cli, workloads, args.seed, workdir):
            rc, text = run(cli, report_argv)
            index.append(f"{name} {rc} {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
            print(index[-1], flush=True)
            if args.dump:
                path = os.path.join(args.dump, name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
    if args.dump:
        with open(os.path.join(args.dump, "index.txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in index))
    return 0


if __name__ == "__main__":
    sys.exit(main())

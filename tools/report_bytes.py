"""Fingerprints of esoclcp's deterministic reports, so that "same bytes" is a diff.

Run from the root of a checkout:

    python3 tools/report_bytes.py [--src DIR] [--dump OUT] --seed 7 --seed 11 > bytes.txt

esoclcp is imported from DIR (default ./src), in this process, on one BLAS
thread.  One line `name rc sha256` is printed per report, where sha256 is
that of the report's stdout and rc the CLI's exit code.  With --dump, each
report's stdout is also written to OUT/<name>, and the printed lines to
OUT/index.txt, for tools/report_diff.py.  The reports:

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
  check/<point>                      `check --builtin --point <point>`

Every solve runs with --no-timing.  Run the script once per tree with the
same seeds and diff the two outputs, or compare two dumps field by field
with tools/report_diff.py.  perfbench/ is imported, not changed.
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
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("table", "csv", "json")
BUILTIN_SEEDS = (7, 42, 1234)
# the smoothing kinds besides the default chks, each solved once
SMOOTHING_KINDS = ("nn", "ip", "asip")
# the README's point and two more; the nearest complementarity cases are II, I and IV
CHECK_POINTS = ("1.5,0.3,1.1,0.1,-0.25", "1,2,3,0,0", "4,4,4,0.001,0")


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
    for kind in SMOOTHING_KINDS:
        argv = ["solve", "--builtin", "--smoothing", kind, "--seed", "7", "--format", "json", "--no-timing"]
        yield f"builtin-{kind}/seed7/json", argv
    for point in CHECK_POINTS:
        yield f"check/{point}", ["check", "--builtin", "--point", point]


def run(cli, argv) -> tuple[int, str]:
    """The CLI's exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sha256 of every deterministic esoclcp report")
    p.add_argument("--seed", type=int, action="append", required=True, help="perfbench run seed; repeat for more")
    p.add_argument("--src", default=os.path.join(os.getcwd(), "src"), help="directory esoclcp is imported from")
    p.add_argument("--dump", metavar="OUT", help="also write each report's stdout, and OUT/index.txt, under OUT")
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

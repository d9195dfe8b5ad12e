"""ghaar benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload frames_small --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the package is imported from ./src.
Inputs are generated from --seed under .perfbench_out/.  With --trace 0 the
last line of standard output is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a traced run,
and the spans are written to .perfbench_out/<workload>-<seed>/spans.jsonl.
A full report (machine, fixture settings, counts, checks) is printed on the
line before it and written next to the spans as report-trace<0|1>.json.
"""

import argparse
import json
import os
import sys

import bootstrap


def parse_args(argv=None):
    names = [w["name"] for w in bootstrap.benchmark_spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    blas_threads = bootstrap.cap_blas_threads()
    root = bootstrap.checkout_root()
    bootstrap.import_ghaar(root)
    import harness

    work = os.path.join(root, ".perfbench_out",
                        f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    line, report = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work, blas_threads)
    with open(os.path.join(work, f"report-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

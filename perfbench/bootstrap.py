"""Process set-up that must happen before numpy is imported.

Kept free of third-party imports: the BLAS thread cap only takes effect
when it is in the environment before numpy loads OpenBLAS.
"""

import json
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def checkout_root():
    """The directory holding perfbench/ and src/."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_spec():
    """BENCHMARK.json of the checkout: workload names, their "why", metrics."""
    with open(os.path.join(checkout_root(), "BENCHMARK.json")) as fh:
        return json.load(fh)


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; returns the cap.

    A cap already set in the environment is kept.
    """
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(ncpu))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_ghaar(root):
    """Import the ghaar package from root/src and nowhere else.

    Exits with status 2 when the checkout has no source tree, so the
    benchmark never measures an installed copy by accident.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ghaar", "__init__.py")):
        sys.stderr.write(f"perfbench: no ghaar sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import ghaar
    if os.path.dirname(os.path.dirname(os.path.abspath(ghaar.__file__))) != src:
        sys.stderr.write(f"perfbench: ghaar imported from {ghaar.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)
    return ghaar

"""Set-up probe: everything a workload does before its first unit of work.

It imports ``z2qsim.cli``, builds and gauge-fixes the workload's lattice,
builds the link terms when ``--terms`` is given, and exits.  The benchmark
times the whole process, interpreter start included, as ``setup_s``.
``--provenance`` prints the versions and BLAS threads as JSON instead of
being timed.  Needs ``src`` on PYTHONPATH.
"""

import argparse
import json
import sys


def _openblas_threads() -> dict[str, int]:
    """Threads of the OpenBLAS builds bundled with numpy and scipy."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    out = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[package.__name__] = fn()
                    break
    return out


def provenance() -> dict:
    import os
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", required=True)
    parser.add_argument("--boundary", choices=("open", "periodic"), required=True)
    parser.add_argument("--terms", action="store_true", help="also build the link terms")
    parser.add_argument("--provenance", action="store_true")
    opts = parser.parse_args()

    import z2qsim.cli  # noqa: F401  (the import is part of set-up)
    from z2qsim import lattice, quantum

    lat = lattice.build_lattice(
        tuple(int(d) for d in opts.dims.split(",")), lattice.Boundary(opts.boundary)
    )
    gf = lattice.gauge_fix(lat)
    if opts.terms:
        quantum.build_link_terms(lat, gf)
    if opts.provenance:
        print(json.dumps(provenance()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

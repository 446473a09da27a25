"""The spectrum-gap program: the two lowest eigenvalues of the parent
Hamiltonian on a periodic 4x4 lattice at beta = 0.7, printed as JSON.

With 17 free links this goes through the matrix-free ARPACK path
(``quantum.apply_hamiltonian`` as the matvec).  Recent scipy draws ARPACK's
start vector from operating-system entropy unless ``eigsh`` is given a
generator, which makes the matvec count, and so the run time, differ from
run to run.  This program therefore hands ``quantum`` an ``eigsh`` with a
fixed generator: every run then takes the same matvecs.  Needs ``src`` on
PYTHONPATH.
"""

import functools
import inspect
import json
import sys

from scipy.sparse.linalg import eigsh

from z2qsim import lattice, quantum

DIMS = (4, 4)
BETA = 0.7
K = 2
ARPACK_SEED = 0


def main() -> int:
    if "rng" in inspect.signature(eigsh).parameters:
        quantum.eigsh = functools.partial(eigsh, rng=ARPACK_SEED)
    lat = lattice.build_lattice(DIMS, lattice.Boundary.PERIODIC)
    gf = lattice.gauge_fix(lat)
    values = quantum.lowest_eigenvalues(lat, gf, BETA, k=K)
    print(json.dumps({"eigenvalues": [float(v) for v in values]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quantum sampling of the Euclidean path integral of Z2 lattice gauge theory.

The pipeline: fix the gauge on a hypercubic lattice, build the Glauber-dynamics
parent Hamiltonian whose ground state carries the Gibbs weights e^{-S/2},
prepare that state by Trotterized adiabatic evolution of a simulated
statevector, and measure it repeatedly to draw gauge configurations.  Exact
enumeration and a classical Glauber Markov chain serve as cross-checks at
every stage.

The package namespace holds those pipeline calls only; every other public
name is imported from its submodule (``z2qsim.lattice``, ``.quantum``,
``.classical``, ``.ensemble``, ``.limits``).
"""

__version__ = "0.1.0"

from .classical import exact_expectation, mcmc_run, plaquette_average
from .ensemble import estimate, load, save
from .lattice import Boundary, build_lattice, gauge_fix
from .limits import EnumerationCapError
from .quantum import (
    Schedule,
    StartKind,
    adiabatic_evolve,
    expectation_plaquette,
    lowest_eigenvalues,
    sample_configs,
)

__all__ = [
    "Boundary",
    "build_lattice",
    "gauge_fix",
    "Schedule",
    "StartKind",
    "adiabatic_evolve",
    "sample_configs",
    "expectation_plaquette",
    "lowest_eigenvalues",
    "exact_expectation",
    "mcmc_run",
    "plaquette_average",
    "estimate",
    "save",
    "load",
    "EnumerationCapError",
]

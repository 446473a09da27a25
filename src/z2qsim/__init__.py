"""Quantum sampling of the Euclidean path integral of Z2 lattice gauge theory.

The pipeline: fix the gauge on a hypercubic lattice, build the Glauber-dynamics
parent Hamiltonian whose ground state carries the Gibbs weights e^{-S/2},
prepare that state by Trotterized adiabatic evolution of a simulated
statevector, and measure it repeatedly to draw gauge configurations.  Exact
enumeration and a classical Glauber Markov chain serve as cross-checks at
every stage.
"""

__version__ = "0.1.0"

from .classical import (
    Coupling,
    action,
    action_density,
    apply_gauge_flip,
    delta_action,
    exact_expectation,
    flip_probability,
    glauber_step,
    mcmc_run,
    plaquette_average,
    plaquette_products,
    staple_sum,
)
from .ensemble import (
    ChecksumError,
    Ensemble,
    EnsembleFormatError,
    EnsembleMeta,
    Estimate,
    EstimateMethod,
    HeaderError,
    LengthMismatchError,
    Sampler,
    estimate,
    load,
    save,
)
from .lattice import (
    Boundary,
    GaugeFixing,
    Lattice,
    build_lattice,
    gauge_fix,
)
from .limits import EnumerationCapError, max_free_links
from .quantum import (
    ConvergenceError,
    LinkTerm,
    Schedule,
    StartKind,
    adiabatic_evolve,
    build_dense_hamiltonian,
    build_link_terms,
    expectation_plaquette,
    ground_state_reference,
    initial_state,
    lowest_eigenvalues,
    plaquette_sum_diagonal,
    sample_configs,
)

__all__ = [
    "__version__",
    "Boundary",
    "ChecksumError",
    "ConvergenceError",
    "Coupling",
    "Ensemble",
    "EnsembleFormatError",
    "EnsembleMeta",
    "EnumerationCapError",
    "Estimate",
    "EstimateMethod",
    "GaugeFixing",
    "HeaderError",
    "Lattice",
    "LengthMismatchError",
    "LinkTerm",
    "Sampler",
    "Schedule",
    "StartKind",
    "action",
    "action_density",
    "adiabatic_evolve",
    "apply_gauge_flip",
    "build_dense_hamiltonian",
    "build_lattice",
    "build_link_terms",
    "delta_action",
    "estimate",
    "exact_expectation",
    "expectation_plaquette",
    "flip_probability",
    "gauge_fix",
    "glauber_step",
    "ground_state_reference",
    "initial_state",
    "load",
    "lowest_eigenvalues",
    "max_free_links",
    "mcmc_run",
    "plaquette_average",
    "plaquette_products",
    "plaquette_sum_diagonal",
    "sample_configs",
    "save",
    "staple_sum",
]

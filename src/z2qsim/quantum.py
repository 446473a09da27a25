"""Quantum simulation of the gauge-theory Gibbs state.

One qubit per free (gauge-unfixed) link, basis index bit q encoding link
``gf.free[q]`` with bit 0 meaning U = +1.  The parent Hamiltonian is a sum of
one term per free link,

    h_n = 1/2 (I - tanh(beta C_n) Z_n - sech(beta C_n) X_n),

with C_n the staple-sum operator, diagonal in the other qubits.  Because
tanh^2 + sech^2 = 1 each h_n is a rank-1 projector h_n = w w^T, where the
unit vector w = (w0, w1) on qubit n depends on C_n.  One kernel applies it:
r = scale (w0 a + w1 b) on every amplitude pair (a, b), then a += w0 r and
b += w1 r.  With scale = 1 and a separate output that is H psi; in place with
scale = e^{-i dt} - 1 it is the exact evolution exp(-i dt h) = I +
(e^{-i dt} - 1) h, so every Trotter factor is applied exactly.  The unique
zero mode carries amplitudes e^{-S/2}, which is what makes measuring the
final state equivalent to Gibbs sampling.

States are plain complex128 arrays of length 2**n_free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import limits
from .classical import Coupling, as_coupling
from .ensemble import Ensemble, EnsembleMeta, Sampler
from .lattice import GaugeFixing, Lattice, staple_masks


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge; carries partial results."""

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


# ----- diagonal observables on the computational basis -----


def _parity_signs(indices: np.ndarray, mask: int) -> np.ndarray:
    bits = np.bitwise_count(indices & np.uint64(mask)).astype(np.int8)
    return 1 - 2 * (bits & 1)


@lru_cache(maxsize=32)
def _plaquette_masks(lattice: Lattice, gf: GaugeFixing) -> tuple[int, ...]:
    return tuple(gf.bit_mask(quad) for quad in lattice.plaq_links)


def plaquette_sum_diagonal(lattice: Lattice, gf: GaugeFixing) -> np.ndarray:
    """Sum of all plaquette products for every basis state, shape (2**n_free,)."""
    limits.check_free_links(gf.n_free, "plaquette diagonal")
    idx = np.arange(1 << gf.n_free, dtype=np.uint64)
    total = np.zeros(idx.size, dtype=np.int32)
    for mask in _plaquette_masks(lattice, gf):
        total += _parity_signs(idx, mask)
    return total


def ground_state_reference(lattice: Lattice, gf: GaugeFixing, beta) -> np.ndarray:
    """Normalized amplitudes e^{-S/2} / sqrt(Z), the analytic zero mode.

    Accepts a float or a Coupling; the infinite limit returns the uniform
    superposition of maximum-plaquette-sum states.
    """
    coupling = as_coupling(beta)
    ps = plaquette_sum_diagonal(lattice, gf).astype(np.float64)
    if coupling.infinite:
        amps = (ps == ps.max()).astype(np.float64)
    else:
        amps = np.exp(0.5 * coupling.beta * (ps - ps.max()))
    return amps / np.linalg.norm(amps)


# ----- Hamiltonian terms -----


@dataclass(frozen=True)
class LinkTerm:
    """One parent-Hamiltonian term h = w w^T, prepared for fast application.

    ``c_table`` holds the staple sum c for every reduced index (basis index
    with the term's own bit removed), stored as a table offset c + n_staples
    so it can gather the weights (w0, w1) directly.  A state reshaped to
    (2**(n-1-q), 2, 2**q) pairs amplitudes exactly along ``c_table`` reshaped
    to (2**(n-1-q), 2**q).

    With x = beta c and e = e^{-|x|}, the weights are
    w = (e, -1) / sqrt(1 + e^2) for x >= 0 and (1, -e) / sqrt(1 + e^2) for
    x < 0.  Then w0^2 = (1 - tanh x)/2 and w0 w1 = -sech(x)/2 without the
    cancellation of 1 - tanh x at large beta, and without overflow.
    """

    qubit: int
    n_staples: int
    n_qubits: int
    c_table: np.ndarray  # int8, shape (2**(n_qubits-1),), values in [0, 2*n_staples]


def build_link_terms(lattice: Lattice, gf: GaugeFixing) -> tuple[LinkTerm, ...]:
    """One LinkTerm per free link, ordered by qubit index."""
    limits.check_free_links(gf.n_free, "Hamiltonian terms")
    n = gf.n_free
    ys = np.arange(1 << (n - 1), dtype=np.uint64) if n > 1 else np.zeros(1, dtype=np.uint64)
    terms = []
    for q, masks in enumerate(staple_masks(lattice, gf)):
        c = np.zeros(ys.size, dtype=np.int16)
        for mask in masks:
            low = mask & ((1 << q) - 1)
            high = mask >> (q + 1)
            c += _parity_signs(ys, low | (high << q))
        table = (c + len(masks)).astype(np.int8)
        table.setflags(write=False)
        terms.append(LinkTerm(qubit=q, n_staples=len(masks), n_qubits=n, c_table=table))
    return tuple(terms)


def _term_weights(term: LinkTerm, coupling: Coupling):
    """(w0, w1) of h = w w^T for each distinct staple sum, in c_table order."""
    c = np.arange(-term.n_staples, term.n_staples + 1)
    if coupling.infinite:
        e = (c == 0).astype(np.float64)
    else:
        e = np.exp(-coupling.beta * np.abs(c))
    norm = 1.0 / np.sqrt(1.0 + e * e)
    small = e * norm
    return np.where(c >= 0, small, norm), -np.where(c >= 0, norm, small)


def _paired_view(state: np.ndarray, term: LinkTerm):
    hi = 1 << (term.n_qubits - 1 - term.qubit)
    lo = 1 << term.qubit
    view = state.reshape(hi, 2, lo)
    return view[:, 0, :], view[:, 1, :]


def _apply_projector(dst: np.ndarray, src: np.ndarray, term: LinkTerm, coupling: Coupling, scale):
    """dst += scale * h_term @ src; returns ``dst``.

    ``dst`` may be ``src``: r is formed before either half is written.
    """
    w0, w1 = _term_weights(term, coupling)
    a, b = _paired_view(src, term)
    w0 = w0[term.c_table].reshape(a.shape)
    w1 = w1[term.c_table].reshape(a.shape)
    r = w0 * a
    r += w1 * b
    r *= scale
    dst_a, dst_b = _paired_view(dst, term)
    dst_a += w0 * r
    dst_b += w1 * r
    return dst


def apply_term_evolution(state: np.ndarray, term: LinkTerm, coupling: Coupling, dt: float):
    """In-place exact evolution exp(-i dt h) for one term; returns the state."""
    return _apply_projector(state, state, term, coupling, np.exp(-1j * dt) - 1.0)


def apply_hamiltonian(state: np.ndarray, terms, coupling: Coupling) -> np.ndarray:
    out = np.zeros_like(state)
    for term in terms:
        _apply_projector(out, state, term, coupling, 1.0)
    return out


def build_dense_hamiltonian(lattice: Lattice, gf: GaugeFixing, beta) -> np.ndarray:
    """Dense real-symmetric matrix of the full Hamiltonian (small systems only).

    Built link by link from the Pauli form, independently of the fast
    term-application path, so the two can be checked against each other.
    """
    limits.check_free_links(gf.n_free, "dense Hamiltonian", cap=limits.DENSE_HAMILTONIAN_CAP)
    coupling = as_coupling(beta)
    n = gf.n_free
    dim = 1 << n
    idx = np.arange(dim)
    configs = gf.decode(idx)
    h = np.zeros((dim, dim))
    for q, link in enumerate(gf.free):
        c = configs[:, lattice.staple_link_array(link)].prod(axis=-1).sum(axis=-1)
        t, s = coupling.tanh_sech(c)
        z = 1 - 2 * ((idx >> q) & 1)
        h[idx, idx] += 0.5 * (1.0 - t * z)
        h[idx, idx ^ (1 << q)] += -0.5 * s
    return h


# ----- adiabatic schedules and evolution -----


class StartKind(Enum):
    HOT = "hot"  # beta = 0, uniform superposition over all configurations
    COLD = "cold"  # beta = infinity, single ordered configuration


@dataclass(frozen=True)
class Schedule:
    """Coupling ramp for the adiabatic sweep.

    HOT ramps beta linearly from 0 to the target; COLD ramps the squared
    coupling g^2 = 1/beta linearly from 0, i.e. beta(t) = beta * T / t.
    Couplings are evaluated at step midpoints, which keeps the cold ramp
    finite everywhere.
    """

    start: StartKind
    beta_target: float
    total_time: float
    dt: float = 0.2

    def __post_init__(self):
        if not math.isfinite(self.beta_target) or self.beta_target < 0:
            raise ValueError(f"beta_target must be finite and >= 0, got {self.beta_target}")
        for name in ("total_time", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.total_time / self.dt - 1e-9))

    @property
    def dt_eff(self) -> float:
        return self.total_time / self.n_steps

    def coupling_at(self, step: int) -> Coupling:
        t_mid = (step + 0.5) * self.dt_eff
        if self.start is StartKind.HOT:
            return Coupling(self.beta_target * t_mid / self.total_time)
        return Coupling(self.beta_target * self.total_time / t_mid)


def initial_state(n_qubits: int, start: StartKind) -> np.ndarray:
    dim = 1 << n_qubits
    if start is StartKind.HOT:
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    state = np.zeros(dim, dtype=np.complex128)
    state[0] = 1.0
    return state


def adiabatic_evolve(lattice: Lattice, gf: GaugeFixing, schedule: Schedule) -> np.ndarray:
    """Run the Trotterized sweep; returns the final statevector."""
    limits.check_free_links(gf.n_free, "statevector evolution")
    terms = build_link_terms(lattice, gf)
    state = initial_state(gf.n_free, schedule.start)
    dt = schedule.dt_eff
    for step in range(schedule.n_steps):
        coupling = schedule.coupling_at(step)
        for term in terms:
            apply_term_evolution(state, term, coupling, dt)
    return state


# ----- measurement -----


def expectation_plaquette(state: np.ndarray, lattice: Lattice, gf: GaugeFixing) -> float:
    """Born-rule mean plaquette of a statevector."""
    probs = np.abs(state) ** 2
    ps = plaquette_sum_diagonal(lattice, gf)
    return float((probs @ ps) / (probs.sum() * lattice.n_plaquettes))


def sample_configs(
    state: np.ndarray,
    lattice: Lattice,
    gf: GaugeFixing,
    n_shots: int,
    beta: float,
    seed: int = 0,
    extra: dict | None = None,
) -> Ensemble:
    """Projectively measure every qubit ``n_shots`` times; returns the decoded
    gauge configurations as a quantum-sampler ensemble."""
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    if math.isnan(beta) or beta < 0:
        raise ValueError(f"beta must be >= 0 (inf allowed), got {beta}")
    probs = np.abs(np.asarray(state, dtype=np.complex128)) ** 2
    if probs.shape != (1 << gf.n_free,):
        raise ValueError(f"state has shape {probs.shape}, expected ({1 << gf.n_free},)")
    total = probs.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError("state has no norm")
    cdf = np.cumsum(probs / total)
    rng = np.random.default_rng(seed)
    draws = rng.random(n_shots)
    indices = np.searchsorted(cdf, draws, side="right")
    indices = np.minimum(indices, probs.size - 1).astype(np.uint64)
    meta = EnsembleMeta(
        dims=lattice.dims,
        boundary=lattice.boundary,
        beta=beta,
        sampler=Sampler.QUANTUM,
        seed=seed,
        extra=dict(extra or {}),
    )
    return Ensemble(meta=meta, configs=gf.decode(indices))


# ----- spectrum diagnostics -----


def eigsh(*args, **kwargs):
    """``scipy.sparse.linalg.eigsh``, imported on the first call.

    Importing ``scipy.sparse.linalg`` costs about 0.4 s, which every ``z2q``
    process would pay although only ``lowest_eigenvalues`` needs it.  That
    function looks ``quantum.eigsh`` up when it runs, so a caller may rebind
    this name, e.g. to an ``eigsh`` with a fixed start-vector generator.
    """
    from scipy.sparse.linalg import eigsh as scipy_eigsh

    return scipy_eigsh(*args, **kwargs)


def lowest_eigenvalues(lattice: Lattice, gf: GaugeFixing, beta, k: int = 4) -> np.ndarray:
    """The k smallest Hamiltonian eigenvalues, ascending.

    Small systems are diagonalized densely; larger ones go through an
    iterative matrix-free solver on the term-application kernel.
    """
    coupling = as_coupling(beta)
    n = gf.n_free
    dim = 1 << n
    k = min(k, dim)
    if n <= limits.DENSE_HAMILTONIAN_CAP:
        h = build_dense_hamiltonian(lattice, gf, coupling)
        return np.linalg.eigvalsh(h)[:k]
    limits.check_free_links(n, "iterative eigensolver", cap=limits.EIGENSOLVER_CAP)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

    terms = build_link_terms(lattice, gf)

    def matvec(x):
        return apply_hamiltonian(np.asarray(x, dtype=np.float64).ravel(), terms, coupling)

    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    try:
        vals = eigsh(op, k=k, which="SA", return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver converged only {len(exc.eigenvalues)} of {k} eigenvalues",
            eigenvalues=np.sort(exc.eigenvalues),
        ) from exc
    return np.sort(vals)

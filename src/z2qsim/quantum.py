"""Quantum simulation of the gauge-theory Gibbs state.

One qubit per free (gauge-unfixed) link, basis index bit q encoding link
``gf.free[q]`` with bit 0 meaning U = +1.  The parent Hamiltonian is a sum of
one term per free link,

    h_n = 1/2 (I - tanh(beta C_n) Z_n - sech(beta C_n) X_n),

with C_n the staple-sum operator, diagonal in the other qubits.  Because
tanh^2 + sech^2 = 1 each h_n is a rank-1 projector h_n = w w^T, where the
unit vector w = (w0, w1) on qubit n depends on C_n.

A Trotter step applies each factor exactly as exp(-i dt h) = I +
(e^{-i dt} - 1) h, through one projector kernel: r = scale (w0 a + w1 b) on
every amplitude pair (a, b), then a += w0 r and b += w1 r, with scale =
e^{-i dt} - 1.  On states of more than 2**15 amplitudes the step is
cache-blocked and split over two threads without changing any amplitude's
arithmetic (see ``trotter_step``), so its output is byte-identical to
term-by-term application.  H psi, which the eigensolver needs, is computed in
the Pauli form instead, on the calling thread: H psi = D psi - 1/2 sum_n
sech(beta C_n) X_n psi, with the diagonal D = sum_n <b|h_n|b> built once per
solve (see ``apply_hamiltonian``).  The unique zero mode carries
amplitudes e^{-S/2}, which is what makes measuring the final state
equivalent to Gibbs sampling.  The eigensolver starts from it: E0 is the
Rayleigh quotient of this analytic zero mode, and the values above it come
from LOBPCG on its orthogonal complement (see ``lowest_eigenvalues``).

States are plain complex128 arrays of length 2**n_free.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import limits
from .classical import Coupling, _check_count, plaquette_products, plaquette_sum_diagonal
from .ensemble import Ensemble, EnsembleMeta, Sampler
from .lattice import GaugeFixing, Lattice, parity_sum, plaquette_masks


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge; carries partial results."""

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


# ----- the analytic zero mode -----


def ground_state_reference(lattice: Lattice, gf: GaugeFixing, beta: float) -> np.ndarray:
    """Normalized amplitudes e^{-S/2} / sqrt(Z), the analytic zero mode."""
    beta = Coupling(beta).beta  # finite and >= 0, else ValueError
    ps = plaquette_sum_diagonal(lattice, gf).astype(np.float64)
    # state 0 (every link +1) has the largest sum, n_plaquettes
    amps = np.exp(0.5 * beta * (ps - lattice.n_plaquettes))
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
    ys = np.arange(1 << (n - 1), dtype=np.uint64)
    masks = plaquette_masks(lattice, gf)
    terms = []
    for q, link in enumerate(gf.free):
        staples = [masks[p] for p in lattice.plaquettes_of(link)]
        low = (1 << q) - 1  # removing bit q leaves the staples; the bits above it move down one
        c = parity_sum(ys, [(m & low) | ((m >> (q + 1)) << q) for m in staples])
        table = (c + len(staples)).astype(np.int8)
        table.setflags(write=False)
        terms.append(LinkTerm(qubit=q, n_staples=len(staples), n_qubits=n, c_table=table))
    return tuple(terms)


def _term_weights(term: LinkTerm, coupling: Coupling):
    """(w0, w1) of h = w w^T for each distinct staple sum, in c_table order."""
    c = np.arange(-term.n_staples, term.n_staples + 1)
    e = np.exp(-coupling.beta * np.abs(c))
    norm = 1.0 / np.sqrt(1.0 + e * e)
    small = e * norm
    return np.where(c >= 0, small, norm), -np.where(c >= 0, norm, small)


# Cache blocking (Doi & Horii, IEEE QCE 2020).  States of up to 2**15
# amplitudes (512 KiB) are applied term by term, whole, on the calling thread.
# Larger ones are cut into blocks of 2**14 amplitude pairs: for q < 15 a block
# is one contiguous 2**15-amplitude chunk, so the q < 15 terms are applied
# chunk by chunk while the chunk and its 1 MiB of scratch stay in a 2 MiB L2
# cache, and the two halves of the state go to two threads.  On a 2-vCPU VM
# the blocked two-thread step was level with the whole-term one at 15 qubits
# (4-5 ms) and faster from 16 on (16: 7.9 vs 10.2 ms, 17: 14.6 vs 21.8 ms);
# at 14 it was slower (2.9 vs 2.3 ms): on small states the helper's two
# handoffs per step and the per-block calls outweigh what they save.
_BLOCK_QUBITS = 15


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _layout(n_qubits: int) -> tuple[int, tuple[int, ...]]:
    """(pairs per block, reduced-index bounds of each worker's share).

    A process limited to one CPU keeps the blocks but runs them all on the
    calling thread: there the two threads only take turns, and a hypercube
    sweep pinned to one CPU ran 20-30% slower with the helper than without.
    """
    pairs = 1 << (n_qubits - 1)
    if n_qubits <= _BLOCK_QUBITS:
        return pairs, (0, pairs)
    block = 1 << (_BLOCK_QUBITS - 1)
    if _usable_cpus() < 2:
        return block, (0, pairs)
    return block, (0, pairs >> 1, pairs)


def _pair_view(state: np.ndarray, qubit: int, start: int, size: int) -> np.ndarray:
    """(rows, 2, lo) view of the amplitude pairs of ``qubit`` whose reduced
    indices (basis index with bit ``qubit`` removed) run from ``start`` for
    ``size``; a block is whole rows of 2**qubit pairs or lies inside one."""
    lo = 1 << qubit
    row, col = divmod(start, lo)
    rows = max(size >> qubit, 1)
    return state.reshape(-1, 2, lo)[row : row + rows, :, col : col + min(size, lo)]


def _apply_projector(pairs, c_table_block, w0, w1, scale, scratch):
    """pairs += scale * h @ pairs on one block of amplitude pairs.

    ``pairs`` is a (rows, 2, lo) pair view, ``c_table_block`` the block's
    rows * lo staple-table entries and ``w0``/``w1`` the weights in the
    state's dtype, so no product casts.  Every product is written into
    ``scratch``, a (4, block) array; r is formed before either half is
    written.
    """
    shape = (pairs.shape[0], pairs.shape[2])
    c = c_table_block.reshape(shape)
    g0, g1, r, t = scratch[:, : c.size].reshape(4, *shape)
    # mode="clip": c_table is in range by construction, and the default
    # "raise" copies ``out`` on every call
    w0.take(c, out=g0, mode="clip")
    w1.take(c, out=g1, mode="clip")
    a, b = pairs[:, 0], pairs[:, 1]
    np.multiply(g0, a, out=r)
    np.multiply(g1, b, out=t)
    r += t
    r *= scale
    a += np.multiply(g0, r, out=t)
    b += np.multiply(g1, r, out=t)


@lru_cache(maxsize=1)
def _helper():
    """The one helper thread, started on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="z2q-step")


def trotter_step(state: np.ndarray, terms, coupling: Coupling, dt: float) -> np.ndarray:
    """In-place exact evolution exp(-i dt h) = I + (e^{-i dt} - 1) h for each
    term in turn; returns the state.

    ``terms`` ascend in qubit, as ``build_link_terms`` gives them.  With two
    workers (see ``_layout``), worker h (the calling thread for h = 0, the
    helper thread for h = 1) takes the reduced indices [h, h + 1) * 2**(n-2)
    of every term: for q < n - 1 that is half h of the state, so both halves
    run at once and only the top qubit's term waits for both.  Each amplitude
    sees the same arithmetic in the same order as term-by-term application,
    so the result is bit-identical.  The helper calls no function that
    ``perfbench/tracer.py`` wraps: its span stack is single-threaded.
    """
    if not terms:
        return state
    scale = np.exp(-1j * dt) - 1.0
    n = terms[0].n_qubits
    block, bounds = _layout(n)
    workers = len(bounds) - 1
    # at most 1 MiB per worker: freeing a larger array raises glibc's dynamic
    # mmap threshold, after which later temporaries stay resident
    scratch = [np.empty((4, block), dtype=state.dtype) for _ in range(workers)]
    weights, items = {}, []  # the weights depend on the staple count alone
    for term in terms:
        if term.n_staples not in weights:
            pair = _term_weights(term, coupling)
            weights[term.n_staples] = [w.astype(state.dtype) for w in pair]
        items.append((term, *weights[term.n_staples]))
    chunked = [item for item in items if 1 << item[0].qubit <= block]
    blockwise = [item for item in items[len(chunked) :] if item[0].qubit < n - 1]
    top = items[len(chunked) + len(blockwise) :]

    def apply(h, start, item):
        term, w0, w1 = item
        pairs = _pair_view(state, term.qubit, start, block)
        c = term.c_table[start : start + block]
        _apply_projector(pairs, c, w0, w1, scale, scratch[h])

    def below_top(h):
        starts = range(bounds[h], bounds[h + 1], block)
        for start in starts:
            for item in chunked:
                apply(h, start, item)
        for item in blockwise:
            for start in starts:
                apply(h, start, item)

    def top_term(h):
        for start in range(bounds[h], bounds[h + 1], block):
            apply(h, start, top[0])

    for work, needed in ((below_top, chunked or blockwise), (top_term, top)):
        if not needed:
            continue
        if workers == 1:
            work(0)
            continue
        future = _helper().submit(work, 1)
        try:
            work(0)
        finally:
            future.result()
    return state


def apply_term_evolution(state: np.ndarray, term: LinkTerm, coupling: Coupling, dt: float):
    """In-place exact evolution exp(-i dt h) for one term; returns the state.

    The pipeline steps through ``trotter_step``; this one-term entry point is
    what the expm tests call and what ``perfbench/tracer.py`` wraps by name to
    time each qubit position, so it is kept.
    """
    return trotter_step(state, (term,), coupling, dt)


def _hamiltonian_diagonal(terms, coupling: Coupling) -> np.ndarray:
    """D = sum_n <b|h_n|b> on every basis state b, as float64.

    <b|h_n|b> is w0(c_n)^2 where bit n of b is 0 and w1(c_n)^2 where it is 1:
    the heat-bath probability of flipping link n, so D is the rate at which
    the Glauber chain leaves b.
    """
    n = terms[0].n_qubits
    half = 1 << (n - 1)
    diagonal = np.zeros(2 * half)
    for term in terms:
        w0, w1 = _term_weights(term, coupling)
        pairs = _pair_view(diagonal, term.qubit, 0, half)
        c = term.c_table.reshape(pairs.shape[0], pairs.shape[2])
        pairs[:, 0] += (w0 * w0)[c]
        pairs[:, 1] += (w1 * w1)[c]
    return diagonal


def apply_hamiltonian(
    state: np.ndarray, terms, coupling: Coupling, diagonal=None, scratch=None
) -> np.ndarray:
    """H psi in the Pauli form D psi - 1/2 sum_n sech(beta C_n) X_n psi, on
    the calling thread; returns a new array in the state's dtype.

    ``diagonal`` is D from ``_hamiltonian_diagonal(terms, coupling)`` and
    ``scratch`` a (2, 2**(n-1)) array in the state's dtype.  Neither depends
    on psi, so ``lowest_eigenvalues`` makes both once per solve; they are
    made here when not given.  Per term, the off-diagonal w0 w1 =
    -sech(beta c) / 2 is gathered once into ``scratch[0]``, and each half of
    every amplitude pair gains it times the other half.
    """
    if diagonal is None:
        diagonal = _hamiltonian_diagonal(terms, coupling)
    if scratch is None:
        scratch = np.empty((2, state.size >> 1), dtype=state.dtype)
    out = np.multiply(diagonal, state, dtype=state.dtype)
    tables = {}  # w0 w1 depends on the staple count alone
    for term in terms:
        if term.n_staples not in tables:
            w0, w1 = _term_weights(term, coupling)
            tables[term.n_staples] = (w0 * w1).astype(state.dtype)
        src = _pair_view(state, term.qubit, 0, scratch.shape[1])
        dst = _pair_view(out, term.qubit, 0, scratch.shape[1])
        g, t = scratch.reshape(2, src.shape[0], src.shape[2])
        tables[term.n_staples].take(term.c_table.reshape(g.shape), out=g, mode="clip")
        dst[:, 0] += np.multiply(g, src[:, 1], out=t)
        dst[:, 1] += np.multiply(g, src[:, 0], out=t)
    return out


def build_dense_hamiltonian(lattice: Lattice, gf: GaugeFixing, beta: float) -> np.ndarray:
    """Dense real-symmetric matrix of the full Hamiltonian (small systems only).

    Built link by link from the Pauli form, with C_n = U_n * (sum of the
    plaquettes through link n) on decoded configurations: independently of the
    bit masks and the fast term-application path, so they can be checked.
    """
    limits.check_free_links(gf.n_free, "dense Hamiltonian", cap=limits.DENSE_HAMILTONIAN_CAP)
    coupling = Coupling(beta)
    n = gf.n_free
    dim = 1 << n
    idx = np.arange(dim)
    configs = gf.decode(idx)
    plaquettes = plaquette_products(configs, lattice)
    h = np.zeros((dim, dim))
    for q, link in enumerate(gf.free):
        c = configs[:, link] * plaquettes[:, lattice.plaquettes_of(link)].sum(axis=-1)
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
        # a StartKind or its value, else ValueError
        object.__setattr__(self, "start", StartKind(self.start))
        # finite and >= 0, else ValueError; a float, so every ramp point is one
        object.__setattr__(self, "beta_target", Coupling(self.beta_target).beta)
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


def initial_state(n_qubits: int, start: StartKind | str) -> np.ndarray:
    dim = 1 << n_qubits
    if StartKind(start) is StartKind.HOT:
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
        trotter_step(state, terms, schedule.coupling_at(step), dt)
    return state


# ----- measurement -----


def expectation_plaquette(state: np.ndarray, lattice: Lattice, gf: GaugeFixing) -> float:
    """Born-rule mean plaquette of a statevector."""
    probs = np.abs(state) ** 2
    total = _born_norm(probs, gf)
    ps = plaquette_sum_diagonal(lattice, gf)
    return float((probs @ ps) / (total * lattice.n_plaquettes))


def _born_norm(probs: np.ndarray, gf: GaugeFixing) -> float:
    """Sum of the Born weights ``probs``; ValueError unless there is one per
    basis state and their sum is finite and positive."""
    if probs.shape != (1 << gf.n_free,):
        raise ValueError(f"state has shape {probs.shape}, expected ({1 << gf.n_free},)")
    total = probs.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError("state has no norm")
    return total


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
    _check_count("n_shots", n_shots, 1)
    beta = Coupling(beta).beta  # finite and >= 0, else ValueError
    # |psi|^2, its normalisation and the CDF share one float64 buffer
    cdf = np.abs(np.asarray(state, dtype=np.complex128))
    np.square(cdf, out=cdf)
    total = _born_norm(cdf, gf)
    np.divide(cdf, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    rng = np.random.default_rng(seed)
    draws = rng.random(n_shots)
    indices = np.searchsorted(cdf, draws, side="right")
    indices = np.minimum(indices, cdf.size - 1).astype(np.uint64)
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

# Residual bound ||H v - lambda v|| for every returned unit v.  H is
# symmetric, so each value lies within its residual of an eigenvalue, and
# away from degeneracy within residual**2 / spacing: on the periodic 4x4
# lattice at beta = 0.7 (17 free links) 1e-7 took 128 matvecs and gave the
# gap to 1e-14, where 1e-8 took 139 and 1e-10 took 182.
_LOBPCG_TOL = 1e-7
# LOBPCG iterations, each one matvec per sought value, before the solve is
# declared stalled.  The 17-link hypercube takes about 660 at beta = 3, where
# its gap is 2e-5 (12 s); 2000 bounds a stalled solve near 30 s per value.
_LOBPCG_MAXITER = 2000
# Jacobi preconditioner 1/(D + shift) with D the diagonal of H, the Glauber
# escape rate.  D nearly vanishes on ordered states at large beta, and the
# shift keeps the preconditioner bounded there.  On the periodic 4x4 lattice
# at beta = 0.7 the solve took 128 matvecs with it and 266 without; shifts
# from 0.01 to 0.1 were level there, and 1.0 took 211 matvecs against 132 on
# the hypercube at beta = 1.5.
_PRECONDITIONER_SHIFT = 0.1


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b, kept off BLAS (an OpenBLAS dot spins up its threads)."""
    return float(np.multiply(a, b).sum())


def lowest_eigenvalues(lattice: Lattice, gf: GaugeFixing, beta: float, k: int = 4) -> np.ndarray:
    """The k smallest Hamiltonian eigenvalues, ascending.

    Up to ``limits.DENSE_HAMILTONIAN_CAP`` free links H is diagonalized
    densely.  Above that the lowest value is E0 = <psi0|H|psi0>, the Rayleigh
    quotient of the analytic zero mode psi0 = ``ground_state_reference``, and
    the k - 1 values above it come from LOBPCG (Knyazev 2001) on the
    complement of psi0: matrix-free on ``apply_hamiltonian``, with a Jacobi
    preconditioner and a seeded start block, so two calls return the same
    bytes.  The diagonal and the scratch are made once per solve.  A pair
    whose residual exceeds the tolerance raises ``ConvergenceError`` carrying
    all k values.  A k above the dimension 2**n_free, or one that LOBPCG
    cannot take (dim - 1 < 5 (k - 1)), raises ``ValueError``.  The values
    above E0 are certified only to the absolute residual ``_LOBPCG_TOL``: a
    gap below about 1e-6 is only a variational upper bound.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    coupling = Coupling(beta)
    n = gf.n_free
    dim = 1 << n
    if n <= limits.DENSE_HAMILTONIAN_CAP:
        if k > dim:
            raise ValueError(f"k = {k} is too large for {n} free links: at most {dim}")
        return np.linalg.eigvalsh(build_dense_hamiltonian(lattice, gf, beta))[:k]
    limits.check_free_links(n, "iterative eigensolver", cap=limits.EIGENSOLVER_CAP)
    if 5 * (k - 1) > dim - 1:
        raise ValueError(f"k = {k} is too large for {n} free links: at most {1 + (dim - 1) // 5}")
    terms = build_link_terms(lattice, gf)
    # the scratch, too, is made once per solve: allocated per matvec, glibc
    # handed it back to the OS each time and every matvec faulted about 600
    # pages back in (17 free links)
    diagonal = _hamiltonian_diagonal(terms, coupling)
    scratch = np.empty((2, dim >> 1))

    def matvec(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        return apply_hamiltonian(x, terms, coupling, diagonal, scratch)

    psi0 = ground_state_reference(lattice, gf, beta)
    e0 = _dot(psi0, matvec(psi0))
    if k == 1:
        return np.array([e0])
    # imported here: scipy.sparse.linalg costs every z2q process about 0.4 s
    from scipy.sparse.linalg import LinearOperator, lobpcg

    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    inverse = diagonal + _PRECONDITIONER_SHIFT
    np.reciprocal(inverse, out=inverse)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, (dim, k - 1))
    vals, vecs = lobpcg(
        op,
        start,
        M=lambda block: inverse[:, None] * block,
        Y=psi0[:, None],
        tol=_LOBPCG_TOL,
        maxiter=_LOBPCG_MAXITER,
        largest=False,
    )
    values = np.sort(np.concatenate(([e0], vals)))
    for value, v in zip(vals, vecs.T):
        r = matvec(v) - value * v
        residual = math.sqrt(_dot(r, r) / _dot(v, v))
        if not residual <= _LOBPCG_TOL:
            raise ConvergenceError(
                f"eigensolver did not converge: residual {residual:.3g} for "
                f"eigenvalue {value:.6g} exceeds {_LOBPCG_TOL:g}",
                eigenvalues=values,
            )
    return values

"""Classical side of the sampler: plaquette action, brute-force expectation
values, and the Glauber-dynamics Markov chain.

Spin configurations are plain numpy arrays of +-1 (int8) over all links in
global link order.  Observables are callables ``obs(configs) -> values`` that
must broadcast over leading batch axes, so stored ensembles and enumerations
can be evaluated in one vectorized call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import limits
from .ensemble import Ensemble, EnsembleMeta, Sampler
from .lattice import GaugeFixing, Lattice, parity_sum, plaquette_masks


@dataclass(frozen=True)
class Coupling:
    """Inverse coupling beta = 1/g^2, finite and >= 0, stored as a Python float
    so that a numpy scalar's precision does not leak into a run."""

    beta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))

    def tanh_sech(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(tanh(beta*c), sech(beta*c)) for integer staple sums c.

        sech is computed as 2 e^{-|x|} / (1 + e^{-2|x|}) so large arguments
        underflow to 0 instead of overflowing cosh.
        """
        c = np.asarray(c, dtype=np.float64)
        x = self.beta * c
        ax = np.abs(x)
        sech = 2.0 * np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))
        return np.tanh(x), sech


# ----- action -----


def plaquette_products(config, lattice: Lattice) -> np.ndarray:
    """Products of the four links of every plaquette, int8 of shape (..., n_plaquettes)."""
    config = np.asarray(config)
    if config.shape[-1] != lattice.n_links:
        raise ValueError(
            f"config has {config.shape[-1]} entries, lattice has {lattice.n_links} links"
        )
    return config[..., lattice.plaq_links].prod(axis=-1, dtype=np.int8)


_PARITY_BLOCK = 1 << 16  # basis states whose plaquette sums are computed at a time


def plaquette_sum_diagonal(lattice: Lattice, gf: GaugeFixing) -> np.ndarray:
    """Sum of all plaquette products for every basis state, int32 of shape (2**n_free,).

    The basis-index twin of ``plaquette_products(...).sum(axis=-1)``: entry b
    is the sum on ``gf.decode(b)``, read from bit-mask parities.
    """
    limits.check_free_links(gf.n_free, "plaquette diagonal")
    masks = plaquette_masks(lattice, gf)
    total = np.empty(1 << gf.n_free, dtype=np.int32)
    # a block of indices at a time: no uint64 index array over the whole basis
    for start in range(0, total.size, _PARITY_BLOCK):
        block = total[start : start + _PARITY_BLOCK]
        block[:] = parity_sum(np.arange(start, start + block.size, dtype=np.uint64), masks)
    return total


def plaquette_average(config, lattice: Lattice):
    """Mean plaquette value, in [-1, 1]."""
    sums = plaquette_products(config, lattice).sum(axis=-1, dtype=np.int64)
    return sums / lattice.n_plaquettes


# ----- brute-force expectation -----


_CHUNK = 1 << 16  # basis states weighted, and decoded for an observable, at a time


def exact_expectation(
    lattice: Lattice,
    gf: GaugeFixing,
    beta: float | Sequence[float],
    observable=None,
) -> float | list[float]:
    """Gibbs average of an observable over all gauge-fixed configurations.

    ``observable(configs)`` must return one value per configuration.  When
    it is None the average is of the mean plaquette, read off the plaquette
    sums with ``plaquette_average``'s arithmetic (the same bits as that
    call), and nothing is decoded.  ``beta`` is a scalar, giving a float, or
    a 1-D sequence, giving a list with one value per coupling in the given
    order; every value equals the scalar call bit for bit.

    The sums come from one ``plaquette_sum_diagonal`` call and are weighted
    ``_CHUNK`` states at a time, each chunk decoded once for all couplings.
    The weights are e^{-S - beta n_plaquettes}: state 0 (every link +1) has
    the largest sum, n_plaquettes, so no weight exceeds 1.  The result is
    independent of chunk size to ~1e-15 relative.
    """
    scalar = np.ndim(beta) == 0
    betas = [beta] if scalar else list(beta)
    if np.ndim(beta) > 1 or not betas:
        raise ValueError(f"beta must be a number or a non-empty 1-D sequence, got {beta!r}")
    betas = [Coupling(float(b)).beta for b in betas]  # finite and >= 0, else ValueError
    all_sums = plaquette_sum_diagonal(lattice, gf)  # checks the free-link cap
    z = [0.0] * len(betas)
    oz = [0.0] * len(betas)
    for start in range(0, all_sums.size, _CHUNK):
        sums = all_sums[start : start + _CHUNK]
        if observable is None:
            vals = sums / lattice.n_plaquettes
        else:
            idx = np.arange(start, start + sums.size, dtype=np.uint64)
            vals = np.asarray(observable(gf.decode(idx)), dtype=np.float64)
            if vals.shape != sums.shape:
                raise ValueError(f"observable returned shape {vals.shape}, expected {sums.shape}")
        for i, b in enumerate(betas):
            w = np.exp(b * sums - b * lattice.n_plaquettes)
            z[i] += float(w.sum())
            oz[i] += float((vals * w).sum())
    values = [o / zz for o, zz in zip(oz, z)]
    return values[0] if scalar else values


# ----- Glauber dynamics -----


def flip_probability(u: int, c: int, beta: float) -> float:
    """Glauber acceptance e^{-dS}/(1+e^{-dS}) with dS = 2 beta u c.

    Equals e^{-beta u c} / (2 cosh(beta c)), the per-link flip weight of the
    Markov matrix without the uniform 1/N_free selection factor.
    """
    ds = 2.0 * beta * u * c
    if ds >= 0:
        e = math.exp(-ds)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(ds))


def _acceptance_table(plaq_of, beta: float):
    """``accept[q][j]``: flip probability of free link q with j of the n_q
    plaquettes through it frustrated (product -1).

    The link's value u times its staple sum C is the sum of those plaquettes,
    n_q - 2j, and ``flip_probability`` reads u and C only as ``2.0*beta*u*c``,
    which a sign change leaves exact: the entry is the same float as
    ``flip_probability(u, C, beta)``.
    """
    return tuple(
        tuple(flip_probability(1, m.bit_count() - 2 * j, beta) for j in range(m.bit_count() + 1))
        for m in plaq_of
    )


_BLOCK_UPDATES = 1 << 14  # single-link updates whose random numbers ``mcmc_run`` draws at once


def _check_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def mcmc_run(
    lattice: Lattice,
    gf: GaugeFixing,
    beta: float,
    n_configs: int,
    n_therm: int = 100,
    stride: int = 10,
    seed: int = 0,
) -> Ensemble:
    """Glauber-chain baseline: n_configs gauge configurations, ``stride``
    sweeps apart, after ``n_therm`` thermalization sweeps from a random start.

    ``rng = default_rng(seed)`` draws the start state and spawns
    ``links, uniforms = rng.spawn(2)``.  Each sweep makes n_free single-link
    updates, the links from ``links.integers(0, n_free, size=n_free)`` and
    the uniforms from ``uniforms.random(n_free)``.  Consecutive calls on a
    generator equal one call of the summed size (a bounded integer keeps its
    spare 32-bit half in the bit generator's state; a double takes a whole
    word), so drawing ``_BLOCK_UPDATES`` updates (at least one sweep) at a
    time gives the same configurations whatever the block length.

    The chain keeps a register of frustrated plaquettes beside the state.  An
    update of link q counts the frustrated plaquettes through it with one
    popcount, looks its flip probability up in ``_acceptance_table``, and an
    accepted flip toggles the link's bit and its plaquettes' bits.
    """
    beta = Coupling(beta).beta  # finite and >= 0, else ValueError
    _check_count("n_configs", n_configs, 1)
    _check_count("n_therm", n_therm, 0)
    _check_count("stride", stride, 1)
    _check_count("seed", seed, 0)  # the header records it, and load reads it back as an int
    limits.check_free_links(gf.n_free, "mcmc_run", cap=limits.CHAIN_STATE_CAP)
    rng = np.random.default_rng(seed)
    links, uniforms = rng.spawn(2)
    # per free link: bit p set for every plaquette p through it
    plaq_of = [sum(1 << p for p in lattice.plaquettes_of(link)) for link in gf.free]
    accept = _acceptance_table(plaq_of, beta)
    n_free = gf.n_free
    state = 0
    for q, bit in enumerate(rng.integers(0, 2, size=n_free)):
        state |= int(bit) << q
    # bit p set while plaquette p is frustrated; a Python int, so no word limit
    masks = plaquette_masks(lattice, gf)
    frustrated = sum(((state & m).bit_count() & 1) << p for p, m in enumerate(masks))
    n_configs, n_therm, stride = int(n_configs), int(n_therm), int(stride)
    n_sweeps = n_therm + n_configs * stride
    block = max(1, _BLOCK_UPDATES // n_free)  # sweeps per draw
    samples = np.empty(n_configs, dtype=np.uint64)
    i = 0
    for done in range(0, n_sweeps, block):
        n = min(block, n_sweeps - done)
        qs = links.integers(0, n_free, size=n * n_free).tolist()
        us = uniforms.random(n * n_free).tolist()
        # offsets into the block's updates after which a configuration is recorded
        first = (n_therm + (i + 1) * stride - done) * n_free
        records = range(first, n * n_free + 1, stride * n_free)
        pos = 0
        for stop in (*records, None):
            for q, uni in zip(qs[pos:stop], us[pos:stop]):
                m = plaq_of[q]
                if uni < accept[q][(frustrated & m).bit_count()]:
                    state ^= 1 << q
                    frustrated ^= m
            if stop is None:
                break
            samples[i] = state
            i += 1
            pos = stop
    meta = EnsembleMeta(
        dims=lattice.dims,
        boundary=lattice.boundary,
        beta=beta,
        sampler=Sampler.MCMC,
        seed=seed,
        extra={"n_therm": str(n_therm), "stride": str(stride)},
    )
    return Ensemble(meta=meta, configs=gf.decode(samples))

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
from .lattice import GaugeFixing, Lattice, staple_masks


@dataclass(frozen=True)
class Coupling:
    """Inverse coupling beta = 1/g^2, finite and >= 0."""

    beta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

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


def as_coupling(beta) -> Coupling:
    return beta if isinstance(beta, Coupling) else Coupling(float(beta))


# ----- action -----


def plaquette_products(config, lattice: Lattice) -> np.ndarray:
    """Products of the four links of every plaquette, int8 of shape (..., n_plaquettes)."""
    config = np.asarray(config)
    if config.shape[-1] != lattice.n_links:
        raise ValueError(
            f"config has {config.shape[-1]} entries, lattice has {lattice.n_links} links"
        )
    return config[..., lattice.plaq_links].prod(axis=-1, dtype=np.int8)


def action(config, lattice: Lattice, beta: float):
    """S = -beta * sum over plaquettes of the four-link product."""
    sums = plaquette_products(config, lattice).sum(axis=-1, dtype=np.int64)
    return -beta * sums


def plaquette_average(config, lattice: Lattice):
    """Mean plaquette value, in [-1, 1]."""
    sums = plaquette_products(config, lattice).sum(axis=-1, dtype=np.int64)
    return sums / lattice.n_plaquettes


def action_density(config, lattice: Lattice, beta: float):
    """Action per plaquette: S / n_plaquettes."""
    return action(config, lattice, beta) / lattice.n_plaquettes


def staple_sum(config, n: int, lattice: Lattice) -> int:
    """C_n: sum over staples of link n of their three-link products."""
    config = np.asarray(config)
    staples = lattice.staple_link_array(n)
    if staples.shape[0] == 0:
        return 0
    return int(config[staples].prod(axis=1).sum())


# ----- brute-force expectation -----


def enumerate_basis(gf: GaugeFixing, chunk: int = 1 << 16):
    """Yield (indices, configs) chunks covering all 2**n_free gauge-fixed states."""
    total = 1 << gf.n_free
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        yield idx, gf.decode(idx)


def exact_expectation(
    lattice: Lattice,
    gf: GaugeFixing,
    beta: float | Sequence[float],
    observable,
    chunk: int = 1 << 16,
) -> float | list[float]:
    """Gibbs average of an observable over all gauge-fixed configurations.

    ``observable(configs)`` must return one value per configuration.
    ``beta`` is a scalar, giving a float, or a 1-D sequence, giving a list
    with one value per coupling in the given order.  Each chunk of the basis
    is decoded, and its plaquette sums and observable values are computed,
    once for all couplings; every value equals the scalar call bit for bit.

    Accumulates with a running max-shift of -S per coupling so exp never
    overflows; the result is independent of chunk size to ~1e-15 relative.
    """
    scalar = np.ndim(beta) == 0
    betas = [beta] if scalar else list(beta)
    if np.ndim(beta) > 1 or not betas:
        raise ValueError(f"beta must be a number or a non-empty 1-D sequence, got {beta!r}")
    for b in betas:
        Coupling(float(b))  # finite and >= 0, else ValueError
    _check_count("chunk", chunk, 1)
    limits.check_free_links(gf.n_free, "exact_expectation")
    shift = [-math.inf] * len(betas)  # running max of -S
    z = [0.0] * len(betas)
    oz = [0.0] * len(betas)
    for _, configs in enumerate_basis(gf, chunk):
        sums = plaquette_products(configs, lattice).sum(axis=-1, dtype=np.int64)
        vals = np.asarray(observable(configs), dtype=np.float64)
        if vals.shape != (len(configs),):
            raise ValueError(
                f"observable returned shape {vals.shape}, expected ({len(configs)},)"
            )
        for i, b in enumerate(betas):
            s = -b * sums  # the action, as ``action`` computes it
            m = float((-s).max())
            if m > shift[i]:
                rescale = math.exp(shift[i] - m)
                z[i] *= rescale
                oz[i] *= rescale
                shift[i] = m
            w = np.exp(-s - shift[i])
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


def _acceptance_table(masks, beta: float):
    """``accept[q][bit][k]``: flip probability of free link q holding ``bit``
    with k of its ``len(masks[q])`` staples odd, i.e. staple sum C = len - 2k."""
    return tuple(
        tuple(
            tuple(flip_probability(1 - 2 * bit, len(m) - 2 * k, beta) for k in range(len(m) + 1))
            for bit in (0, 1)
        )
        for m in masks
    )


def _run_sweeps(
    state: int,
    n_sweeps: int,
    masks,
    accept,
    n_free: int,
    rng: np.random.Generator,
) -> int:
    """n_sweeps full sweeps (n_free single-link updates each) on a bit state."""
    for _ in range(n_sweeps):
        qs = rng.integers(0, n_free, size=n_free).tolist()
        us = rng.random(n_free).tolist()
        for q, uni in zip(qs, us):
            k = 0
            for m in masks[q]:
                k += (state & m).bit_count() & 1
            if uni < accept[q][(state >> q) & 1][k]:
                state ^= 1 << q
    return state


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
    Bit-identical for a fixed seed."""
    Coupling(float(beta))  # finite and >= 0, else ValueError
    _check_count("n_configs", n_configs, 1)
    _check_count("n_therm", n_therm, 0)
    _check_count("stride", stride, 1)
    rng = np.random.default_rng(seed)
    masks = staple_masks(lattice, gf)
    accept = _acceptance_table(masks, beta)
    n_free = gf.n_free
    state = 0
    for q, bit in enumerate(rng.integers(0, 2, size=n_free)):
        state |= int(bit) << q
    state = _run_sweeps(state, n_therm, masks, accept, n_free, rng)
    samples = np.empty(n_configs, dtype=np.uint64)
    for i in range(n_configs):
        state = _run_sweeps(state, stride, masks, accept, n_free, rng)
        samples[i] = state
    meta = EnsembleMeta(
        dims=lattice.dims,
        boundary=lattice.boundary,
        beta=beta,
        sampler=Sampler.MCMC,
        seed=seed,
        extra={"n_therm": str(n_therm), "stride": str(stride)},
    )
    return Ensemble(meta=meta, configs=gf.decode(samples))

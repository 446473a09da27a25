"""Classical side of the sampler: plaquette action, brute-force expectation
values, and the Glauber-dynamics Markov chain.

Spin configurations are plain numpy arrays of +-1 (int8) over all links in
global link order.  Observables are callables ``obs(configs) -> values`` that
must broadcast over leading batch axes, so stored ensembles and enumerations
can be evaluated in one vectorized call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .ensemble import Ensemble, EnsembleMeta, Sampler
from .lattice import GaugeFixing, Lattice, staple_masks


@dataclass(frozen=True)
class Coupling:
    """Inverse coupling beta = 1/g^2.

    The weak-coupling limit beta -> infinity is a flag, never a float inf:
    coefficient formulas take the limit analytically so no 0*inf can occur.
    """

    beta: float = 0.0
    infinite: bool = False

    def __post_init__(self):
        if not self.infinite:
            if not math.isfinite(self.beta) or self.beta < 0.0:
                raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    def tanh_sech(self, c) -> tuple[np.ndarray, np.ndarray]:
        """(tanh(beta*c), sech(beta*c)) for integer staple sums c.

        In the infinite limit this is (sign(c), 0) for c != 0 and (0, 1) for
        c = 0.  sech is computed as 2 e^{-|x|} / (1 + e^{-2|x|}) so large
        arguments underflow to 0 instead of overflowing cosh.
        """
        c = np.asarray(c, dtype=np.float64)
        if self.infinite:
            return np.sign(c), (c == 0).astype(np.float64)
        x = self.beta * c
        ax = np.abs(x)
        sech = 2.0 * np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))
        return np.tanh(x), sech


INFINITE_COUPLING = Coupling(infinite=True)


def as_coupling(beta) -> Coupling:
    return beta if isinstance(beta, Coupling) else Coupling(float(beta))


# ----- action -----


def plaquette_products(config, lattice: Lattice) -> np.ndarray:
    """Products of the four links of every plaquette, shape (..., n_plaquettes)."""
    config = np.asarray(config)
    if config.shape[-1] != lattice.n_links:
        raise ValueError(
            f"config has {config.shape[-1]} entries, lattice has {lattice.n_links} links"
        )
    return config[..., lattice.plaq_links].prod(axis=-1)


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


def delta_action(config, n: int, lattice: Lattice, beta: float) -> float:
    """Action change from flipping link n: 2 beta U_n C_n (local, via staples)."""
    config = np.asarray(config)
    return 2.0 * beta * float(config[n]) * staple_sum(config, n, lattice)


def apply_gauge_flip(config, lattice: Lattice, site: int) -> np.ndarray:
    """Gauge transformation with Lambda = -1 at one site: flip incident links."""
    out = np.array(config, copy=True)
    for link, _ in lattice.incident_links(site):
        out[link] = -out[link]
    return out


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
    beta: float,
    observable,
    chunk: int = 1 << 16,
) -> float:
    """Gibbs average of an observable over all gauge-fixed configurations.

    Accumulates with a running max-shift of -S so exp never overflows;
    the result is independent of chunk size to ~1e-15 relative.
    """
    limits.check_free_links(gf.n_free, "exact_expectation")
    shift = -math.inf  # running max of -S
    z = 0.0
    oz = 0.0
    for _, configs in enumerate_basis(gf, chunk):
        s = action(configs, lattice, beta)
        vals = np.asarray(observable(configs), dtype=np.float64)
        m = float((-s).max())
        if m > shift:
            rescale = math.exp(shift - m)
            z *= rescale
            oz *= rescale
            shift = m
        w = np.exp(-s - shift)
        z += float(w.sum())
        oz += float((vals * w).sum())
    return oz / z


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


def _staple_sum_bits(state: int, masks: tuple[int, ...]) -> int:
    c = 0
    for m in masks:
        c += 1 - 2 * ((state & m).bit_count() & 1)
    return c


def glauber_step(
    config, lattice: Lattice, gf: GaugeFixing, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """One Glauber update: pick a free link uniformly, flip with the heat-bath
    probability.  Fixed links are never touched.  Returns a new config."""
    masks = staple_masks(lattice, gf)
    state = gf.encode(config)
    q = int(rng.integers(gf.n_free))
    c = _staple_sum_bits(state, masks[q])
    u = 1 - 2 * ((state >> q) & 1)
    if rng.random() < flip_probability(u, c, beta):
        state ^= 1 << q
    return gf.decode(state)


def _run_sweeps(
    state: int,
    n_sweeps: int,
    masks,
    n_free: int,
    beta: float,
    rng: np.random.Generator,
) -> int:
    """n_sweeps full sweeps (n_free single-link updates each) on a bit state."""
    for _ in range(n_sweeps):
        qs = rng.integers(0, n_free, size=n_free)
        us = rng.random(n_free)
        for q, uni in zip(qs, us):
            q = int(q)
            c = _staple_sum_bits(state, masks[q])
            u = 1 - 2 * ((state >> q) & 1)
            if uni < flip_probability(u, c, beta):
                state ^= 1 << q
    return state


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
    if n_configs < 1 or n_therm < 0 or stride < 1:
        raise ValueError("counts must be positive (n_therm may be 0)")
    rng = np.random.default_rng(seed)
    masks = staple_masks(lattice, gf)
    n_free = gf.n_free
    state = 0
    for q, bit in enumerate(rng.integers(0, 2, size=n_free)):
        state |= int(bit) << q
    state = _run_sweeps(state, n_therm, masks, n_free, beta, rng)
    samples = np.empty(n_configs, dtype=np.uint64)
    for i in range(n_configs):
        state = _run_sweeps(state, stride, masks, n_free, beta, rng)
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

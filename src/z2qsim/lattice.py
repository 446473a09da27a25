"""Hypercubic lattice geometry for Z2 gauge fields.

Sites live on a D-dimensional grid (2 <= D <= 4), links on nearest-neighbor
bonds, plaquettes on unit squares.  Site indices are row-major in ``dims``;
link indices are lexicographic in (site index, direction), which fixes the
global ordering used by configuration files and qubit assignment.  All
incidence tables are built at construction and then frozen: a Lattice is
safe to share read-only across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np


class Boundary(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class Lattice:
    """Immutable hypercubic lattice with link/plaquette/staple incidence."""

    def __init__(self, dims, boundary: Boundary = Boundary.OPEN):
        dims = tuple(int(d) for d in dims)
        if not 2 <= len(dims) <= 4:
            raise ValueError(f"dimension must be 2..4, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"each extent must be >= 2, got {dims}")
        if boundary is Boundary.PERIODIC and any(d < 3 for d in dims):
            # L=2 periodic planes would produce doubled plaquettes sharing
            # the same link pair; not supported.
            raise ValueError("periodic boundary requires every extent >= 3")
        self.dims = dims
        self.boundary = boundary
        self.ndim = len(dims)
        self.n_sites = int(np.prod(dims))

        # Row-major site strides: last axis fastest.
        strides = [1] * self.ndim
        for mu in range(self.ndim - 2, -1, -1):
            strides[mu] = strides[mu + 1] * dims[mu + 1]
        self._strides = tuple(strides)

        self._build_links()
        self._build_plaquettes()
        for arr in (self._link_of, self._link_site_dir, self.plaq_links):
            arr.flags.writeable = False

    # ----- sites -----

    def site_index(self, coords) -> int:
        return sum(int(c) * s for c, s in zip(coords, self._strides))

    def site_coords(self, site: int) -> tuple[int, ...]:
        out = []
        for s in self._strides:
            out.append(site // s)
            site %= s
        return tuple(out)

    def shift_site(self, site: int, mu: int, step: int = 1) -> int | None:
        """Neighbor site in direction mu, or None if it falls off an open edge."""
        coords = list(self.site_coords(site))
        coords[mu] += step
        if self.boundary is Boundary.PERIODIC:
            coords[mu] %= self.dims[mu]
        elif not 0 <= coords[mu] < self.dims[mu]:
            return None
        return self.site_index(coords)

    # ----- links -----

    def _build_links(self) -> None:
        link_of = np.full((self.n_sites, self.ndim), -1, dtype=np.int32)
        site_dir = []
        for site in range(self.n_sites):
            coords = self.site_coords(site)
            for mu in range(self.ndim):
                if (
                    self.boundary is Boundary.OPEN
                    and coords[mu] + 1 >= self.dims[mu]
                ):
                    continue
                link_of[site, mu] = len(site_dir)
                site_dir.append((site, mu))
        self._link_of = link_of
        self._link_site_dir = np.asarray(site_dir, dtype=np.int32)
        self.n_links = len(site_dir)

    def link_index(self, site: int, mu: int) -> int:
        idx = int(self._link_of[site, mu])
        if idx < 0:
            raise KeyError(f"no link at site {site} in direction {mu}")
        return idx

    def link_site_dir(self, n: int) -> tuple[int, int]:
        site, mu = self._link_site_dir[n]
        return int(site), int(mu)

    def link_endpoints(self, n: int) -> tuple[int, int]:
        site, mu = self.link_site_dir(n)
        other = self.shift_site(site, mu)
        assert other is not None
        return site, other

    def incident_links(self, site: int) -> list[tuple[int, int]]:
        """(link index, site at the other end) pairs, ascending by link index."""
        out = []
        for mu in range(self.ndim):
            fwd = int(self._link_of[site, mu])
            if fwd >= 0:
                out.append((fwd, self.shift_site(site, mu, +1)))
            back = self.shift_site(site, mu, -1)
            if back is not None:
                bwd = int(self._link_of[back, mu])
                if bwd >= 0:
                    out.append((bwd, back))
        out.sort()
        return out

    # ----- plaquettes and staples -----

    def _build_plaquettes(self) -> None:
        rows: list[tuple[int, int, int, int]] = []
        for site in range(self.n_sites):
            for mu in range(self.ndim):
                for nu in range(mu + 1, self.ndim):
                    s_mu = self.shift_site(site, mu)
                    s_nu = self.shift_site(site, nu)
                    if s_mu is None or s_nu is None:
                        continue
                    quad = (
                        int(self._link_of[site, mu]),
                        int(self._link_of[s_mu, nu]),
                        int(self._link_of[s_nu, mu]),
                        int(self._link_of[site, nu]),
                    )
                    if any(l < 0 for l in quad):
                        continue
                    rows.append(quad)
        self.n_plaquettes = len(rows)
        self.plaq_links = np.asarray(rows, dtype=np.int32)

        link_plaqs: list[list[int]] = [[] for _ in range(self.n_links)]
        for p, quad in enumerate(rows):
            for l in quad:
                link_plaqs[l].append(p)
        self._link_plaqs = tuple(tuple(ps) for ps in link_plaqs)

    @cached_property
    def _staple_arrays(self) -> tuple[np.ndarray, ...]:
        arrs = []
        for n, plaqs in enumerate(self._link_plaqs):
            quads = self.plaq_links[list(plaqs)]
            a = quads[quads != n].reshape(len(plaqs), 3)
            a.flags.writeable = False
            arrs.append(a)
        return tuple(arrs)

    def staple_link_array(self, n: int) -> np.ndarray:
        """Staple links of link n as a read-only (n_staples, 3) index array.

        One row per plaquette containing link n: the plaquette's other three
        links, in plaquette order.
        """
        if not 0 <= n < self.n_links:
            raise IndexError(f"link index {n} out of range")
        return self._staple_arrays[n]

    def __repr__(self) -> str:
        return (
            f"Lattice(dims={list(self.dims)}, boundary={self.boundary.value},"
            f" sites={self.n_sites}, links={self.n_links},"
            f" plaquettes={self.n_plaquettes})"
        )


def build_lattice(dims, boundary: Boundary = Boundary.OPEN) -> Lattice:
    """Construct a hypercubic lattice; validates dims and boundary."""
    return Lattice(dims, boundary)


@dataclass(frozen=True)
class GaugeFixing:
    """Partition of links into a fixed spanning tree (value +1) and free links.

    Free links carry qubit positions 0..n_free-1 in ascending global link
    order.  The basis convention for anything enumerated over free links is:
    bit q of a basis index encodes free link q, bit 0 <-> U=+1, bit 1 <-> U=-1.
    """

    fixed: tuple[int, ...]
    free: tuple[int, ...]
    n_links: int

    @property
    def n_free(self) -> int:
        return len(self.free)

    @cached_property
    def qubit_of(self) -> dict[int, int]:
        return {link: q for q, link in enumerate(self.free)}

    def bit_mask(self, links) -> int:
        """OR of 1 << qubit over the free links among ``links``.

        Fixed links sit at +1 and drop out, so the product of the given links
        on basis state b is (-1)**popcount(b & mask).
        """
        mask = 0
        for link in links:
            q = self.qubit_of.get(int(link))
            if q is not None:
                mask |= 1 << q
        return mask

    def decode(self, indices) -> np.ndarray:
        """Basis indices -> spin configurations (..., n_links) of int8 +-1."""
        idx = np.asarray(indices, dtype=np.uint64)
        configs = np.ones(idx.shape + (self.n_links,), dtype=np.int8)
        for q, link in enumerate(self.free):
            configs[..., link] = 1 - 2 * ((idx >> np.uint64(q)) & np.uint64(1)).astype(
                np.int8
            )
        return configs

    def encode(self, config) -> int:
        """Spin configuration -> basis index over free links."""
        config = np.asarray(config)
        b = 0
        for q, link in enumerate(self.free):
            if config[link] < 0:
                b |= 1 << q
        return b

    def is_gauge_fixed(self, config) -> bool:
        config = np.asarray(config)
        return bool(np.all(config[list(self.fixed)] == 1))


def gauge_fix(lattice: Lattice) -> GaugeFixing:
    """Fix a BFS spanning tree of links to +1; remaining links become qubits.

    BFS runs from site 0 visiting incident links in ascending link order, so
    the result is deterministic for a given lattice.
    """
    visited = [False] * lattice.n_sites
    visited[0] = True
    tree: list[int] = []
    queue = deque([0])
    while queue:
        site = queue.popleft()
        for link, other in lattice.incident_links(site):
            if not visited[other]:
                visited[other] = True
                tree.append(link)
                queue.append(other)
    if not all(visited):
        raise ValueError("lattice site graph is disconnected")
    fixed = sorted(tree)
    fixed_set = set(fixed)
    free = tuple(n for n in range(lattice.n_links) if n not in fixed_set)
    return GaugeFixing(fixed=tuple(fixed), free=free, n_links=lattice.n_links)


@lru_cache(maxsize=32)
def staple_masks(lattice: Lattice, gf: GaugeFixing) -> tuple[tuple[int, ...], ...]:
    """Per free qubit: the ``gf.bit_mask`` of each staple of its link.

    A staple's product on basis state b is (-1)**popcount(b & mask); a mask
    of 0 (all three links fixed) gives the constant +1.
    """
    return tuple(
        tuple(gf.bit_mask(staple) for staple in lattice.staple_link_array(link))
        for link in gf.free
    )

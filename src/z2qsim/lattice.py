"""Hypercubic lattice geometry for Z2 gauge fields.

Sites live on a D-dimensional grid (2 <= D <= 4), links on nearest-neighbor
bonds, plaquettes on unit squares.  Site indices are row-major in ``dims``;
link indices are lexicographic in (site index, direction).  A ``Lattice`` is
three int32 index tables, ``_link_of``, ``link_ends`` and ``plaq_links``,
built with numpy at construction and then frozen, so it is safe to share
read-only across threads.  Their order is the configuration file format and,
through ``gauge_fix``, the qubit order.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Boundary(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


def _checked_dims(dims, boundary: Boundary) -> tuple[int, ...]:
    if not isinstance(boundary, Boundary):
        raise ValueError(f"boundary must be a Boundary, got {boundary!r}")
    dims = tuple(dims)
    if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in dims):
        raise ValueError(f"extents must be integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    if not 2 <= len(dims) <= 4:
        raise ValueError(f"dimension must be 2..4, got {len(dims)}")
    if any(d < 2 for d in dims):
        raise ValueError(f"each extent must be >= 2, got {dims}")
    if boundary is Boundary.PERIODIC and any(d < 3 for d in dims):
        # L=2 periodic planes would produce doubled plaquettes sharing
        # the same link pair; not supported.
        raise ValueError("periodic boundary requires every extent >= 3")
    return dims


def count_links(dims, boundary: Boundary = Boundary.OPEN) -> int:
    """``build_lattice(dims, boundary).n_links`` in closed form, without building.

    Open: sum over mu of (d_mu - 1) * prod_{nu != mu} d_nu; periodic: D * prod d.
    Validates dims and boundary as ``Lattice`` does.
    """
    dims = _checked_dims(dims, boundary)
    n_sites = math.prod(dims)
    if boundary is Boundary.PERIODIC:
        return len(dims) * n_sites
    return sum(n_sites // d * (d - 1) for d in dims)


def count_free_links(dims, boundary: Boundary = Boundary.OPEN) -> int:
    """``gauge_fix(build_lattice(dims, boundary)).n_free`` in closed form: the
    lattice is connected, so its spanning tree fixes n_sites - 1 links."""
    dims = _checked_dims(dims, boundary)
    return count_links(dims, boundary) - math.prod(dims) + 1


class Lattice:
    """Immutable hypercubic lattice with link/plaquette incidence.

    - ``_link_of`` (n_sites, ndim): the link leaving each site along each
      direction, -1 where an open edge has none;
    - ``link_ends`` (n_links, 2): the (tail, head) sites of each link;
    - ``plaq_links`` (n_plaquettes, 4): the links (x, mu), (x + mu, nu),
      (x + nu, mu), (x, nu) of each plaquette, by base site x, then by plane
      mu < nu.

    These orders fix the ensemble file format and the qubit order: a change
    to any of them changes every output bit.
    """

    def __init__(self, dims, boundary: Boundary = Boundary.OPEN):
        self.dims = dims = _checked_dims(dims, boundary)
        self.boundary = boundary
        self.ndim = ndim = len(dims)
        self.n_sites = math.prod(dims)

        # up[x, mu]: the site one step along mu from x, wrapping round
        grid = np.arange(self.n_sites).reshape(dims)
        up = np.stack([np.roll(grid, -1, axis=mu).ravel() for mu in range(ndim)], axis=1)
        if boundary is Boundary.PERIODIC:
            has = np.ones((self.n_sites, ndim), dtype=bool)
        else:
            has = np.indices(dims).reshape(ndim, -1).T < np.array(dims) - 1
        tail, along = np.nonzero(has)
        self.n_links = len(tail)
        self._link_of = link_of = np.full((self.n_sites, ndim), -1, dtype=np.int32)
        link_of[has] = np.arange(self.n_links)
        self.link_ends = np.stack([tail, up[tail, along]], axis=1).astype(np.int32)

        mu, nu = np.triu_indices(ndim, 1)
        quads = np.stack(
            [link_of[:, mu], link_of[up[:, mu], nu], link_of[up[:, nu], mu], link_of[:, nu]], axis=-1
        )
        self.plaq_links = quads[has[:, mu] & has[:, nu]]
        self.n_plaquettes = len(self.plaq_links)
        for arr in (self._link_of, self.link_ends, self.plaq_links):
            arr.flags.writeable = False

        link_plaqs: list[list[int]] = [[] for _ in range(self.n_links)]
        for p, quad in enumerate(self.plaq_links.tolist()):
            for l in quad:
                link_plaqs[l].append(p)
        self._link_plaqs = tuple(tuple(ps) for ps in link_plaqs)

    def plaquettes_of(self, link: int) -> tuple[int, ...]:
        """Indices of the plaquettes containing ``link``, ascending."""
        if not 0 <= link < self.n_links:
            raise IndexError(f"link index {link} out of range")
        return self._link_plaqs[link]

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


def gauge_fix(lattice: Lattice) -> GaugeFixing:
    """Fix a BFS spanning tree of links to +1; remaining links become qubits.

    BFS runs from site 0 visiting incident links in ascending link order, so
    the result is deterministic for a given lattice.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(lattice.n_sites)]
    for link, (tail, head) in enumerate(lattice.link_ends.tolist()):
        incident[tail].append((link, head))
        incident[head].append((link, tail))
    visited = [False] * lattice.n_sites
    visited[0] = True
    tree: list[int] = []
    queue = deque([0])
    while queue:
        site = queue.popleft()
        for link, other in incident[site]:
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


def plaquette_masks(lattice: Lattice, gf: GaugeFixing) -> list[int]:
    """``gf.bit_mask`` of every plaquette: plaquette p's product on basis state
    b is (-1)**popcount(b & masks[p]).  With bit q removed, the masks of the
    plaquettes through free link q are those of its staples."""
    return [gf.bit_mask(quad) for quad in lattice.plaq_links]


def parity_sum(indices, masks) -> np.ndarray:
    """Sum over ``masks`` of (-1)**popcount(indices & mask), int32 per index.

    With ``GaugeFixing.bit_mask`` masks this is, on every basis state in
    ``indices``, the sum of the link products the masks stand for.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    total = np.zeros(indices.shape, dtype=np.int32)
    for mask in masks:
        bits = np.bitwise_count(indices & np.uint64(mask)).astype(np.int8)
        total += 1 - 2 * (bits & 1)
    return total

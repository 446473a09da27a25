"""Classical reference functions that only the tests use.

Each is read off the lattice's plaquette and link tables directly, not
through the bit-mask path the package computes with, so it can check it.
"""

import numpy as np

from z2qsim.classical import plaquette_products
from z2qsim.lattice import Boundary


def action(config, lattice, beta):
    """S = -beta * sum over plaquettes of the four-link product."""
    return -beta * plaquette_products(config, lattice).sum(axis=-1, dtype=np.int64)


def action_density(config, lattice, beta):
    """Action per plaquette: S / n_plaquettes."""
    return action(config, lattice, beta) / lattice.n_plaquettes


def staple_links(lattice, n):
    """(n_staples, 3) links: of each plaquette containing link n, in plaquette
    order, the other three links."""
    quads = lattice.plaq_links[(lattice.plaq_links == n).any(axis=1)]
    return quads[quads != n].reshape(-1, 3)


def staple_sum(config, n, lattice):
    """C_n: sum over the staples of link n of their three-link products; an
    int for one configuration, an array over a batch's leading axes."""
    products = np.asarray(config)[..., staple_links(lattice, n)].prod(axis=-1, dtype=np.int64)
    sums = products.sum(axis=-1)
    return int(sums) if sums.ndim == 0 else sums


def plaquette_bits(lattice, gf):
    """Per free link: the int with bit p set for every plaquette p containing it."""
    return [
        sum(1 << p for p, quad in enumerate(lattice.plaq_links.tolist()) if link in quad)
        for link in gf.free
    ]


def link_site_dir(lattice, n):
    """(site, direction) of link n, read off the lattice's link table."""
    site, mu = np.argwhere(lattice._link_of == n)[0]
    return int(site), int(mu)


def link_endpoints(lattice, n):
    """(tail, head) sites of link n by coordinate arithmetic: the head is the
    tail one step along the link's direction, wrapped when periodic."""
    site, mu = link_site_dir(lattice, n)
    coords = list(np.unravel_index(site, lattice.dims))
    coords[mu] += 1
    mode = "wrap" if lattice.boundary is Boundary.PERIODIC else "raise"
    return site, int(np.ravel_multi_index(coords, lattice.dims, mode=mode))

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2qsim.classical import plaquette_products
from z2qsim.lattice import (
    Boundary,
    build_lattice,
    count_links,
    gauge_fix,
    parity_sum,
    plaquette_masks,
)
from oracles import link_site_dir, staple_links


# Every D = 2..4 lattice with extents up to 5 and at most 24 free links (a
# spanning tree fixes n_sites - 1 links).  Periodic lattices need extents >= 3,
# so only D = 2 ones stay under 24.
SMALL_LATTICES = [
    (dims, boundary)
    for boundary in Boundary
    for ndim in (2, 3, 4)
    for dims in itertools.product(range(2, 6), repeat=ndim)
    if boundary is Boundary.OPEN or min(dims) >= 3
    if count_links(dims, boundary) - math.prod(dims) + 1 <= 24
]


@lru_cache(maxsize=None)
def small_lattice(dims, boundary):
    lat = build_lattice(dims, boundary)
    return lat, gauge_fix(lat)


def link_endpoints(lat, n):
    site, mu = link_site_dir(lat, n)
    return site, lat.shift_site(site, mu)


def open_link_count(dims):
    total = 0
    for mu, L in enumerate(dims):
        n = L - 1
        for nu, M in enumerate(dims):
            if nu != mu:
                n *= M
        total += n
    return total


def open_plaquette_count(dims):
    total = 0
    for mu in range(len(dims)):
        for nu in range(mu + 1, len(dims)):
            n = (dims[mu] - 1) * (dims[nu] - 1)
            for rho, M in enumerate(dims):
                if rho not in (mu, nu):
                    n *= M
            total += n
    return total


class TestCounts:
    def test_hypercube_benchmark(self, hypercube):
        lat, gf = hypercube
        assert lat.n_sites == 16
        assert lat.n_links == 32
        assert lat.n_plaquettes == 24
        assert len(gf.fixed) == 15
        assert gf.n_free == 17

    def test_square2(self, square2):
        lat, gf = square2
        assert (lat.n_sites, lat.n_links, lat.n_plaquettes) == (4, 4, 1)
        assert gf.n_free == 1

    def test_periodic_3x3(self, torus3):
        lat, gf = torus3
        assert (lat.n_sites, lat.n_links, lat.n_plaquettes) == (9, 18, 9)
        assert gf.n_free == 10

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)])
    def test_open_count_formulas(self, dims):
        lat = build_lattice(dims)
        assert lat.n_sites == int(np.prod(dims))
        assert lat.n_links == open_link_count(dims)
        assert count_links(dims) == lat.n_links
        assert lat.n_plaquettes == open_plaquette_count(dims)

    @pytest.mark.parametrize("dims", [(3, 3), (4, 3), (3, 3, 3)])
    def test_periodic_count_formulas(self, dims):
        lat = build_lattice(dims, Boundary.PERIODIC)
        n_sites = int(np.prod(dims))
        d = len(dims)
        assert lat.n_links == d * n_sites
        assert count_links(dims, Boundary.PERIODIC) == lat.n_links
        assert lat.n_plaquettes == d * (d - 1) // 2 * n_sites

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lattice((4,))
        with pytest.raises(ValueError):
            build_lattice((2, 2, 2, 2, 2))
        with pytest.raises(ValueError):
            build_lattice((1, 3))
        with pytest.raises(ValueError):
            build_lattice((2, 2), Boundary.PERIODIC)
        with pytest.raises(ValueError):
            build_lattice((3, 0))

    @pytest.mark.parametrize(
        "dims, boundary",
        [((4,), Boundary.OPEN), ((2, 2, 2, 2, 2), Boundary.OPEN), ((1, 3), Boundary.OPEN),
         ((2, 2), Boundary.PERIODIC), ((3, 0), Boundary.OPEN)],
    )
    def test_count_links_validation(self, dims, boundary):
        # count_links refuses exactly what build_lattice refuses
        with pytest.raises(ValueError):
            count_links(dims, boundary)

    @pytest.mark.parametrize("boundary", ["periodic", "open", None, 1])
    def test_boundary_must_be_enum(self, boundary):
        # unchecked, a string built 18 links but 4 plaquettes on 3x3, and
        # gauge_fix then failed deep inside with a TypeError
        with pytest.raises(ValueError, match="boundary must be a Boundary"):
            build_lattice((3, 3), boundary)
        with pytest.raises(ValueError, match="boundary must be a Boundary"):
            count_links((3, 3), boundary)

    @pytest.mark.parametrize("dims", [(2.7, 2), (3.0, 3), ("3", "3"), (True, 3), (3, None)])
    def test_extents_must_be_integers(self, dims):
        # unchecked, int() truncated 2.7 to 2 and parsed "3"
        with pytest.raises(ValueError, match="extents must be integers"):
            build_lattice(dims)
        with pytest.raises(ValueError, match="extents must be integers"):
            count_links(dims)

    def test_numpy_extents_accepted(self):
        dims = np.array([3, 3], dtype=np.int64)
        lat = build_lattice(dims, Boundary.PERIODIC)
        assert lat.dims == (3, 3) and all(type(d) is int for d in lat.dims)
        assert count_links((np.int32(3), np.uint8(2))) == count_links((3, 2)) == 7

    def test_count_links_of_unbuilt_lattice(self):
        assert count_links((1000, 1000, 1000)) == 3 * 999 * 1000 * 1000
        assert count_links((1000, 1000, 1000), Boundary.PERIODIC) == 3 * 10**9


class TestGeometry:
    def test_site_coords_roundtrip(self):
        lat = build_lattice((3, 2, 4))
        for s in range(lat.n_sites):
            assert lat.site_index(lat.site_coords(s)) == s

    def test_link_ordering_lexicographic(self, hypercube):
        lat, _ = hypercube
        pairs = [link_site_dir(lat, n) for n in range(lat.n_links)]
        assert pairs == sorted(pairs)

    def test_shift_off_open_edge_is_none(self):
        lat = build_lattice((2, 3))
        edge = lat.site_index((1, 0))
        assert lat.shift_site(edge, 0, +1) is None
        assert lat.shift_site(lat.site_index((0, 0)), 1, -1) is None

    def test_shift_wraps_periodic(self, torus3):
        lat, _ = torus3
        s = lat.site_index((2, 1))
        assert lat.site_coords(lat.shift_site(s, 0, +1)) == (0, 1)
        assert lat.site_coords(lat.shift_site(s, 0, -1)) == (1, 1)

    def test_incident_links_match_endpoints(self, cube2):
        lat, _ = cube2
        degree_total = 0
        for site in range(lat.n_sites):
            for link, other in lat.incident_links(site):
                a, b = link_endpoints(lat, link)
                assert {a, b} == {site, other}
            degree_total += len(lat.incident_links(site))
        assert degree_total == 2 * lat.n_links


class TestPlaquettes:
    @pytest.mark.parametrize("dims,boundary", [
        ((3, 3), Boundary.OPEN),
        ((2, 2, 2), Boundary.OPEN),
        ((2, 2, 2, 2), Boundary.OPEN),
        ((3, 3), Boundary.PERIODIC),
    ])
    def test_plaquette_is_closed_loop(self, dims, boundary):
        lat = build_lattice(dims, boundary)
        for quad in lat.plaq_links:
            corners = []
            for l in quad:
                corners.extend(link_endpoints(lat, int(l)))
            # four distinct links tracing a square: every corner appears twice
            assert len(set(quad.tolist())) == 4
            values, counts = np.unique(corners, return_counts=True)
            assert len(values) == 4
            assert (counts == 2).all()

    def test_plaquette_axes(self, hypercube):
        lat, _ = hypercube
        planes = set()
        for quad in lat.plaq_links:
            dirs = sorted(link_site_dir(lat, int(l))[1] for l in quad)
            mu, nu = dirs[0], dirs[2]
            assert mu < nu
            assert dirs == [mu, mu, nu, nu]
            planes.add((mu, nu))
        assert len(planes) == 6

    def test_deterministic_rebuild(self):
        a = build_lattice((2, 3, 2))
        b = build_lattice((2, 3, 2))
        assert np.array_equal(a.plaq_links, b.plaq_links)


class TestStaples:
    """The staples of link n are the plaquettes through it, less n itself:
    ``plaquettes_of`` lists those plaquettes."""

    def test_hypercube_three_staples_per_link(self, hypercube):
        lat, _ = hypercube
        for n in range(lat.n_links):
            assert len(lat.plaquettes_of(n)) == 3

    def test_staple_completes_plaquette(self, cube2, torus3):
        # every plaquette through n is listed once, and no other
        for lat, _ in (cube2, torus3):
            quads = lat.plaq_links.tolist()
            for n in range(lat.n_links):
                listed = lat.plaquettes_of(n)
                assert len(set(listed)) == len(listed)
                assert set(listed) == {p for p, quad in enumerate(quads) if n in quad}
            assert sum(len(lat.plaquettes_of(n)) for n in range(lat.n_links)) == 4 * lat.n_plaquettes

    def test_staples_keep_plaquette_order(self, square3):
        lat, _ = square3
        for n in range(lat.n_links):
            expected = [p for p, quad in enumerate(lat.plaq_links.tolist()) if n in quad]
            assert lat.plaquettes_of(n) == tuple(expected)

    def test_out_of_range(self, square2):
        lat, _ = square2
        with pytest.raises(IndexError):
            lat.plaquettes_of(lat.n_links)
        with pytest.raises(IndexError):
            lat.plaquettes_of(-1)


class TestGaugeFixing:
    @pytest.mark.parametrize("dims,boundary", [
        ((3, 3), Boundary.OPEN),
        ((2, 2, 2, 2), Boundary.OPEN),
        ((3, 3), Boundary.PERIODIC),
        ((3, 3, 3), Boundary.PERIODIC),
    ])
    def test_fixed_links_form_spanning_tree(self, dims, boundary):
        lat = build_lattice(dims, boundary)
        gf = gauge_fix(lat)
        assert len(gf.fixed) == lat.n_sites - 1
        assert gf.n_free == lat.n_links - lat.n_sites + 1
        assert sorted(gf.fixed + gf.free) == list(range(lat.n_links))
        # connectivity over tree edges alone
        adj = {s: [] for s in range(lat.n_sites)}
        for n in gf.fixed:
            a, b = link_endpoints(lat, n)
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert len(seen) == lat.n_sites

    def test_deterministic(self, hypercube):
        lat, gf = hypercube
        again = gauge_fix(lat)
        assert again.fixed == gf.fixed
        assert again.free == gf.free

    def test_qubit_of(self, hypercube):
        _, gf = hypercube
        assert sorted(gf.qubit_of) == sorted(gf.free)
        assert sorted(gf.qubit_of.values()) == list(range(gf.n_free))
        # free links ascend with qubit index
        assert [gf.free[q] for q in range(gf.n_free)] == sorted(gf.free)

    def test_bit_mask_gives_link_products(self, cube2):
        lat, gf = cube2
        idx = np.arange(1 << gf.n_free, dtype=np.uint64)
        configs = gf.decode(idx)
        for links in lat.plaq_links:
            parity = np.bitwise_count(idx & np.uint64(gf.bit_mask(links))).astype(int) & 1
            np.testing.assert_array_equal(1 - 2 * parity, configs[:, links].prod(axis=-1))
        assert gf.bit_mask(gf.fixed) == 0

    @pytest.mark.parametrize("name", ["cube2", "torus3", "torus333"])
    def test_plaquette_masks_table(self, name, request):
        # mask p gives plaquette p's four-link product as a parity; torus333's
        # masks span 55 bits
        lat, gf = request.getfixturevalue(name)
        masks = plaquette_masks(lat, gf)
        assert masks == [gf.bit_mask(quad) for quad in lat.plaq_links]
        idx = np.random.default_rng(5).integers(0, 1 << gf.n_free, size=200, dtype=np.uint64)
        configs = gf.decode(idx)
        for mask, quad in zip(masks, lat.plaq_links):
            parity = np.bitwise_count(idx & np.uint64(mask)).astype(int) & 1
            np.testing.assert_array_equal(1 - 2 * parity, configs[:, quad].prod(axis=-1))


class TestEncodeDecode:
    def test_index_zero_is_ordered(self, hypercube):
        lat, gf = hypercube
        config = gf.decode(0)
        assert config.shape == (lat.n_links,)
        assert (config == 1).all()

    def test_bit_convention(self, hypercube):
        _, gf = hypercube
        for q in (0, 5, gf.n_free - 1):
            config = gf.decode(1 << q)
            assert config[gf.free[q]] == -1
            assert (np.delete(config, gf.free[q]) == 1).all()

    def test_roundtrip_random(self, hypercube):
        _, gf = hypercube
        rng = np.random.default_rng(42)
        idx = rng.integers(0, 1 << gf.n_free, size=200, dtype=np.uint64)
        configs = gf.decode(idx)
        assert configs.dtype == np.int8
        for i, b in zip(idx, configs):
            assert sum(1 << q for q, link in enumerate(gf.free) if b[link] < 0) == int(i)

    def test_batch_decode_shape(self, cube2):
        _, gf = cube2
        idx = np.arange(8, dtype=np.uint64).reshape(2, 4)
        out = gf.decode(idx)
        assert out.shape == (2, 4, gf.n_links)

    @settings(max_examples=80, deadline=None)
    @given(
        # D first, so the one D = 4 lattice is not drawn 1 time in 44
        shape=st.sampled_from((2, 3, 4)).flatmap(
            lambda ndim: st.sampled_from([s for s in SMALL_LATTICES if len(s[0]) == ndim])
        ),
        data=st.data(),
    )
    def test_decode_round_trip(self, shape, data):
        # plaquette products of the decoded configuration are the bit-mask
        # parities, and the free links read back as bits give the index
        lat, gf = small_lattice(*shape)
        b = data.draw(st.integers(0, (1 << gf.n_free) - 1), label="b")
        config = gf.decode(b)
        parities = [(b & gf.bit_mask(quad)).bit_count() & 1 for quad in lat.plaq_links]
        np.testing.assert_array_equal(plaquette_products(config, lat), 1 - 2 * np.array(parities))
        assert sum(int(config[link] < 0) << q for q, link in enumerate(gf.free)) == b

    @pytest.mark.parametrize("name", ["cube2", "torus3", "hypercube"])
    def test_parity_sum_is_sum_of_link_products(self, name, request):
        # masks of the staples of the first free link, summed over the batch
        lat, gf = request.getfixturevalue(name)
        staples = staple_links(lat, gf.free[0])
        idx = np.random.default_rng(7).integers(0, 1 << gf.n_free, size=(3, 50), dtype=np.uint64)
        expected = gf.decode(idx)[..., staples].prod(axis=-1).sum(axis=-1)
        got = parity_sum(idx, [gf.bit_mask(s) for s in staples])
        assert got.dtype == np.int32 and got.shape == (3, 50)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(parity_sum(idx, []), 0)

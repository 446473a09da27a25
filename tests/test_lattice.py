import numpy as np
import pytest

from z2qsim.lattice import Boundary, build_lattice, gauge_fix, staple_masks


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
        assert lat.n_plaquettes == open_plaquette_count(dims)

    @pytest.mark.parametrize("dims", [(3, 3), (4, 3), (3, 3, 3)])
    def test_periodic_count_formulas(self, dims):
        lat = build_lattice(dims, Boundary.PERIODIC)
        n_sites = int(np.prod(dims))
        d = len(dims)
        assert lat.n_links == d * n_sites
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


class TestGeometry:
    def test_site_coords_roundtrip(self):
        lat = build_lattice((3, 2, 4))
        for s in range(lat.n_sites):
            assert lat.site_index(lat.site_coords(s)) == s

    def test_link_ordering_lexicographic(self, hypercube):
        lat, _ = hypercube
        pairs = [lat.link_site_dir(n) for n in range(lat.n_links)]
        assert pairs == sorted(pairs)

    def test_link_index_inverse(self, cube2):
        lat, _ = cube2
        for n in range(lat.n_links):
            site, mu = lat.link_site_dir(n)
            assert lat.link_index(site, mu) == n
        with pytest.raises(KeyError):
            lat.link_index(lat.n_sites - 1, 0)  # corner site has no outgoing links

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
                a, b = lat.link_endpoints(link)
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
                corners.extend(lat.link_endpoints(int(l)))
            # four distinct links tracing a square: every corner appears twice
            assert len(set(quad.tolist())) == 4
            values, counts = np.unique(corners, return_counts=True)
            assert len(values) == 4
            assert (counts == 2).all()

    def test_plaquette_axes(self, hypercube):
        lat, _ = hypercube
        planes = set()
        for quad in lat.plaq_links:
            dirs = sorted(lat.link_site_dir(int(l))[1] for l in quad)
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
    def test_hypercube_three_staples_per_link(self, hypercube):
        lat, _ = hypercube
        for n in range(lat.n_links):
            assert lat.staple_link_array(n).shape == (3, 3)

    def test_staple_completes_plaquette(self, cube2):
        lat, _ = cube2
        for n in range(lat.n_links):
            plaq_sets = [frozenset(q) for q in lat.plaq_links.tolist() if n in q]
            staples = lat.staple_link_array(n)
            assert not staples.flags.writeable
            assert [frozenset(st) | {n} for st in staples.tolist()] == plaq_sets

    def test_staples_keep_plaquette_order(self, square3):
        lat, _ = square3
        for n in range(lat.n_links):
            expected = [[l for l in q if l != n] for q in lat.plaq_links.tolist() if n in q]
            assert lat.staple_link_array(n).tolist() == expected

    def test_out_of_range(self, square2):
        lat, _ = square2
        with pytest.raises(IndexError):
            lat.staple_link_array(lat.n_links)
        with pytest.raises(IndexError):
            lat.staple_link_array(-1)


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
            a, b = lat.link_endpoints(n)
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

    def test_staple_masks_table(self, torus3):
        lat, gf = torus3
        table = staple_masks(lat, gf)
        assert staple_masks(lat, gf) is table
        assert len(table) == gf.n_free
        for link, masks in zip(gf.free, table):
            assert masks == tuple(gf.bit_mask(st) for st in lat.staple_link_array(link))


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
            assert gf.encode(b) == int(i)

    def test_batch_decode_shape(self, cube2):
        _, gf = cube2
        idx = np.arange(8, dtype=np.uint64).reshape(2, 4)
        out = gf.decode(idx)
        assert out.shape == (2, 4, gf.n_links)

    def test_is_gauge_fixed(self, square3):
        _, gf = square3
        config = gf.decode(5)
        assert gf.is_gauge_fixed(config)
        flipped = config.copy()
        flipped[gf.fixed[0]] = -1
        assert not gf.is_gauge_fixed(flipped)

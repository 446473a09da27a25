import itertools
import math

import numpy as np
import pytest

from z2qsim import classical, limits
from z2qsim.classical import (
    Coupling,
    _acceptance_table,
    exact_expectation,
    flip_probability,
    mcmc_run,
    plaquette_average,
    plaquette_products,
)
from z2qsim.ensemble import Sampler
from z2qsim.lattice import build_lattice, gauge_fix
from z2qsim.quantum import build_dense_hamiltonian
from oracles import action, action_density, plaquette_bits, staple_links, staple_sum


def naive_expectation(lattice, beta, observable):
    """Gibbs average over ALL 2**n_links configurations, no gauge fixing.

    Independent of the enumeration and gauge-fixing code under test; only the
    plaquette link lists are shared.
    """
    states = np.array(
        list(itertools.product((1, -1), repeat=lattice.n_links)), dtype=np.int8
    )
    plaq_sum = np.zeros(len(states))
    for quad in lattice.plaq_links:
        prod = np.ones(len(states), dtype=np.int64)
        for l in quad:
            prod = prod * states[:, l]
        plaq_sum += prod
    weights = np.exp(beta * plaq_sum)
    values = np.asarray(observable(states), dtype=np.float64)
    return float((values * weights).sum() / weights.sum())


def reference_run_sweeps(state, n_sweeps, masks, n_free, beta, links, uniforms):
    """The Glauber loop as it was before the acceptance table: the staple sum
    and ``flip_probability`` recomputed on every update, and the random
    numbers drawn one sweep at a time."""
    for _ in range(n_sweeps):
        qs = links.integers(0, n_free, size=n_free)
        us = uniforms.random(n_free)
        for q, uni in zip(qs, us):
            q = int(q)
            c = 0
            for m in masks[q]:
                c += 1 - 2 * ((state & m).bit_count() & 1)
            u = 1 - 2 * ((state >> q) & 1)
            if uni < flip_probability(u, c, beta):
                state ^= 1 << q
    return state


def reference_mcmc_configs(lattice, gf, beta, n_configs, n_therm, stride, seed):
    """``mcmc_run``'s configurations, drawn through ``reference_run_sweeps``."""
    rng = np.random.default_rng(seed)
    links, uniforms = rng.spawn(2)
    masks = [[gf.bit_mask(st) for st in staple_links(lattice, link)] for link in gf.free]
    state = 0
    for q, bit in enumerate(rng.integers(0, 2, size=gf.n_free)):
        state |= int(bit) << q
    state = reference_run_sweeps(state, n_therm, masks, gf.n_free, beta, links, uniforms)
    samples = []
    for _ in range(n_configs):
        state = reference_run_sweeps(state, stride, masks, gf.n_free, beta, links, uniforms)
        samples.append(state)
    return gf.decode(np.array(samples, dtype=np.uint64))


def glauber_generator(lattice, gf, beta):
    """N_free * S (I - P) S^-1 for the random-site heat-bath matrix P, with
    P[x, y] the probability of the move x -> y and S = diag(e^{-S_cl/2})."""
    n = gf.n_free
    dim = 1 << n
    configs = gf.decode(np.arange(dim))
    p = np.zeros((dim, dim))
    for x in range(dim):
        for q, link in enumerate(gf.free):
            c = staple_sum(configs[x], link, lattice)
            flip = flip_probability(int(configs[x, link]), c, beta)
            p[x, x ^ (1 << q)] = flip / n
            p[x, x] += (1.0 - flip) / n
    sqrt_pi = np.exp(-action(configs, lattice, beta) / 2)
    return n * (np.eye(dim) - sqrt_pi[:, None] * p / sqrt_pi[None, :])


def gauge_flip(config, lattice, site):
    """Gauge transformation with Lambda = -1 at one site: flip incident links."""
    out = config.copy()
    out[(lattice.link_ends == site).any(axis=1)] *= -1
    return out


def random_configs(lattice, rng, n=12):
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, lattice.n_links))


class TestCoupling:
    def test_matches_reference_functions(self):
        c = Coupling(0.8)
        xs = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        t, s = c.tanh_sech(xs)
        np.testing.assert_allclose(t, np.tanh(0.8 * xs), atol=1e-15)
        np.testing.assert_allclose(s, 1.0 / np.cosh(0.8 * xs), atol=1e-15)

    def test_large_argument_stable(self):
        c = Coupling(400.0)
        with np.errstate(over="raise"):
            t, s = c.tanh_sech(np.array([-3.0, 3.0]))
        np.testing.assert_allclose(t, [-1.0, 1.0])
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_beta_stored_as_float(self):
        c = Coupling(np.float32(0.7))
        assert type(c.beta) is float
        assert c.beta == float(np.float32(0.7))

    def test_validation(self):
        with pytest.raises(ValueError):
            Coupling(-0.1)
        with pytest.raises(ValueError):
            Coupling(math.inf)
        with pytest.raises(ValueError):
            Coupling(math.nan)


class TestAction:
    def test_ordered_config(self, hypercube):
        lat, _ = hypercube
        ones = np.ones(lat.n_links, dtype=np.int8)
        assert action(ones, lat, 0.7) == pytest.approx(-0.7 * 24, abs=1e-13)
        assert plaquette_average(ones, lat) == 1.0
        assert action_density(ones, lat, 0.7) == pytest.approx(-0.7, abs=1e-14)

    def test_single_flip_hits_three_plaquettes(self, hypercube):
        lat, gf = hypercube
        config = np.ones(lat.n_links, dtype=np.int8)
        config[gf.free[0]] = -1
        prods = plaquette_products(config, lat)
        assert (prods == -1).sum() == 3  # every link borders three plaquettes
        assert prods.sum() == 24 - 6

    def test_batch_shapes(self, square3):
        lat, _ = square3
        rng = np.random.default_rng(0)
        batch = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, 5, lat.n_links))
        prods = plaquette_products(batch, lat)
        assert prods.shape == (3, 5, lat.n_plaquettes)
        assert prods.dtype == np.int8
        assert action(batch, lat, 0.3).shape == (3, 5)
        single = action(batch[0, 0], lat, 0.3)
        assert np.ndim(single) == 0

    def test_against_loop_oracle(self, cube2):
        lat, _ = cube2
        rng = np.random.default_rng(3)
        for config in random_configs(lat, rng):
            expected = 0
            for quad in lat.plaq_links:
                prod = 1
                for l in quad:
                    prod *= int(config[l])
                expected += prod
            assert action(config, lat, 1.3) == pytest.approx(-1.3 * expected, rel=1e-14)

    def test_wrong_length_rejected(self, square2):
        lat, _ = square2
        with pytest.raises(ValueError):
            plaquette_products(np.ones(lat.n_links + 1, dtype=np.int8), lat)

    @pytest.mark.parametrize("block", [3, 1 << 16])
    @pytest.mark.parametrize("name", ["square3", "cube2", "torus3"])
    def test_plaquette_sum_diagonal_is_decoded_sum(self, name, block, request, monkeypatch):
        lat, gf = request.getfixturevalue(name)
        monkeypatch.setattr(classical, "_PARITY_BLOCK", block)
        configs = gf.decode(np.arange(1 << gf.n_free, dtype=np.uint64))
        expected = plaquette_products(configs, lat).sum(axis=-1)
        np.testing.assert_array_equal(classical.plaquette_sum_diagonal(lat, gf), expected)


class TestLocalMoves:
    def test_staple_sum_matches_plaquette_identity(self, hypercube):
        lat, _ = hypercube
        rng = np.random.default_rng(11)
        for config in random_configs(lat, rng, n=6):
            prods = plaquette_products(config, lat)
            for n in rng.integers(0, lat.n_links, size=8):
                n = int(n)
                local = prods[list(lat.plaquettes_of(n))].sum()
                assert config[n] * staple_sum(config, n, lat) == local

    def test_delta_action_matches_brute_force(self, cube2):
        # the chain's local acceptance, from u and the staple sum alone, is the
        # Glauber weight of the brute-force action change dS = 2 beta u C
        lat, _ = cube2
        rng = np.random.default_rng(5)
        for config in random_configs(lat, rng):
            for n in rng.integers(0, lat.n_links, size=6):
                n = int(n)
                flipped = config.copy()
                flipped[n] = -flipped[n]
                ds = action(flipped, lat, 0.9) - action(config, lat, 0.9)
                expected = math.exp(-ds) / (1.0 + math.exp(-ds))
                c = staple_sum(config, n, lat)
                assert flip_probability(int(config[n]), c, 0.9) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_gauge_flip_preserves_plaquettes(self, hypercube):
        lat, _ = hypercube
        rng = np.random.default_rng(17)
        for config in random_configs(lat, rng, n=5):
            site = int(rng.integers(lat.n_sites))
            transformed = gauge_flip(config, lat, site)
            assert not np.array_equal(transformed, config)
            np.testing.assert_array_equal(
                plaquette_products(transformed, lat), plaquette_products(config, lat)
            )


class TestExactExpectation:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 2, 2)])
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.1])
    def test_gauge_fixed_equals_full_enumeration(self, dims, beta):
        lat = build_lattice(dims)
        gf = gauge_fix(lat)
        for obs in (
            lambda c: plaquette_average(c, lat),
            lambda c: action_density(c, lat, beta),
            lambda c: plaquette_products(c, lat)[..., 0],
        ):
            full = naive_expectation(lat, beta, obs)
            fixed = exact_expectation(lat, gf, beta, obs)
            assert fixed == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3)])
    def test_two_dimensional_reduction(self, dims):
        lat = build_lattice(dims)
        gf = gauge_fix(lat)
        for beta in (0.1, 0.7, 1.5):
            p = exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))
            assert p == pytest.approx(math.tanh(beta), abs=1e-10)

    def test_beta_zero(self, hypercube):
        lat, gf = hypercube
        p = exact_expectation(lat, gf, 0.0, lambda c: plaquette_average(c, lat))
        assert abs(p) < 1e-14

    def test_chunk_independence(self, square3, monkeypatch):
        lat, gf = square3
        obs = lambda c: plaquette_average(c, lat)  # noqa: E731
        b = exact_expectation(lat, gf, 0.8, obs)
        monkeypatch.setattr(classical, "_CHUNK", 3)
        a = exact_expectation(lat, gf, 0.8, obs)
        assert a == pytest.approx(b, abs=1e-14)

    def test_large_beta_stable(self, square2):
        lat, gf = square2
        with np.errstate(over="raise"):
            p = exact_expectation(lat, gf, 600.0, lambda c: plaquette_average(c, lat))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_observable_shape_checked(self, square3):
        lat, gf = square3
        with pytest.raises(ValueError):  # a scalar would broadcast over the chunk
            exact_expectation(lat, gf, 0.5, lambda c: 1.0)
        with pytest.raises(ValueError):  # one value per plaquette, not per config
            exact_expectation(lat, gf, 0.5, lambda c: plaquette_products(c, lat))

    def test_cap_enforced(self, hypercube, monkeypatch):
        lat, gf = hypercube
        monkeypatch.setenv(limits.ENV_VAR, "10")
        with pytest.raises(limits.EnumerationCapError):
            exact_expectation(lat, gf, 0.5, lambda c: plaquette_average(c, lat))

    def test_cap_message_names_the_override(self, hypercube, monkeypatch):
        lat, gf = hypercube
        monkeypatch.setenv(limits.ENV_VAR, "10")
        with pytest.raises(limits.EnumerationCapError) as info:
            exact_expectation(lat, gf, 0.5)
        assert str(info.value) == (
            "plaquette diagonal: N_free=17 exceeds cap 10 (override with Z2Q_MAX_FREE_LINKS)"
        )

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 16])
    @pytest.mark.parametrize("name", ["square3", "cube2", "torus3"])
    def test_beta_grid_equals_scalar_calls(self, name, chunk, request, monkeypatch):
        lat, gf = request.getfixturevalue(name)
        monkeypatch.setattr(classical, "_CHUNK", chunk)
        obs = lambda c: plaquette_products(c, lat)[..., 0]  # noqa: E731
        betas = [1.1, 0.0, 0.7, 0.7, 600.0, 0.3]
        grid = exact_expectation(lat, gf, betas, obs)
        assert grid == [exact_expectation(lat, gf, b, obs) for b in betas]
        assert exact_expectation(lat, gf, np.array(betas), obs) == grid
        assert exact_expectation(lat, gf, [0.7], obs) == [grid[2]]
        assert type(exact_expectation(lat, gf, 0.7, obs)) is float

    def test_beta_grid_on_hypercube(self, hypercube, monkeypatch):
        lat, gf = hypercube
        obs = lambda c: plaquette_average(c, lat)  # noqa: E731
        betas = (0.1, 0.7, 1.5)
        for chunk in (1 << 12, 1 << 16):
            monkeypatch.setattr(classical, "_CHUNK", chunk)
            grid = exact_expectation(lat, gf, betas, obs)
            assert grid == [exact_expectation(lat, gf, b, obs) for b in betas]

    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    @pytest.mark.parametrize("name", ["square3", "cube2", "torus3", "hypercube"])
    def test_default_observable_is_mean_plaquette(self, name, chunk, request, monkeypatch):
        """Without an observable the plaquette sums of the weights give the
        mean plaquette: the same bits as the ``plaquette_average`` call, with
        no ``plaquette_products`` call at all."""
        lat, gf = request.getfixturevalue(name)
        monkeypatch.setattr(classical, "_CHUNK", chunk)
        betas = [0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.2, 1.5]
        expected = exact_expectation(lat, gf, betas, lambda c: plaquette_average(c, lat))
        calls, products = [], classical.plaquette_products

        def counted(*args):
            calls.append(args)
            return products(*args)

        monkeypatch.setattr(classical, "plaquette_products", counted)
        assert exact_expectation(lat, gf, betas) == expected
        assert calls == []  # the sums come from the basis-index parities

    @pytest.mark.parametrize(
        "beta", [math.nan, math.inf, -0.5, [0.5, math.nan], [], [[0.5, 0.7]]]
    )
    def test_bad_beta_rejected(self, square3, beta):
        lat, gf = square3
        with pytest.raises(ValueError):
            exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))

    def test_observable_sees_decoded_basis_once(self, square3, monkeypatch):
        lat, gf = square3
        monkeypatch.setattr(classical, "_CHUNK", 5)
        seen = []

        def recording(configs):
            seen.append(configs.copy())
            return plaquette_average(configs, lat)

        exact_expectation(lat, gf, [0.3, 0.9], recording)
        assert [len(c) for c in seen] == [5, 5, 5, 1]
        np.testing.assert_array_equal(
            np.concatenate(seen), gf.decode(np.arange(1 << gf.n_free, dtype=np.uint64))
        )


class TestFlipProbability:
    def test_matches_direct_formula(self):
        for beta in (0.0, 0.4, 1.1):
            for u in (-1, 1):
                for c in (-3, -1, 0, 1, 3):
                    expected = 1.0 / (1.0 + math.exp(2.0 * beta * u * c))
                    assert flip_probability(u, c, beta) == pytest.approx(
                        expected, abs=1e-15
                    )

    def test_both_sides_sum_to_one(self):
        for beta in (0.2, 0.9):
            for c in (-3, -1, 1, 3):
                assert flip_probability(1, c, beta) + flip_probability(-1, c, beta) == (
                    pytest.approx(1.0, abs=1e-15)
                )

    def test_extreme_arguments(self):
        assert flip_probability(1, 3, 1000.0) == 0.0
        assert flip_probability(-1, 3, 1000.0) == 1.0

    def test_detailed_balance_random_pairs(self, hypercube):
        lat, _ = hypercube
        rng = np.random.default_rng(23)
        for config in random_configs(lat, rng, n=8):
            for n in rng.integers(0, lat.n_links, size=6):
                n = int(n)
                flipped = config.copy()
                flipped[n] = -flipped[n]
                beta = 0.7
                pi_a = math.exp(-action(config, lat, beta))
                pi_b = math.exp(-action(flipped, lat, beta))
                c = staple_sum(config, n, lat)
                forward = flip_probability(int(config[n]), c, beta)
                backward = flip_probability(int(flipped[n]), c, beta)
                assert pi_a * forward == pytest.approx(pi_b * backward, rel=1e-12)


class TestGlauberChain:
    @pytest.mark.parametrize("name", ["square3", "cube2", "torus3", "hypercube"])
    def test_staple_sum_bits_match_staple_sum(self, name, request):
        # the entry the chain reads, indexed by the number j of frustrated
        # plaquettes through the link, is the flip probability of the decoded
        # configuration
        lat, gf = request.getfixturevalue(name)
        plaq_of = plaquette_bits(lat, gf)
        rng = np.random.default_rng(13)
        for beta in (0.0, 0.7, 9.0):
            accept = _acceptance_table(plaq_of, beta)
            for state in rng.integers(0, 1 << gf.n_free, size=20):
                config = gf.decode(int(state))
                frustrated = plaquette_products(config, lat) == -1
                for q, link in enumerate(gf.free):
                    j = int(frustrated[(lat.plaq_links == link).any(axis=1)].sum())
                    c = staple_sum(config, link, lat)
                    expected = flip_probability(int(config[link]), c, beta)
                    assert accept[q][j] == expected

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 9.0])
    @pytest.mark.parametrize(
        # torus333's 81-plaquette register does not fit a machine word
        "name", ["square2", "square3", "cube2", "torus3", "hypercube", "torus333"]
    )
    def test_mcmc_matches_reference_stream(self, name, beta, seed, request):
        lat, gf = request.getfixturevalue(name)
        ens = mcmc_run(lat, gf, beta, n_configs=60, n_therm=20, stride=3, seed=seed)
        expected = reference_mcmc_configs(lat, gf, beta, 60, 20, 3, seed)
        np.testing.assert_array_equal(ens.configs, expected)

    @pytest.mark.parametrize("block", [1, 2, 3, "fallback"])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize(
        "name", ["square2", "square3", "cube2", "torus3", "hypercube", "torus333"]
    )
    def test_stream_independent_of_blocks(self, name, seed, block, request, monkeypatch):
        # blocks of 1, 2 or 3 sweeps cut the records and the thermalization at
        # every offset; "fallback" sets fewer block updates than one sweep has,
        # so the block length falls back to its floor of one sweep
        _, gf = request.getfixturevalue(name)
        updates = 1 if block == "fallback" else block * gf.n_free
        monkeypatch.setattr(classical, "_BLOCK_UPDATES", updates)
        self.test_mcmc_matches_reference_stream(name, 0.7, seed, request)

    @pytest.mark.parametrize("n_sweeps", [1, 2, 7, 40])
    @pytest.mark.parametrize("spare_draws", [None, 1, 2, 5, 8])
    @pytest.mark.parametrize("n_free", [1, 2, 3, 16, 17, 55, 1025])
    def test_draw_sweeps_matches_public_calls(self, n_free, spare_draws, n_sweeps):
        # what block independence rests on: one call per generator for a block
        # of sweeps equals one call per sweep, the generator state afterwards
        # included.  A bounded integer keeps its spare 32-bit half in the bit
        # generator's state and a double takes one whole word; an odd
        # integers(0, 2, size=m) first leaves a spare half to be used first
        for seed in (0, 5, 2024):
            block = np.random.default_rng(seed).spawn(2)
            public = np.random.default_rng(seed).spawn(2)
            if spare_draws is not None:
                block[0].integers(0, 2, size=spare_draws)
                public[0].integers(0, 2, size=spare_draws)
            qs = block[0].integers(0, n_free, size=n_sweeps * n_free).tolist()
            us = block[1].random(n_sweeps * n_free).tolist()
            expected_qs, expected_us = [], []
            for _ in range(n_sweeps):
                expected_qs += public[0].integers(0, n_free, size=n_free).tolist()
                expected_us += public[1].random(n_free).tolist()
            assert qs == expected_qs
            assert us == expected_us
            for drawn, expected in zip(block, public):
                assert drawn.bit_generator.state == expected.bit_generator.state

    def test_draw_sweeps_rejection_falls_back(self):
        # with seed 0, the low half of raw word 1345507 is one Lemire's method
        # rejects for n = 1025 (probability ~2.4e-7 per half); it falls back on
        # the next half, and a block drawn across it still equals the sweeps
        n_free, word = 1025, 1345507
        probe = np.random.default_rng(0).bit_generator.advance(word).random_raw()
        assert ((probe & 0xFFFFFFFF) * n_free) % (1 << 32) < (1 << 32) % n_free
        block, public = np.random.default_rng(0), np.random.default_rng(0)
        block.bit_generator.advance(word - 10)
        public.bit_generator.advance(word - 10)
        qs = block.integers(0, n_free, size=2 * n_free).tolist()
        expected_qs = []
        for _ in range(2):
            expected_qs += public.integers(0, n_free, size=n_free).tolist()
        assert qs == expected_qs
        # 2 * n_free halves from a fresh word end on a word boundary; the
        # rejected half leaves one spare
        assert block.bit_generator.state["has_uint32"] == 1
        assert block.bit_generator.state == public.bit_generator.state

    @pytest.mark.parametrize("name", ["cube2", "square3"])
    def test_parent_hamiltonian_is_glauber_generator(self, name, request):
        # H = N_free S (I - P_Glauber) S^-1, so gap(H) = N_free * the chain's gap
        lat, gf = request.getfixturevalue(name)
        for beta in (0.0, 0.8, 2.0):
            np.testing.assert_allclose(
                build_dense_hamiltonian(lat, gf, beta),
                glauber_generator(lat, gf, beta),
                rtol=0,
                atol=1e-13,
            )
        gap = {"cube2": 0.304690, "square3": 0.446817}[name]
        spectrum = np.linalg.eigvalsh(glauber_generator(lat, gf, 0.8))
        assert spectrum[1] == pytest.approx(gap, abs=1e-6)

    def test_numpy_beta_runs_as_its_float(self, square3):
        # the header records float(beta); the chain must run on that same value
        lat, gf = square3
        a = mcmc_run(lat, gf, np.float32(0.7), n_configs=200, n_therm=10, stride=2, seed=5)
        b = mcmc_run(lat, gf, float(np.float32(0.7)), n_configs=200, n_therm=10, stride=2, seed=5)
        assert type(a.meta.beta) is float and a.meta.beta == b.meta.beta
        assert a.configs.tobytes() == b.configs.tobytes()

    def test_mcmc_reproducible(self, square3):
        lat, gf = square3
        a = mcmc_run(lat, gf, 0.7, n_configs=50, n_therm=10, stride=2, seed=9)
        b = mcmc_run(lat, gf, 0.7, n_configs=50, n_therm=10, stride=2, seed=9)
        c = mcmc_run(lat, gf, 0.7, n_configs=50, n_therm=10, stride=2, seed=10)
        np.testing.assert_array_equal(a.configs, b.configs)
        assert not np.array_equal(a.configs, c.configs)

    def test_mcmc_metadata_and_gauge(self, cube2):
        lat, gf = cube2
        ens = mcmc_run(lat, gf, 0.5, n_configs=30, n_therm=5, stride=3, seed=4)
        assert ens.meta.sampler is Sampler.MCMC
        assert ens.meta.beta == 0.5
        assert ens.meta.dims == lat.dims
        assert ens.meta.extra == {"n_therm": "5", "stride": "3"}
        assert ens.configs.shape == (30, lat.n_links)
        assert (ens.configs[:, list(gf.fixed)] == 1).all()

    def test_mcmc_matches_exact_on_square(self, square2):
        lat, gf = square2
        ens = mcmc_run(lat, gf, 0.7, n_configs=4000, n_therm=50, stride=5, seed=1)
        mean = plaquette_average(ens.configs, lat).mean()
        # single free link, exact P = tanh(0.7); generous statistical margin
        assert mean == pytest.approx(math.tanh(0.7), abs=0.05)

    def test_mcmc_validation(self, square2):
        lat, gf = square2
        with pytest.raises(ValueError):
            mcmc_run(lat, gf, 0.7, n_configs=0)
        with pytest.raises(ValueError):
            mcmc_run(lat, gf, 0.7, n_configs=5, stride=0)
        for beta in (math.nan, -0.5, math.inf):
            with pytest.raises(ValueError):
                mcmc_run(lat, gf, beta, n_configs=5)
        for counts in (
            {"n_configs": 2.5},
            {"n_configs": True},
            {"n_configs": 5, "n_therm": 1.0},
            {"n_configs": 5, "n_therm": -1},
            {"n_configs": 5, "stride": False},
            {"n_configs": 5, "stride": "2"},
        ):
            with pytest.raises(ValueError):
                mcmc_run(lat, gf, 0.7, **counts)

    def test_mcmc_accepts_numpy_counts(self, square3):
        lat, gf = square3
        a = mcmc_run(lat, gf, 0.7, n_configs=np.int64(7), n_therm=np.int32(3), stride=2)
        b = mcmc_run(lat, gf, 0.7, n_configs=7, n_therm=3, stride=2)
        np.testing.assert_array_equal(a.configs, b.configs)

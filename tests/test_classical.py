import itertools
import math

import numpy as np
import pytest

from z2qsim import limits
from z2qsim.classical import (
    Coupling,
    action,
    action_density,
    apply_gauge_flip,
    delta_action,
    enumerate_basis,
    exact_expectation,
    flip_probability,
    glauber_step,
    mcmc_run,
    plaquette_average,
    plaquette_products,
    staple_sum,
)
from z2qsim.ensemble import Sampler
from z2qsim.lattice import build_lattice, gauge_fix


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

    def test_infinite_limit(self):
        c = Coupling(infinite=True)
        t, s = c.tanh_sech(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(t, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(s, [0.0, 1.0, 0.0])

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
        assert plaquette_products(batch, lat).shape == (3, 5, lat.n_plaquettes)
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


class TestLocalMoves:
    def test_staple_sum_matches_plaquette_identity(self, hypercube):
        lat, _ = hypercube
        rng = np.random.default_rng(11)
        for config in random_configs(lat, rng, n=6):
            prods = plaquette_products(config, lat)
            for n in rng.integers(0, lat.n_links, size=8):
                n = int(n)
                local = prods[list(lat._link_plaqs[n])].sum()
                assert config[n] * staple_sum(config, n, lat) == local

    def test_delta_action_matches_brute_force(self, cube2):
        lat, _ = cube2
        rng = np.random.default_rng(5)
        for config in random_configs(lat, rng):
            for n in rng.integers(0, lat.n_links, size=6):
                n = int(n)
                flipped = config.copy()
                flipped[n] = -flipped[n]
                expected = action(flipped, lat, 0.9) - action(config, lat, 0.9)
                assert delta_action(config, int(n), lat, 0.9) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_gauge_flip_preserves_plaquettes(self, hypercube):
        lat, _ = hypercube
        rng = np.random.default_rng(17)
        for config in random_configs(lat, rng, n=5):
            site = int(rng.integers(lat.n_sites))
            transformed = apply_gauge_flip(config, lat, site)
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

    def test_chunk_independence(self, square3):
        lat, gf = square3
        obs = lambda c: plaquette_average(c, lat)  # noqa: E731
        a = exact_expectation(lat, gf, 0.8, obs, chunk=3)
        b = exact_expectation(lat, gf, 0.8, obs)
        assert a == pytest.approx(b, abs=1e-14)

    def test_large_beta_stable(self, square2):
        lat, gf = square2
        with np.errstate(over="raise"):
            p = exact_expectation(lat, gf, 600.0, lambda c: plaquette_average(c, lat))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self, hypercube, monkeypatch):
        lat, gf = hypercube
        monkeypatch.setenv(limits.ENV_VAR, "10")
        with pytest.raises(limits.EnumerationCapError):
            exact_expectation(lat, gf, 0.5, lambda c: plaquette_average(c, lat))

    def test_enumerate_basis_covers_space(self, square3):
        _, gf = square3
        seen = []
        for idx, configs in enumerate_basis(gf, chunk=5):
            assert configs.shape == (len(idx), gf.n_links)
            seen.extend(idx.tolist())
        assert seen == list(range(1 << gf.n_free))


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
    def test_single_step_flips_at_most_one_free_link(self, square3):
        lat, gf = square3
        rng = np.random.default_rng(2)
        config = gf.decode(7)
        for _ in range(50):
            new = glauber_step(config, lat, gf, 0.6, rng)
            changed = np.nonzero(new != config)[0]
            assert len(changed) <= 1
            if len(changed) == 1:
                assert int(changed[0]) in gf.free
            assert gf.is_gauge_fixed(new)
            config = new

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
        for cfg in ens.configs:
            assert gf.is_gauge_fixed(cfg)

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

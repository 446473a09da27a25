import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import expm

from z2qsim import limits, quantum
from z2qsim.classical import (
    Coupling,
    _acceptance_table,
    exact_expectation,
    flip_probability,
    plaquette_average,
)
from z2qsim.ensemble import Sampler
from z2qsim.lattice import Boundary, build_lattice, gauge_fix
from z2qsim.quantum import (
    Schedule,
    StartKind,
    adiabatic_evolve,
    apply_hamiltonian,
    apply_term_evolution,
    build_dense_hamiltonian,
    build_link_terms,
    expectation_plaquette,
    ground_state_reference,
    initial_state,
    lowest_eigenvalues,
    plaquette_sum_diagonal,
    sample_configs,
)
from oracles import action, plaquette_bits, staple_links, staple_sum

BETAS = (0.0, 0.7, 1.5)
# Up to the large couplings a cold ramp passes through, where 1 - tanh(beta c)
# cancels to nothing in double precision.
KERNEL_BETAS = (0.0, 0.6, 1.4, 9.0, 12.0)


def staple_sums_full(term):
    """Staple sum of a LinkTerm on every full basis index (duplicated over its
    own bit)."""
    hi = 1 << (term.n_qubits - 1 - term.qubit)
    lo = 1 << term.qubit
    c = term.c_table.astype(np.int64) - term.n_staples
    return np.broadcast_to(c.reshape(hi, 1, lo), (hi, 2, lo)).reshape(-1)


def action_diagonal(lat, gf, beta):
    """The classical action S = -beta * (plaquette sum) on every basis state."""
    return -beta * plaquette_sum_diagonal(lat, gf).astype(np.float64)


def dense_term_matrix(term, coupling):
    """Single-term Hamiltonian as an explicit matrix, built the slow way."""
    dim = 1 << term.n_qubits
    idx = np.arange(dim)
    c = staple_sums_full(term)
    t, s = coupling.tanh_sech(c)
    z = 1 - 2 * ((idx >> term.qubit) & 1)
    h = np.zeros((dim, dim))
    h[idx, idx] = 0.5 * (1.0 - t * z)
    h[idx, idx ^ (1 << term.qubit)] = -0.5 * s
    return h


def random_state(dim, rng):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def reference_projector(dst, src, term, coupling, scale):
    """The term-by-term kernel the blocked step replaced: dst += scale * h @ src
    over the whole state, with float64 weights cast by numpy in each product."""
    w0, w1 = quantum._term_weights(term, coupling)
    shape = (1 << (term.n_qubits - 1 - term.qubit), 2, 1 << term.qubit)
    a, b = src.reshape(shape)[:, 0, :], src.reshape(shape)[:, 1, :]
    w0 = w0[term.c_table].reshape(a.shape)
    w1 = w1[term.c_table].reshape(a.shape)
    r = w0 * a
    r += w1 * b
    r *= scale
    dst_a, dst_b = dst.reshape(shape)[:, 0, :], dst.reshape(shape)[:, 1, :]
    dst_a += w0 * r
    dst_b += w1 * r
    return dst


def reference_sweep(lat, gf, schedule):
    terms = build_link_terms(lat, gf)
    state = initial_state(gf.n_free, schedule.start)
    scale = np.exp(-1j * schedule.dt_eff) - 1.0
    for step in range(schedule.n_steps):
        for term in terms:
            reference_projector(state, state, term, schedule.coupling_at(step), scale)
    return state


def reference_hamiltonian(state, terms, coupling):
    out = np.zeros_like(state)
    for term in terms:
        reference_projector(out, state, term, coupling, 1.0)
    return out


@pytest.fixture(scope="module")
def two_qubit():
    """2x3 open square: 2 free links."""
    lat = build_lattice((2, 3))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="module")
def open43():
    """4x3 open square: 6 free links."""
    lat = build_lattice((4, 3))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="module")
def torus44():
    """4x4 periodic square: 17 free links, as many as the hypercube."""
    lat = build_lattice((4, 4), Boundary.PERIODIC)
    return lat, gauge_fix(lat)


@pytest.fixture(scope="module")
def whole15():
    """4x6 open square: 15 free links, the largest state applied whole."""
    lat = build_lattice((4, 6))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="module")
def slab16():
    """2x3x3 open: 16 free links, the smallest state cut into blocks."""
    lat = build_lattice((2, 3, 3))
    return lat, gauge_fix(lat)


# Every term against dense expm: D = 2 and 3, open and periodic.  The cube2
# cases are named by beta alone.  torus3's ten dense 10-qubit expms take about
# 5 s together, so it runs at one coupling.
EXPM_CASES = (
    [pytest.param("cube2", beta, id=str(beta)) for beta in KERNEL_BETAS]
    + [
        pytest.param(name, beta, id=f"{name}-{beta}")
        for name in ("square3", "open43")
        for beta in KERNEL_BETAS
    ]
    + [pytest.param("torus3", 1.4, id="torus3-1.4")]
)

BLOCKING_LATTICES = (
    "square2", "two_qubit", "square3", "cube2", "torus3", "whole15", "slab16", "hypercube",
)


class TestDiagonals:
    @pytest.mark.parametrize("name", ["square2", "square3", "cube2", "torus3", "hypercube"])
    def test_ordered_state_plaquette_sum(self, name, request):
        # exact_expectation and ground_state_reference shift by this maximum
        lat, gf = request.getfixturevalue(name)
        diag = plaquette_sum_diagonal(lat, gf)
        assert diag.shape == (1 << gf.n_free,)
        assert diag[0] == lat.n_plaquettes == diag.max()

    def test_action_diagonal_examples(self, hypercube):
        lat, gf = hypercube
        s = action_diagonal(lat, gf, 0.7)
        assert s[0] == pytest.approx(-16.8, abs=1e-12)
        assert (action_diagonal(lat, gf, 0.0) == 0.0).all()

    def test_matches_classical_action(self, cube2):
        lat, gf = cube2
        s = action_diagonal(lat, gf, 0.9)
        idx = np.arange(1 << gf.n_free, dtype=np.uint64)
        configs = gf.decode(idx)
        np.testing.assert_allclose(s, action(configs, lat, 0.9), atol=1e-12)

    def test_single_plaquette_diagonal(self, square2):
        lat, gf = square2
        diag = plaquette_sum_diagonal(lat, gf)
        np.testing.assert_array_equal(diag, [1, -1])


class TestGroundStateReference:
    def test_beta_zero_uniform(self, cube2):
        lat, gf = cube2
        ref = ground_state_reference(lat, gf, 0.0)
        np.testing.assert_allclose(ref, 2.0 ** (-gf.n_free / 2), atol=1e-15)

    def test_large_beta_is_ordered_state(self, hypercube):
        lat, gf = hypercube
        ref = ground_state_reference(lat, gf, 50.0)
        cold = initial_state(gf.n_free, StartKind.COLD)
        np.testing.assert_allclose(ref, cold.real, rtol=0, atol=1e-60)

    def test_matches_gibbs_weights(self, square3):
        lat, gf = square3
        beta = 0.8
        ref = ground_state_reference(lat, gf, beta)
        s = action_diagonal(lat, gf, beta)
        w = np.exp(-s)
        np.testing.assert_allclose(ref, np.sqrt(w / w.sum()), atol=1e-13)
        assert (ref > 0).all()
        assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 1.2])
    def test_expectation_identity(self, dims, beta):
        lat = build_lattice(dims)
        gf = gauge_fix(lat)
        ref = ground_state_reference(lat, gf, beta)
        p_state = expectation_plaquette(ref, lat, gf)
        p_exact = exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))
        assert p_state == pytest.approx(p_exact, abs=1e-10)


class TestLinkTerms:
    def test_square2_single_constant_term(self, square2):
        lat, gf = square2
        terms = build_link_terms(lat, gf)
        assert len(terms) == 1
        term = terms[0]
        assert term.n_staples == 1
        assert term.c_table.shape == (1,)
        # all three staple links are tree-fixed: c is the constant +1
        assert staple_sums_full(term).tolist() == [1, 1]

    def test_hypercube_term_structure(self, hypercube):
        lat, gf = hypercube
        terms = build_link_terms(lat, gf)
        assert len(terms) == 17
        for term in terms:
            assert term.n_staples == 3
            c = np.unique(staple_sums_full(term))
            assert set(c.tolist()) <= {-3, -1, 1, 3}

    @pytest.mark.parametrize("name", ["cube2", "torus3", "hypercube", "torus44"])
    def test_staple_sums_match_classical(self, name, request):
        # D = 2..4, both boundaries: every c_table entry against the staple
        # sum of the decoded configuration
        lat, gf = request.getfixturevalue(name)
        configs = gf.decode(np.arange(1 << gf.n_free, dtype=np.uint64))
        for term, link in zip(build_link_terms(lat, gf), gf.free):
            assert term.n_staples == len(staple_links(lat, link))
            np.testing.assert_array_equal(staple_sums_full(term), staple_sum(configs, link, lat))

    def test_c_bounded_by_staple_count(self, torus3):
        lat, gf = torus3
        for term in build_link_terms(lat, gf):
            c = term.c_table.astype(int) - term.n_staples
            assert np.abs(c).max() <= term.n_staples
            assert term.c_table.shape == (1 << (gf.n_free - 1),)


class TestDenseHamiltonian:
    def test_square2_analytic(self, square2):
        lat, gf = square2
        for beta in BETAS:
            h = build_dense_hamiltonian(lat, gf, beta)
            t, s = math.tanh(beta), 1.0 / math.cosh(beta)
            np.testing.assert_allclose(
                h, 0.5 * np.array([[1 - t, -s], [-s, 1 + t]]), atol=1e-15
            )
            np.testing.assert_allclose(np.linalg.eigvalsh(h), [0.0, 1.0], atol=1e-14)

    def test_beta_zero_spectrum_is_binomial(self, cube2):
        lat, gf = cube2
        h = build_dense_hamiltonian(lat, gf, 0.0)
        n = gf.n_free
        expected = np.repeat(np.arange(n + 1), [math.comb(n, k) for k in range(n + 1)])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "dims,boundary",
        [
            ((2, 2), Boundary.OPEN),
            ((3, 3), Boundary.OPEN),
            ((2, 2, 2), Boundary.OPEN),
            ((2, 2, 3), Boundary.OPEN),
            ((3, 3), Boundary.PERIODIC),
        ],
    )
    def test_correctness_suite(self, dims, boundary):
        """Hermiticity, zero ground eigenvalue, and ground-state identity."""
        lat = build_lattice(dims, boundary)
        gf = gauge_fix(lat)
        for beta in BETAS:
            h = build_dense_hamiltonian(lat, gf, beta)
            assert np.abs(h - h.T.conj()).max() <= 1e-12
            w, v = np.linalg.eigh(h)
            assert abs(w[0]) <= 1e-9
            ref = ground_state_reference(lat, gf, beta)
            assert abs(v[:, 0] @ ref) >= 1 - 1e-9

    def test_zero_mode_dense_and_matrix_free(self, cube2):
        lat, gf = cube2
        terms = build_link_terms(lat, gf)
        for beta in BETAS:
            ref = ground_state_reference(lat, gf, beta)
            h = build_dense_hamiltonian(lat, gf, beta)
            assert np.abs(h @ ref).max() < 1e-9
            hs = apply_hamiltonian(ref.astype(np.complex128), terms, Coupling(beta))
            assert np.abs(hs).max() < 1e-9

    def test_dense_cap(self, hypercube):
        lat, gf = hypercube
        with pytest.raises(limits.EnumerationCapError):
            build_dense_hamiltonian(lat, gf, 0.5)

    def test_fixed_cap_message_has_no_override_hint(self, hypercube, monkeypatch):
        # the environment variable raises the default cap, not this one
        lat, gf = hypercube
        monkeypatch.setenv(limits.ENV_VAR, "30")
        with pytest.raises(limits.EnumerationCapError) as info:
            build_dense_hamiltonian(lat, gf, 0.5)
        assert str(info.value) == "dense Hamiltonian: N_free=17 exceeds cap 12"


class TestTermEvolution:
    def test_identity_at_dt_zero_and_full_period(self, cube2):
        lat, gf = cube2
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(1)
        psi = random_state(1 << gf.n_free, rng)
        coupling = Coupling(0.7)
        for dt in (0.0, 2.0 * math.pi):
            out = apply_term_evolution(psi.copy(), terms[0], coupling, dt)
            np.testing.assert_allclose(out, psi, atol=1e-12)

    @pytest.mark.parametrize("name, beta", EXPM_CASES)
    def test_matches_expm_oracle(self, name, beta, request):
        lat, gf = request.getfixturevalue(name)
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(2)
        coupling = Coupling(beta)
        for term in terms:
            psi = random_state(1 << gf.n_free, rng)
            u = expm(-1j * 0.35 * dense_term_matrix(term, coupling))
            expected = u @ psi
            out = apply_term_evolution(psi.copy(), term, coupling, 0.35)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_qubit_oracle(self, square2):
        lat, gf = square2
        (term,) = build_link_terms(lat, gf)
        beta, dt = 0.9, 0.4
        t, s = math.tanh(beta), 1.0 / math.cosh(beta)
        h = 0.5 * np.array([[1 - t, -s], [-s, 1 + t]])
        rng = np.random.default_rng(3)
        psi = random_state(2, rng)
        expected = expm(-1j * dt * h) @ psi
        out = apply_term_evolution(psi.copy(), term, Coupling(beta), dt)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_norm_preserved(self, cube2):
        lat, gf = cube2
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(4)
        psi = random_state(1 << gf.n_free, rng)
        for i in range(60):
            coupling = Coupling(0.1 * (i % 13))
            apply_term_evolution(psi, terms[i % len(terms)], coupling, 0.23)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_huge_coupling_matches_expm(self, cube2):
        lat, gf = cube2
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(5)
        psi = random_state(1 << gf.n_free, rng)
        huge = Coupling(1e8)  # tanh saturates to +-1, sech underflows to 0
        for term in terms:
            with np.errstate(over="raise"):
                out = apply_term_evolution(psi.copy(), term, huge, 0.3)
                expected = expm(-1j * 0.3 * dense_term_matrix(term, huge)) @ psi
            np.testing.assert_allclose(out, expected, atol=1e-12)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_term_application_matches_dense(self, square3):
        lat, gf = square3
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(6)
        psi = random_state(1 << gf.n_free, rng)
        for beta in KERNEL_BETAS:
            coupling = Coupling(beta)
            for term in terms:
                out = apply_hamiltonian(psi, (term,), coupling)
                expected = dense_term_matrix(term, coupling) @ psi
                np.testing.assert_allclose(out, expected, atol=1e-13)

    @pytest.mark.parametrize("beta", [0.7, 9.0])
    def test_diagonal_is_glauber_flip_probability(self, cube2, beta):
        """<b|h_n|b> is the heat-bath probability of flipping link n in b."""
        lat, gf = cube2
        terms = build_link_terms(lat, gf)
        coupling = Coupling(beta)
        dim = 1 << gf.n_free
        for b in range(dim):
            basis = np.zeros(dim)
            basis[b] = 1.0
            config = gf.decode(b)
            for term, link in zip(terms, gf.free):
                diag = apply_hamiltonian(basis, (term,), coupling)[b]
                expected = flip_probability(int(config[link]), staple_sum(config, link, lat), beta)
                assert diag == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestBlockedStep:
    """The cache-blocked, two-thread Trotter step gives the same bytes as the
    term-by-term kernel above.  The lattices run from one free link to the
    hypercube's 17, more than the 15-qubit block."""

    @pytest.mark.parametrize("start", [StartKind.HOT, StartKind.COLD])
    @pytest.mark.parametrize("name", BLOCKING_LATTICES)
    def test_sweep_bytes_match_term_by_term(self, request, name, start):
        lat, gf = request.getfixturevalue(name)
        schedule = Schedule(start, beta_target=0.9, total_time=0.8, dt=0.2)
        expected = reference_sweep(lat, gf, schedule)
        assert adiabatic_evolve(lat, gf, schedule).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["square3", "cube2", "torus3"])
    def test_blocks_on_small_lattices_keep_bytes(self, request, monkeypatch, name):
        """Small lattices are applied whole; cutting them into 4-pair blocks
        on two threads must not change a bit either."""
        lat, gf = request.getfixturevalue(name)
        schedule = Schedule(StartKind.COLD, beta_target=0.7, total_time=0.6, dt=0.2)
        expected = reference_sweep(lat, gf, schedule)
        monkeypatch.setattr(quantum, "_BLOCK_QUBITS", 3)
        monkeypatch.setattr(quantum, "_usable_cpus", lambda: 2)
        pairs = 1 << (gf.n_free - 1)
        assert quantum._layout(gf.n_free) == (4, (0, pairs // 2, pairs))
        assert adiabatic_evolve(lat, gf, schedule).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_helper_thread_only_for_large_states_on_two_cpus(
        self, monkeypatch, whole15, slab16, cpus
    ):
        submitted = []
        real = quantum._helper()

        class Recorder:
            def submit(self, fn, *args):
                submitted.append(args)
                return real.submit(fn, *args)

        monkeypatch.setattr(quantum, "_helper", Recorder)
        monkeypatch.setattr(quantum, "_usable_cpus", lambda: cpus)
        schedule = Schedule(StartKind.HOT, beta_target=0.7, total_time=0.4, dt=0.2)
        adiabatic_evolve(*whole15, schedule)
        assert submitted == []
        expected = reference_sweep(*slab16, schedule)
        assert adiabatic_evolve(*slab16, schedule).tobytes() == expected.tobytes()
        # per step on two CPUs: both halves, then the top qubit's term
        assert submitted == [(1,)] * (4 if cpus == 2 else 0)

    @pytest.mark.parametrize("name", BLOCKING_LATTICES)
    def test_single_terms_and_hamiltonian_match(self, request, name):
        lat, gf = request.getfixturevalue(name)
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(11)
        coupling = Coupling(1.3)
        psi = random_state(1 << gf.n_free, rng)
        x = rng.normal(size=psi.size)
        scale = np.exp(-0.3j) - 1.0
        for term in terms:
            expected = reference_projector(psi.copy(), psi.copy(), term, coupling, scale)
            out = apply_term_evolution(psi.copy(), term, coupling, 0.3)
            assert out.tobytes() == expected.tobytes()
        # H psi is computed in the Pauli form, so it agrees with the projector
        # kernel to rounding, not byte for byte
        for vector in (x, psi):
            out = apply_hamiltonian(vector, terms, coupling)
            assert out.dtype == vector.dtype
            expected = reference_hamiltonian(vector, terms, coupling)
            assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_frequent_thread_switches_keep_bytes(self, hypercube):
        lat, gf = hypercube
        schedule = Schedule(StartKind.HOT, beta_target=0.7, total_time=0.4, dt=0.2)
        expected = reference_sweep(lat, gf, schedule)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = adiabatic_evolve(lat, gf, schedule)
        finally:
            sys.setswitchinterval(interval)
        assert out.tobytes() == expected.tobytes()


class TestPauliHamiltonian:
    """H psi = D psi - 1/2 sum_n sech(beta C_n) X_n psi, against the dense
    matrix, the projector kernel and the zero mode."""

    @pytest.mark.parametrize("name", ["square3", "cube2"])
    def test_matches_dense(self, request, name):
        lat, gf = request.getfixturevalue(name)
        terms = build_link_terms(lat, gf)
        rng = np.random.default_rng(12)
        psi = random_state(1 << gf.n_free, rng)
        for coupling in [Coupling(beta) for beta in KERNEL_BETAS + (1e8,)]:
            h = build_dense_hamiltonian(lat, gf, coupling.beta)
            for vector in (psi.real.copy(), psi):
                out = apply_hamiltonian(vector, terms, coupling)
                assert out.dtype == vector.dtype
                np.testing.assert_allclose(out, h @ vector, rtol=0, atol=1e-13)
                # the once-per-solve diagonal and scratch give the same bytes
                diagonal = quantum._hamiltonian_diagonal(terms, coupling)
                scratch = np.full((2, vector.size // 2), np.nan, dtype=vector.dtype)
                for _ in range(2):
                    again = apply_hamiltonian(vector, terms, coupling, diagonal, scratch)
                    assert again.tobytes() == out.tobytes()

    def test_hypercube_zero_mode(self, hypercube):
        lat, gf = hypercube
        terms = build_link_terms(lat, gf)
        for beta in BETAS:
            ref = ground_state_reference(lat, gf, beta)
            assert np.abs(apply_hamiltonian(ref, terms, Coupling(beta))).max() < 1e-12

    @pytest.mark.parametrize("beta", [0.7, 9.0])
    def test_diagonal_is_glauber_escape_rate(self, beta, request):
        """D[b] is the rate at which the heat-bath chain leaves b: the sum over
        free links of the chain's own flip probability, ``accept[q][j]`` with j
        the frustrated plaquettes through the link, on every basis state."""
        for name in ("cube2", "hypercube"):
            lat, gf = request.getfixturevalue(name)
            diagonal = quantum._hamiltonian_diagonal(build_link_terms(lat, gf), Coupling(beta))
            accept = _acceptance_table(plaquette_bits(lat, gf), beta)
            configs = gf.decode(np.arange(1 << gf.n_free, dtype=np.uint64))
            expected = np.zeros(1 << gf.n_free)
            for q, link in enumerate(gf.free):
                staples = staple_links(lat, link)
                # u C = the sum of the plaquettes through the link = n_q - 2 j
                uc = configs[:, link] * configs[:, staples].prod(axis=-1).sum(axis=-1)
                expected += np.asarray(accept[q])[(len(staples) - uc) // 2]
            np.testing.assert_allclose(diagonal, expected, rtol=1e-12, atol=0.0)


class TestSchedule:
    def test_step_count_rounds_up(self):
        s = Schedule(StartKind.HOT, beta_target=0.7, total_time=10.0, dt=0.2)
        assert s.n_steps == 50
        assert s.dt_eff == pytest.approx(0.2)
        s = Schedule(StartKind.HOT, beta_target=0.7, total_time=1.0, dt=0.3)
        assert s.n_steps == 4
        assert s.dt_eff == pytest.approx(0.25)

    def test_hot_ramp_linear_in_beta(self):
        s = Schedule(StartKind.HOT, beta_target=1.0, total_time=10.0, dt=1.0)
        betas = [s.coupling_at(k).beta for k in range(s.n_steps)]
        np.testing.assert_allclose(betas, (np.arange(10) + 0.5) / 10.0, atol=1e-14)

    def test_cold_ramp_linear_in_g_squared(self):
        s = Schedule(StartKind.COLD, beta_target=1.0, total_time=10.0, dt=1.0)
        g2 = [1.0 / s.coupling_at(k).beta for k in range(s.n_steps)]
        np.testing.assert_allclose(g2, (np.arange(10) + 0.5) / 10.0, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(StartKind.HOT, beta_target=-1.0, total_time=5.0)
        with pytest.raises(ValueError):
            Schedule(StartKind.HOT, beta_target=math.inf, total_time=5.0)
        with pytest.raises(ValueError):
            Schedule(StartKind.HOT, beta_target=0.7, total_time=0.0)
        with pytest.raises(ValueError):
            Schedule(StartKind.HOT, beta_target=0.7, total_time=5.0, dt=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Schedule(StartKind.HOT, beta_target=0.7, total_time=bad)
            with pytest.raises(ValueError):
                Schedule(StartKind.HOT, beta_target=0.7, total_time=5.0, dt=bad)

    def test_numpy_beta_ramps_as_its_float(self, square3):
        # the ensemble header records float(beta); the ramp must use that value
        lat, gf = square3
        ramps = [
            Schedule(start, beta, total_time=2.0)
            for start in StartKind
            for beta in (np.float32(0.7), float(np.float32(0.7)))
        ]
        for numpy_beta, python_beta in zip(ramps[0::2], ramps[1::2]):
            coupling = numpy_beta.coupling_at(3)
            assert type(coupling.beta) is float
            assert coupling == python_beta.coupling_at(3)
            assert (
                adiabatic_evolve(lat, gf, numpy_beta).tobytes()
                == adiabatic_evolve(lat, gf, python_beta).tobytes()
            )

    def test_string_start_matches_enum(self, torus3):
        # "hot" once ran the cold ramp: coupling_at tested identity with the enum
        lat, gf = torus3
        for start in StartKind:
            by_name = Schedule(start.value, beta_target=0.7, total_time=2.0)
            assert by_name.start is start
            assert by_name.coupling_at(0) == Schedule(start, 0.7, 2.0).coupling_at(0)
            state = initial_state(gf.n_free, start.value)
            assert state.tobytes() == initial_state(gf.n_free, start).tobytes()
            assert (
                adiabatic_evolve(lat, gf, by_name).tobytes()
                == adiabatic_evolve(lat, gf, Schedule(start, 0.7, 2.0)).tobytes()
            )

    def test_unknown_start_refused(self):
        with pytest.raises(ValueError, match="'warm' is not a valid StartKind"):
            Schedule("warm", beta_target=0.7, total_time=2.0)
        with pytest.raises(ValueError, match="'warm' is not a valid StartKind"):
            initial_state(3, "warm")

    def test_initial_states(self):
        hot = initial_state(3, StartKind.HOT)
        np.testing.assert_allclose(hot, np.full(8, 8 ** -0.5), atol=1e-15)
        cold = initial_state(3, StartKind.COLD)
        assert cold[0] == 1.0 and np.count_nonzero(cold) == 1


class TestAdiabaticEvolve:
    def test_beta_zero_hot_start_is_stationary(self, cube2):
        lat, gf = cube2
        sched = Schedule(StartKind.HOT, beta_target=0.0, total_time=7.0, dt=0.2)
        state = adiabatic_evolve(lat, gf, sched)
        np.testing.assert_allclose(state, initial_state(gf.n_free, StartKind.HOT), atol=1e-12)
        assert abs(expectation_plaquette(state, lat, gf)) < 1e-9

    def test_deterministic(self, square3):
        lat, gf = square3
        sched = Schedule(StartKind.COLD, beta_target=0.8, total_time=12.0, dt=0.25)
        a = adiabatic_evolve(lat, gf, sched)
        b = adiabatic_evolve(lat, gf, sched)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("start", [StartKind.HOT, StartKind.COLD])
    def test_converges_on_single_qubit(self, square2, start):
        lat, gf = square2
        sched = Schedule(start, beta_target=0.7, total_time=160.0, dt=0.2)
        state = adiabatic_evolve(lat, gf, sched)
        p = expectation_plaquette(state, lat, gf)
        assert p == pytest.approx(math.tanh(0.7), abs=0.01)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-8

    def test_converges_on_cube(self, cube2):
        lat, gf = cube2
        p_exact = exact_expectation(lat, gf, 0.7, lambda c: plaquette_average(c, lat))
        for start in (StartKind.HOT, StartKind.COLD):
            sched = Schedule(start, beta_target=0.7, total_time=240.0, dt=0.2)
            state = adiabatic_evolve(lat, gf, sched)
            assert expectation_plaquette(state, lat, gf) == pytest.approx(p_exact, abs=0.01)

    def test_stationary_at_fixed_coupling(self, cube2):
        """Evolving the exact ground state at fixed beta only accrues Trotter
        error, bounded by dt^2 per unit time."""
        lat, gf = cube2
        beta, dt, total = 0.7, 0.2, 2.0
        terms = build_link_terms(lat, gf)
        ref = ground_state_reference(lat, gf, beta).astype(np.complex128)
        p0 = expectation_plaquette(ref, lat, gf)
        coupling = Coupling(beta)
        state = ref.copy()
        for _ in range(int(total / dt)):
            for term in terms:
                apply_term_evolution(state, term, coupling, dt)
        drift = abs(expectation_plaquette(state, lat, gf) - p0)
        assert drift < dt * dt * total


class TestExpectationAndSampling:
    def test_uniform_state_zero(self, hypercube):
        lat, gf = hypercube
        state = initial_state(gf.n_free, StartKind.HOT)
        assert abs(expectation_plaquette(state, lat, gf)) < 1e-12

    def test_ordered_state_one(self, hypercube):
        lat, gf = hypercube
        state = initial_state(gf.n_free, StartKind.COLD)
        assert expectation_plaquette(state, lat, gf) == 1.0

    def test_expectation_refuses_wrong_length(self, square2):
        lat, gf = square2
        with pytest.raises(ValueError, match=r"state has shape \(4,\), expected \(2,\)"):
            expectation_plaquette(initial_state(2, StartKind.HOT), lat, gf)

    def test_expectation_refuses_zero_state(self, square2):
        lat, gf = square2
        with pytest.raises(ValueError, match="state has no norm"):
            expectation_plaquette(np.zeros(2, dtype=complex), lat, gf)

    def test_sample_from_basis_state(self, cube2):
        lat, gf = cube2
        state = initial_state(gf.n_free, StartKind.COLD)
        ens = sample_configs(state, lat, gf, 25, beta=0.7, seed=3)
        assert ens.meta.sampler is Sampler.QUANTUM
        assert ens.configs.shape == (25, lat.n_links)
        assert (ens.configs == 1).all()

    def test_seed_determinism(self, cube2):
        lat, gf = cube2
        ref = ground_state_reference(lat, gf, 0.7).astype(np.complex128)
        a = sample_configs(ref, lat, gf, 200, beta=0.7, seed=11)
        b = sample_configs(ref, lat, gf, 200, beta=0.7, seed=11)
        c = sample_configs(ref, lat, gf, 200, beta=0.7, seed=12)
        np.testing.assert_array_equal(a.configs, b.configs)
        assert not np.array_equal(a.configs, c.configs)

    def test_sampled_frequencies_match_born_rule(self, square2):
        lat, gf = square2
        ref = ground_state_reference(lat, gf, 0.7).astype(np.complex128)
        n = 20000
        ens = sample_configs(ref, lat, gf, n, beta=0.7, seed=7)
        frac_up = (ens.configs[:, gf.free[0]] == 1).mean()
        p_up = abs(ref[0]) ** 2
        sigma = math.sqrt(p_up * (1 - p_up) / n)
        assert abs(frac_up - p_up) < 4 * sigma

    def test_all_samples_gauge_fixed(self, square3):
        lat, gf = square3
        ref = ground_state_reference(lat, gf, 0.5).astype(np.complex128)
        ens = sample_configs(ref, lat, gf, 50, beta=0.5, seed=0)
        assert (ens.configs[:, list(gf.fixed)] == 1).all()

    def test_validation(self, square2):
        lat, gf = square2
        with pytest.raises(ValueError):
            sample_configs(np.zeros(2, dtype=complex), lat, gf, 5, beta=0.1)
        with pytest.raises(ValueError):
            sample_configs(initial_state(1, StartKind.HOT), lat, gf, 0, beta=0.1)
        with pytest.raises(ValueError):  # 2 qubits on the 1-qubit lattice
            sample_configs(initial_state(2, StartKind.HOT), lat, gf, 5, beta=0.1)
        hot = initial_state(1, StartKind.HOT)
        for beta in (math.nan, -0.1, math.inf):
            with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                sample_configs(hot, lat, gf, 5, beta=beta)
        for n_shots in (2.5, True, "3", -1):
            with pytest.raises(ValueError, match="n_shots must be an integer >= 1"):
                sample_configs(hot, lat, gf, n_shots, beta=0.1)
        assert sample_configs(hot, lat, gf, np.int64(5), beta=0.1).n_configs == 5


class TestSpectrum:
    def test_square2_projector_spectrum(self, square2):
        lat, gf = square2
        for beta in BETAS:
            np.testing.assert_allclose(
                lowest_eigenvalues(lat, gf, beta, k=2), [0.0, 1.0], atol=1e-12
            )

    def test_beta_zero_gap_is_one(self, cube2):
        lat, gf = cube2
        np.testing.assert_allclose(
            lowest_eigenvalues(lat, gf, 0.0, k=4), [0.0, 1.0, 1.0, 1.0], atol=1e-12
        )

    def test_zero_eigenvalue_all_beta(self, square3):
        lat, gf = square3
        for beta in (0.0, 0.7, 1.5, 3.0):
            vals = lowest_eigenvalues(lat, gf, beta, k=3)
            assert abs(vals[0]) < 1e-7
            assert (np.diff(vals) >= -1e-12).all()

    def test_iterative_path_matches_zero_mode(self, hypercube):
        lat, gf = hypercube
        vals = lowest_eigenvalues(lat, gf, 0.7, k=2)
        assert abs(vals[0]) < 1e-7
        assert vals[1] > 0.01

    def test_iterative_path_is_reproducible(self):
        lat = build_lattice((4, 3), Boundary.PERIODIC)
        gf = gauge_fix(lat)
        assert gf.n_free == 13
        first = lowest_eigenvalues(lat, gf, 0.7, k=2)
        assert lowest_eigenvalues(lat, gf, 0.7, k=2).tobytes() == first.tobytes()

    def test_lobpcg_is_the_solver_that_runs(self, hypercube, monkeypatch):
        lat, gf = hypercube
        dim = 1 << gf.n_free
        x = np.random.default_rng(5).standard_normal(dim)
        expected = apply_hamiltonian(x, build_link_terms(lat, gf), Coupling(0.7))
        solver, real_apply = scipy.sparse.linalg.lobpcg, quantum.apply_hamiltonian
        calls, buffers = [], set()

        def apply_recording(state, terms, coupling, diagonal=None, scratch=None):
            buffers.add((id(diagonal), id(scratch)))
            return real_apply(state, terms, coupling, diagonal, scratch)

        def recording(A, X, **kwargs):
            calls.append((X.copy(), kwargs))  # lobpcg projects X in place
            assert A.shape == (dim, dim)
            np.testing.assert_allclose(A.matvec(x), expected, rtol=0, atol=1e-14)
            return solver(A, X, **kwargs)

        monkeypatch.setattr(quantum, "apply_hamiltonian", apply_recording)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", recording)
        vals = lowest_eigenvalues(lat, gf, 0.7, k=2)
        ((start, kwargs),) = calls
        assert start.tobytes() == np.random.default_rng(0).uniform(-1.0, 1.0, (dim, 1)).tobytes()
        assert kwargs["Y"][:, 0].tobytes() == ground_state_reference(lat, gf, 0.7).tobytes()
        assert kwargs["largest"] is False
        diagonal = quantum._hamiltonian_diagonal(build_link_terms(lat, gf), Coupling(0.7))
        jacobi = 1.0 / (diagonal + quantum._PRECONDITIONER_SHIFT)
        assert kwargs["M"](np.ones((dim, 1)))[:, 0].tobytes() == jacobi.tobytes()
        # one diagonal and one scratch for every matvec, none made per call
        ((diagonal_id, scratch_id),) = buffers
        assert id(None) not in (diagonal_id, scratch_id)
        np.testing.assert_allclose(vals, [0.0, 0.0953066876221689], rtol=0, atol=1e-12)

    def test_no_convergence_carries_sorted_partial_values(self, hypercube, monkeypatch):
        lat, gf = hypercube
        (e0,) = lowest_eigenvalues(lat, gf, 0.7, k=1)

        def stalled(A, X, **kwargs):
            return np.array([0.5]), np.ones_like(X)  # not an eigenvector of H

        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", stalled)
        with pytest.raises(quantum.ConvergenceError, match="did not converge") as info:
            lowest_eigenvalues(lat, gf, 0.7, k=2)
        assert info.value.eigenvalues.tolist() == sorted([e0, 0.5])

    @pytest.mark.parametrize(
        "name, k, betas",
        [("cube2", 4, (0.0, 0.7)), ("square3", 3, (0.7, 1.5, 3.0))],
        ids=["cube2", "square3"],
    )
    def test_deflated_path_matches_dense(self, request, monkeypatch, name, k, betas):
        lat, gf = request.getfixturevalue(name)
        dense = [np.linalg.eigvalsh(build_dense_hamiltonian(lat, gf, b))[:k] for b in betas]
        monkeypatch.setattr(limits, "DENSE_HAMILTONIAN_CAP", gf.n_free - 1)
        for beta, expected in zip(betas, dense):
            np.testing.assert_allclose(
                lowest_eigenvalues(lat, gf, beta, k=k), expected, rtol=0, atol=1e-10
            )

    def test_deflated_path_matches_arpack(self):
        from scipy.sparse.linalg import LinearOperator, eigsh

        lat = build_lattice((4, 3), Boundary.PERIODIC)
        gf = gauge_fix(lat)
        assert gf.n_free == 13
        dim = 1 << gf.n_free
        terms, coupling = build_link_terms(lat, gf), Coupling(0.7)
        op = LinearOperator(
            (dim, dim),
            matvec=lambda v: apply_hamiltonian(v.ravel(), terms, coupling),
            dtype=np.float64,
        )
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        expected = np.sort(eigsh(op, k=3, which="SA", return_eigenvectors=False, v0=v0))
        np.testing.assert_allclose(
            lowest_eigenvalues(lat, gf, 0.7, k=3), expected, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("beta", [0.2, 0.7, 1.5])
    def test_zero_mode_is_exact_on_hypercube(self, hypercube, beta):
        lat, gf = hypercube
        psi0 = ground_state_reference(lat, gf, beta)
        h_psi0 = apply_hamiltonian(psi0, build_link_terms(lat, gf), Coupling(beta))
        assert np.linalg.norm(h_psi0) <= 1e-12
        assert abs(lowest_eigenvalues(lat, gf, beta, k=1)[0]) <= 1e-12

    @pytest.fixture
    def no_builders(self, monkeypatch):
        """Make every builder of H or psi0 fail, so a test that passes built nothing."""

        def unreachable(*args, **kwargs):
            raise AssertionError("k must be checked before the Hamiltonian is built")

        for name in ("build_dense_hamiltonian", "build_link_terms", "ground_state_reference"):
            monkeypatch.setattr(quantum, name, unreachable)

    @pytest.mark.parametrize("name", ["square3", "hypercube"])  # dense and iterative
    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "2", None])
    def test_k_must_be_positive_integer(self, request, no_builders, name, k):
        lat, gf = request.getfixturevalue(name)
        with pytest.raises(ValueError, match="positive integer"):
            lowest_eigenvalues(lat, gf, 0.7, k=k)

    def test_k_beyond_lobpcg_block_rejected(self, hypercube, no_builders):
        # LOBPCG takes k - 1 vectors above psi0 only while dim - 1 >= 5 (k - 1):
        # at most 26215 on 17 free links
        lat, gf = hypercube
        with pytest.raises(ValueError, match="at most 26215"):
            lowest_eigenvalues(lat, gf, 0.7, k=30000)

    def test_k_beyond_dense_dimension_rejected(self, square2, no_builders):
        # one free link: H is 2x2, so two eigenvalues at most
        lat, gf = square2
        with pytest.raises(ValueError, match="at most 2"):
            lowest_eigenvalues(lat, gf, 0.7, k=3)

    def test_numpy_integer_k(self, square3):
        lat, gf = square3
        np.testing.assert_array_equal(
            lowest_eigenvalues(lat, gf, 0.7, k=np.int64(3)), lowest_eigenvalues(lat, gf, 0.7, k=3)
        )

    def test_eigensolver_cap(self):
        lat = build_lattice((5, 4), Boundary.PERIODIC)
        gf = gauge_fix(lat)
        assert gf.n_free == 21
        with pytest.raises(limits.EnumerationCapError):
            lowest_eigenvalues(lat, gf, 0.5, k=2)

"""End-to-end acceptance checks for the full sampling pipeline.

Each test prints one ``[criterion N] PASS/FAIL`` line (run pytest with -s to
see them live).  The heavy statevector sweeps at the benchmark point are
shared through module-scoped fixtures, so the whole file runs in roughly ten
minutes; the two T* runs dominate.

T_STAR = 1400 was determined empirically: the cold-start sweep converges with
an oscillating envelope that drops below 0.01 around T ~ 1e3, while the hot
start is already inside 0.001 by T = 400.  The beta sweep uses hot starts at
T = 200, where the worst grid point (beta = 1.5) sits at |dP| ~ 0.005.
"""

import math
import time

import numpy as np
import pytest

from z2qsim import (
    build_lattice,
    estimate,
    exact_expectation,
    gauge_fix,
    mcmc_run,
    plaquette_average,
    sample_configs,
)
from z2qsim import ensemble as ens_io
from z2qsim.classical import flip_probability
from z2qsim.ensemble import Ensemble, EstimateMethod
from z2qsim.lattice import Boundary
from z2qsim.quantum import (
    Schedule,
    StartKind,
    adiabatic_evolve,
    build_dense_hamiltonian,
    expectation_plaquette,
    ground_state_reference,
)
from oracles import action, staple_sum

BETA = 0.7
DT = 0.2
T_STAR = 1400.0
T_SWEEP = 200.0
SWEEP_BETAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bench():
    lat = build_lattice((2, 2, 2, 2))
    return lat, gauge_fix(lat)


@pytest.fixture(scope="module")
def p_exact(bench):
    lat, gf = bench
    return exact_expectation(lat, gf, BETA, lambda c: plaquette_average(c, lat))


def _timed_sweep(lat, gf, start, total_time, dt=DT):
    t0 = time.perf_counter()
    state = adiabatic_evolve(lat, gf, Schedule(start, BETA, total_time, dt))
    return state, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hot_run(bench):
    lat, gf = bench
    return _timed_sweep(lat, gf, StartKind.HOT, T_STAR)


@pytest.fixture(scope="module")
def cold_run(bench):
    lat, gf = bench
    return _timed_sweep(lat, gf, StartKind.COLD, T_STAR)


def test_criterion_1_exact_oracle(bench):
    lat, gf = bench
    t0 = time.perf_counter()
    p = exact_expectation(lat, gf, BETA, lambda c: plaquette_average(c, lat))
    elapsed = time.perf_counter() - t0
    ok = abs(p - 0.753) <= 1e-3 and elapsed < 10.0
    report(1, ok, f"P={p:.6f}, |P-0.753|={abs(p - 0.753):.2e}, {elapsed:.2f}s")


def test_criterion_2_adiabatic_convergence(bench, p_exact, hot_run, cold_run):
    lat, gf = bench
    hot_state, hot_time = hot_run
    cold_state, cold_time = cold_run
    p_hot = expectation_plaquette(hot_state, lat, gf)
    p_cold = expectation_plaquette(cold_state, lat, gf)
    ok = (
        abs(p_hot - p_exact) <= 0.01
        and abs(p_cold - p_exact) <= 0.01
        and abs(p_hot - p_cold) <= 0.01
        and hot_time < 300.0
        and cold_time < 300.0
    )
    report(
        2,
        ok,
        f"T*={T_STAR:.0f}: |dP_hot|={abs(p_hot - p_exact):.4f}, "
        f"|dP_cold|={abs(p_cold - p_exact):.4f}, "
        f"|P_hot-P_cold|={abs(p_hot - p_cold):.4f}, "
        f"runs {hot_time:.0f}s/{cold_time:.0f}s",
    )


def test_criterion_3_beta_sweep(bench):
    lat, gf = bench
    worst = 0.0
    worst_beta = None
    for beta in SWEEP_BETAS:
        p_ref = exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))
        state = adiabatic_evolve(lat, gf, Schedule(StartKind.HOT, beta, T_SWEEP, DT))
        dp = abs(expectation_plaquette(state, lat, gf) - p_ref)
        if dp > worst:
            worst, worst_beta = dp, beta
    ok = worst <= 0.015
    report(3, ok, f"max |P_adiabatic - P_exact| = {worst:.4f} at beta={worst_beta}")


def test_criterion_4_trotter_consistency(bench, hot_run):
    lat, gf = bench
    p_fine = expectation_plaquette(hot_run[0], lat, gf)
    coarse, _ = _timed_sweep(lat, gf, StartKind.HOT, T_STAR, dt=0.5)
    p_coarse = expectation_plaquette(coarse, lat, gf)
    ok = abs(p_fine - p_coarse) <= 0.02
    report(4, ok, f"|P(dt=0.2) - P(dt=0.5)| = {abs(p_fine - p_coarse):.4f} at T={T_STAR:.0f}")


def test_criterion_5_hamiltonian_suite():
    cases = [
        ((2, 2), Boundary.OPEN),
        ((3, 3), Boundary.OPEN),
        ((2, 2, 2), Boundary.OPEN),
        ((2, 2, 3), Boundary.OPEN),
        ((3, 3), Boundary.PERIODIC),
    ]
    worst_herm = worst_eig = worst_overlap_defect = 0.0
    for dims, boundary in cases:
        lat = build_lattice(dims, boundary)
        gf = gauge_fix(lat)
        assert gf.n_free <= 12
        for beta in (0.0, 0.7, 1.5):
            h = build_dense_hamiltonian(lat, gf, beta)
            worst_herm = max(worst_herm, float(np.abs(h - h.T.conj()).max()))
            w, v = np.linalg.eigh(h)
            worst_eig = max(worst_eig, abs(float(w[0])))
            ref = ground_state_reference(lat, gf, beta)
            worst_overlap_defect = max(worst_overlap_defect, 1.0 - abs(float(v[:, 0] @ ref)))
    ok = worst_herm <= 1e-12 and worst_eig <= 1e-9 and worst_overlap_defect <= 1e-9
    report(
        5,
        ok,
        f"max |H-H^dag|={worst_herm:.1e}, max |lambda_min|={worst_eig:.1e}, "
        f"max overlap defect={worst_overlap_defect:.1e}",
    )


def test_criterion_6_quantum_classical_identity():
    worst = 0.0
    for dims in ((2, 2), (3, 3), (2, 2, 2, 2)):
        lat = build_lattice(dims)
        gf = gauge_fix(lat)
        for beta in (0.3, 0.7, 1.2):
            ref = ground_state_reference(lat, gf, beta)
            p_state = expectation_plaquette(ref, lat, gf)
            p_sum = exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))
            worst = max(worst, abs(p_state - p_sum))
    ok = worst <= 1e-10
    report(6, ok, f"max |<P>_state - <P>_sum| = {worst:.2e}")


def test_criterion_7_sampling_chain(bench, hot_run, tmp_path):
    lat, gf = bench
    state = hot_run[0]
    p_state = expectation_plaquette(state, lat, gf)
    ens = sample_configs(state, lat, gf, 100000, beta=BETA, seed=20)
    path = tmp_path / "quantum.dat"
    ens_io.save(ens, path)
    loaded = ens_io.load(path)
    obs = lambda c: plaquette_average(c, lat)  # noqa: E731
    full = estimate(loaded, obs, method=EstimateMethod.PLAIN)
    pull = abs(full.mean - p_state) / full.error
    errors = {}
    for shots in (1000, 10000, 100000):
        sub = Ensemble(meta=loaded.meta, configs=loaded.configs[:shots])
        errors[shots] = estimate(sub, obs, method=EstimateMethod.PLAIN).error
    r1 = errors[1000] / errors[10000] / math.sqrt(10.0)
    r2 = errors[10000] / errors[100000] / math.sqrt(10.0)
    ok = pull <= 3.0 and abs(r1 - 1.0) <= 0.25 and abs(r2 - 1.0) <= 0.25
    report(
        7,
        ok,
        f"P={full.mean:.5f}+-{full.error:.5f} vs <P>={p_state:.5f} ({pull:.2f} sigma); "
        f"1/sqrt(shots) ratios {r1:.3f}, {r2:.3f}",
    )


def test_criterion_8_mcmc_cross_check(bench, p_exact):
    lat, gf = bench
    ens = mcmc_run(lat, gf, BETA, n_configs=10000)
    est = estimate(ens, lambda c: plaquette_average(c, lat))
    pull = abs(est.mean - p_exact) / est.error
    # detailed balance on random single-flip pairs
    rng = np.random.default_rng(31)
    worst_db = 0.0
    for _ in range(200):
        config = rng.choice(np.array([-1, 1], dtype=np.int8), size=lat.n_links)
        n = int(rng.integers(lat.n_links))
        flipped = config.copy()
        flipped[n] = -flipped[n]
        s_a = float(action(config, lat, BETA))
        s_b = float(action(flipped, lat, BETA))
        shift = min(s_a, s_b)
        pi_a = math.exp(-(s_a - shift))
        pi_b = math.exp(-(s_b - shift))
        c = staple_sum(config, n, lat)
        lhs = pi_a * flip_probability(int(config[n]), c, BETA)
        rhs = pi_b * flip_probability(int(flipped[n]), c, BETA)
        worst_db = max(worst_db, abs(lhs - rhs) / max(lhs, rhs))
    ok = est.method is EstimateMethod.BINNED and pull <= 3.0 and worst_db <= 1e-12
    report(
        8,
        ok,
        f"P={est.mean:.5f}+-{est.error:.5f} (binned) vs exact {p_exact:.5f} "
        f"({pull:.2f} sigma); detailed balance residual {worst_db:.1e}",
    )


def test_criterion_9_two_dimensional_reduction():
    worst = 0.0
    for dims in ((2, 2), (3, 3), (4, 3), (3, 4)):
        lat = build_lattice(dims)
        gf = gauge_fix(lat)
        for beta in (0.1, 0.7, 1.5):
            p = exact_expectation(lat, gf, beta, lambda c: plaquette_average(c, lat))
            worst = max(worst, abs(p - math.tanh(beta)))
    ok = worst <= 1e-10
    report(9, ok, f"max |P - tanh(beta)| = {worst:.2e} over D=2 open lattices")


def test_criterion_10_norm_preservation(hot_run, cold_run):
    drift_hot = abs(float(np.linalg.norm(hot_run[0])) - 1.0)
    drift_cold = abs(float(np.linalg.norm(cold_run[0])) - 1.0)
    ok = drift_hot < 1e-8 and drift_cold < 1e-8
    report(
        10,
        ok,
        f"norm drift after {int(T_STAR / DT)} steps: hot {drift_hot:.1e}, cold {drift_cold:.1e}",
    )

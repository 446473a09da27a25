"""In-process tracer for one traced z2qsim command.

Run as a program, it starts one command the way the untraced benchmark
does, but inside a process whose module boundaries are wrapped:

    python perfbench/tracer.py --out spans.json [--born P] cli -- sample ...
    python perfbench/tracer.py --out spans.json spectrum

The tracer replaces the module attributes of the public functions listed in
``BOUNDARY`` (in every loaded ``z2qsim`` module that bound them, so names
imported with ``from ... import`` are covered too).  Per-update helpers such
as ``classical.flip_probability`` are deliberately not wrapped: they run
millions of times per command, and wrapping them would distort the very
numbers the trace reports.  Spans (name, start, end, parent, attributes,
raised) are kept in memory and written as JSON when the command ends.

``--born P`` turns on the traced-run oracles for quantum commands: the
final state of ``adiabatic_evolve`` must keep its norm to 1e-12, and its
Born-rule mean plaquette must equal P to 1e-10.

The module also holds ``layer_metrics``, which turns the span files of one
workload iteration into the per-layer metrics; ``run.py`` imports it
without importing z2qsim.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

BOUNDARY = {
    "lattice": ("build_lattice", "gauge_fix"),
    "quantum": (
        "build_link_terms",
        "apply_term_evolution",
        "adiabatic_evolve",
        "sample_configs",
        "plaquette_sum_diagonal",
        "apply_hamiltonian",
        "lowest_eigenvalues",
    ),
    "classical": ("exact_expectation", "mcmc_run", "plaquette_products"),
    "ensemble": ("save", "load", "estimate"),
    "cli": ("main",),
}
MODULES = tuple(BOUNDARY)

NORM_DRIFT_TOL = 1e-12
BORN_TOL = 1e-10


def _body_bytes(path) -> int:
    """Size of an ensemble file's body: everything after the blank line."""
    with open(path, "rb") as fh:
        head = fh.read(1 << 16)
    sep = head.find(b"\n\n")
    return os.path.getsize(path) - (sep + 2) if sep >= 0 else 0


class Tracer:
    """Span recorder for a single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.captured: dict[str, tuple] = {}

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(bound_args, result)``
        may return span attributes, computed after the timed interval."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = after(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary function in every loaded z2qsim module."""
        from z2qsim import lattice

        hooks = {
            "quantum.apply_term_evolution": lambda a, r: [a["term"].qubit, a["term"].n_qubits],
            "quantum.adiabatic_evolve": self._capture_state,
            "classical.mcmc_run": lambda a, r: [
                (a["n_therm"] + a["n_configs"] * a["stride"]) * a["gf"].n_free
            ],
            "ensemble.save": lambda a, r: [_body_bytes(a["path"])],
            "ensemble.load": lambda a, r: [_body_bytes(a["path"])],
        }
        loaded = [m for key, m in list(sys.modules.items()) if key.startswith("z2qsim")]
        for module_name, names in BOUNDARY.items():
            module = sys.modules[f"z2qsim.{module_name}"]
            for attr in names:
                original = getattr(module, attr)
                span_name = f"{module_name}.{attr}"
                wrapped = self.wrap(span_name, original, hooks.get(span_name))
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        lattice.GaugeFixing.decode = self.wrap("lattice.decode", lattice.GaugeFixing.decode)

    def _capture_state(self, arguments, state):
        self.captured["adiabatic_evolve"] = (arguments["lattice"], arguments["gf"], state)
        return None


def born_oracles(tracer: Tracer, born_p: float) -> list[dict]:
    """Norm drift and Born-rule plaquette of the captured final state."""
    import numpy as np

    from z2qsim import quantum

    if "adiabatic_evolve" not in tracer.captured:
        return [{"name": "final_state_captured", "ok": False, "value": None}]
    lattice, gf, state = tracer.captured["adiabatic_evolve"]
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    p = quantum.expectation_plaquette(state, lattice, gf)
    return [
        {"name": "norm_drift", "ok": drift < NORM_DRIFT_TOL, "value": drift},
        {"name": "born_plaquette", "ok": abs(p - born_p) <= BORN_TOL, "value": p},
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span file to write")
    parser.add_argument("--born", type=float, help="expected Born-rule plaquette of the final state")
    parser.add_argument("program", choices=("cli", "spectrum"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cmd_args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    t0 = time.perf_counter()
    import z2qsim.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    if opts.program == "cli":
        code = z2qsim.cli.main(cmd_args)
    else:
        import spectrum

        code = spectrum.main()
    checks = born_oracles(tracer, opts.born) if opts.born is not None else []
    with open(opts.out, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "checks": checks}, fh)
    return code


# ----- per-layer metrics from span files -----

N_QUBIT_SLOTS = 17
TERM_METRICS = tuple(f"quantum.term_evolution_s.q{q:02d}" for q in range(N_QUBIT_SLOTS))
STEPS_PER_T1400_SWEEP = 7000

# name -> unit, in report order
PER_LAYER = {
    "lattice.build_lattice_s": "s",
    "lattice.gauge_fix_s": "s",
    "lattice.decode_s": "s",
    "lattice.decode_calls": "count",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "quantum.build_link_terms_s": "s",
    **{name: "s" for name in TERM_METRICS},
    "quantum.trotter_step_s": "s",
    "quantum.adiabatic_evolve_s": "s",
    "quantum.term_calls": "count",
    "quantum.term_bytes_computed": "B",
    "quantum.term_GBps_computed": "GB/s",
    "quantum.projected_t1400_sweep_s": "s",
    "quantum.sample_configs_s": "s",
    "quantum.plaquette_sum_diagonal_s": "s",
    "quantum.apply_hamiltonian_s": "s",
    "quantum.hamiltonian_matvecs": "count",
    "quantum.lowest_eigenvalues_self_s": "s",
    "classical.exact_expectation_s": "s",
    "classical.mcmc_run_s": "s",
    "classical.mcmc_updates": "count",
    "classical.mcmc_updates_per_s": "1/s",
    "classical.plaquette_products_s": "s",
    "classical.plaquette_products_calls": "count",
    "ensemble.save_s": "s",
    "ensemble.save_MBps": "MB/s",
    "ensemble.body_bytes": "B",
    "ensemble.load_s": "s",
    "ensemble.load_MBps": "MB/s",
    "ensemble.estimate_s": "s",
    "ensemble.estimate_calls": "count",
    **{f"{module}.errors": "count" for module in MODULES},
    "trace_overhead_frac": "ratio",
}

# Inclusive time summed over one iteration, for spans reported that way.
_TOTALS = {
    "lattice.build_lattice": "lattice.build_lattice_s",
    "lattice.gauge_fix": "lattice.gauge_fix_s",
    "lattice.decode": "lattice.decode_s",
    "quantum.build_link_terms": "quantum.build_link_terms_s",
    "quantum.adiabatic_evolve": "quantum.adiabatic_evolve_s",
    "quantum.sample_configs": "quantum.sample_configs_s",
    "quantum.plaquette_sum_diagonal": "quantum.plaquette_sum_diagonal_s",
    "classical.exact_expectation": "classical.exact_expectation_s",
    "classical.mcmc_run": "classical.mcmc_run_s",
    "classical.plaquette_products": "classical.plaquette_products_s",
    "ensemble.save": "ensemble.save_s",
    "ensemble.load": "ensemble.load_s",
    "ensemble.estimate": "ensemble.estimate_s",
}
_CALLS = {
    "lattice.decode": "lattice.decode_calls",
    "quantum.apply_term_evolution": "quantum.term_calls",
    "quantum.apply_hamiltonian": "quantum.hamiltonian_matvecs",
    "classical.plaquette_products": "classical.plaquette_products_calls",
    "ensemble.estimate": "ensemble.estimate_calls",
}


def term_bytes_computed(n_qubits: int) -> int:
    """Bytes one ``apply_term_evolution`` moves, computed from array sizes.

    The complex128 state is read and written once (2 * 16 B per amplitude),
    and each of the three coefficient gathers reads the int8 staple table
    and writes one complex128 per reduced index (17 B per entry).  Cache
    misses and temporaries are not counted.
    """
    return (1 << n_qubits) * 16 * 2 + 3 * (1 << (n_qubits - 1)) * (1 + 16)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from its span files.

    Every ``*_s`` metric is the inclusive time at that boundary summed over
    the iteration, except the medians the names below document:
    ``term_evolution_s.qNN`` (self time per call at qubit NN),
    ``trotter_step_s`` (sum of one step's term spans) and
    ``apply_hamiltonian_s`` (time per matvec).  A layer the workload does not
    reach reports 0.
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    term_self = defaultdict(list)
    steps, matvecs = [], []
    n_qubits = 0
    loaded_bytes = 0
    for proc in processes:
        spans = proc["spans"]
        m["cli.import_s"] += proc["import_s"]
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        step_terms = defaultdict(list)
        for i, (name, t0, t1, parent, attrs, raised) in enumerate(spans):
            dur = t1 - t0
            if raised:
                m[f"{name.split('.')[0]}.errors"] += 1
            if name in _TOTALS:
                m[_TOTALS[name]] += dur
            if name in _CALLS:
                m[_CALLS[name]] += 1
            if name == "quantum.apply_term_evolution":
                qubit, n_qubits = attrs
                term_self[qubit].append(dur - child[i])
                step_terms[parent].append(dur)
            elif name == "quantum.apply_hamiltonian":
                matvecs.append(dur)
            elif name == "quantum.lowest_eigenvalues":
                m["quantum.lowest_eigenvalues_self_s"] += dur - child[i]
            elif name == "cli.main":
                m["cli.main_self_s"] += dur - child[i]
            elif name == "classical.mcmc_run":
                m["classical.mcmc_updates"] += attrs[0]
            elif name == "ensemble.save":
                m["ensemble.body_bytes"] += attrs[0]
            elif name == "ensemble.load":
                loaded_bytes += attrs[0]
        for durations in step_terms.values():
            per_step = n_qubits or 1
            steps.extend(
                sum(durations[k : k + per_step]) for k in range(0, len(durations), per_step)
            )
    for q in range(N_QUBIT_SLOTS):
        m[TERM_METRICS[q]] = _median(term_self.get(q, []))
    m["quantum.trotter_step_s"] = _median(steps)
    m["quantum.projected_t1400_sweep_s"] = STEPS_PER_T1400_SWEEP * m["quantum.trotter_step_s"]
    if term_self:
        per_term = _median([s for selfs in term_self.values() for s in selfs])
        m["quantum.term_bytes_computed"] = float(term_bytes_computed(n_qubits))
        m["quantum.term_GBps_computed"] = m["quantum.term_bytes_computed"] / per_term / 1e9
    m["quantum.apply_hamiltonian_s"] = _median(matvecs)
    if m["classical.mcmc_run_s"] > 0:
        m["classical.mcmc_updates_per_s"] = m["classical.mcmc_updates"] / m["classical.mcmc_run_s"]
    if m["ensemble.save_s"] > 0:
        m["ensemble.save_MBps"] = m["ensemble.body_bytes"] / m["ensemble.save_s"] / 1e6
    if m["ensemble.load_s"] > 0:
        m["ensemble.load_MBps"] = loaded_bytes / m["ensemble.load_s"] / 1e6
    return m


if __name__ == "__main__":
    sys.exit(main())

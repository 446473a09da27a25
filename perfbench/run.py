"""Layered benchmark of the z2q pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (the package is taken from ``src``).  One
closed-loop client runs the ``z2q`` commands a user runs, each in a fresh
``python -m z2qsim.cli`` process and one at a time, for about S seconds, and
checks every output against exact oracles.  ``--workload all`` runs every
workload in turn.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (tracing off).  With ``--trace 1`` untraced and
traced iterations alternate; the traced ones start each command through
``tracer.py``, which wraps the public functions at each module boundary,
and the last line carries the per-layer metrics.  Lines before it, starting
with ``#``, give provenance, per-command times and failures.  The exit code
is non-zero when any command or correctness check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0  # a command still running this long after the run began is killed
SETUP_REPEATS = 5
SIGMAS = 5.0

HYPERCUBE = ("--preset", "hypercube")
BETA = 0.7
QS_T, QS_SHOTS = 10.0, 20000  # 50 Trotter steps: the per-step cost does not depend on T
IO_T, IO_SHOTS = 0.2, 200000  # one Trotter step, a 19 MB ensemble
MCMC_CONFIGS = 5000  # 0.85 M Glauber updates: five iterations fit in a 20 s run
BETA_GRID = "0.1,0.3,0.5,0.7,0.9,1.1,1.3,1.5"

# Oracles, recorded from the code at the commit that added this benchmark.
P_EXACT = 0.7530336862157461  # exact <P> at beta = 0.7 on the open 2^4 lattice
EXACT_TOL = 1e-12
BORN_P = {QS_T: 0.605288195356761, IO_T: 0.023334854398414467}  # <P> after the hot ramp
GAP = 0.22348899542100006  # E1 - E0 on the periodic 4x4 lattice at beta = 0.7
GAP_TOL = 1e-8
E0_TOL = 1e-10
IDENTITY_TOL = 1e-12

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = ("sample_s", "exact_s", "mcmc_s", "analyze_s", "eig_s")

LLC_FILE = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")


@dataclass
class Iteration:
    """One pass over a workload's commands."""

    times: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0
    span_files: list[Path] = field(default_factory=list)


class Session:
    """Starts the commands of one benchmark run and counts its checks."""

    def __init__(self, work: Path, run_start: float):
        self.work = work
        self.run_start = run_start
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.traced = False
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())
        return ok

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """Run one process to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.run_start))
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(), err_path.read_text()

    def command(self, it: Iteration, label: str, program: str, args: list[str], born=None):
        """Run one z2q command (or the spectrum program); stdout, or None on failure."""
        if self.traced:
            spans = self.work / f"spans-{len(it.span_files)}.json"
            it.span_files.append(spans)
            extra = ["--born", repr(born)] if born is not None else []
            argv = [sys.executable, str(BENCH / "tracer.py"), "--out", str(spans), *extra, program, "--", *args]
        elif program == "cli":
            argv = [sys.executable, "-m", "z2qsim.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "spectrum.py")]
        wall, rss, code, out, err = self.spawn(argv)
        it.times[label] = it.times.get(label, 0.0) + wall
        it.peak_rss_mb = max(it.peak_rss_mb, rss)
        if not self.check(f"{label}: exit 0", code == 0, f"(exit {code}) {err.strip()[-300:]}"):
            return None
        return out

    def analyze(self, it: Iteration, ensemble: Path, extra: tuple[str, ...] = ()) -> dict[str, dict] | None:
        out = self.command(it, "analyze_s", "cli", ["analyze", "--ensemble", str(ensemble), *extra])
        return None if out is None else {row["observable"]: row for row in _csv_rows(out)}


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def _check_mean(s: Session, name: str, row, expected: float, n: int) -> None:
    """n_samples equals the request, and the mean is within SIGMAS errors of ``expected``."""
    s.check(f"{name}: n_samples == {n}", row is not None and int(row["n_samples"]) == n)
    ok = row is not None and abs(float(row["mean"]) - expected) <= SIGMAS * float(row["error"])
    s.check(f"{name}: mean within {SIGMAS:g} sigma of {expected!r}", ok, f"row={row}")


def _sample_args(total_time: float, shots: int, seed: int, out: Path) -> list[str]:
    return [
        "sample", *HYPERCUBE, "--beta", repr(BETA), "--T", repr(total_time), "--dt", "0.2",
        "--start", "hot", "--shots", str(shots), "--seed", str(seed), "--out", str(out),
    ]


def iterate_quantum_sample(s: Session, it: Iteration, seed: int) -> None:
    ens = s.work / "quantum.dat"
    out = s.command(it, "sample_s", "cli", _sample_args(QS_T, QS_SHOTS, seed, ens), born=BORN_P[QS_T])
    s.check("sample: summary n_samples", out is not None and f"n={QS_SHOTS})" in out)
    rows = s.analyze(it, ens)
    _check_mean(s, "quantum plaquette", (rows or {}).get("plaquette"), BORN_P[QS_T], QS_SHOTS)


def iterate_classical_crosscheck(s: Session, it: Iteration, seed: int) -> None:
    out = s.command(it, "exact_s", "cli", ["exact", *HYPERCUBE, "--beta-grid", BETA_GRID])
    exact = {float(r["beta"]): float(r["P_exact"]) for r in _csv_rows(out)} if out else {}
    p = exact.get(BETA, math.nan)
    s.check(f"exact: P({BETA}) == {P_EXACT!r}", abs(p - P_EXACT) <= EXACT_TOL, f"got {p!r}")
    ens = s.work / "mcmc.dat"
    args = ["mcmc", *HYPERCUBE, "--beta", repr(BETA), "--n-configs", str(MCMC_CONFIGS),
            "--n-therm", "100", "--stride", "10", "--seed", str(seed), "--out", str(ens)]
    out = s.command(it, "mcmc_s", "cli", args)
    s.check("mcmc: summary n_samples", out is not None and f"n={MCMC_CONFIGS})" in out)
    rows = s.analyze(it, ens)
    _check_mean(s, "mcmc plaquette (binned)", (rows or {}).get("plaquette"), P_EXACT, MCMC_CONFIGS)


def iterate_ensemble_io(s: Session, it: Iteration, seed: int) -> None:
    ens = s.work / "io.dat"
    out = s.command(it, "sample_s", "cli", _sample_args(IO_T, IO_SHOTS, seed, ens), born=BORN_P[IO_T])
    s.check("sample: summary n_samples", out is not None and f"n={IO_SHOTS})" in out)
    rows = s.analyze(
        it, ens, ("--observables", "plaquette,action-density,per-plaquette", "--method", "jackknife")
    ) or {}
    s.check("analyze: 26 estimates", len(rows) == 26, f"got {len(rows)}")
    s.check(
        f"analyze: every n_samples == {IO_SHOTS}",
        bool(rows) and all(int(r["n_samples"]) == IO_SHOTS for r in rows.values()),
    )
    plaq = rows.get("plaquette")
    _check_mean(s, "quantum plaquette (jackknife)", plaq, BORN_P[IO_T], IO_SHOTS)
    per_plaq = [float(r["mean"]) for k, r in rows.items() if k.startswith("plaquette[")]
    ok = plaq is not None and bool(per_plaq) and abs(
        statistics.fmean(per_plaq) - float(plaq["mean"])
    ) <= IDENTITY_TOL
    s.check("analyze: mean of per-plaquette means == plaquette mean", ok)
    density = rows.get("action-density")
    ok = plaq is not None and density is not None and abs(
        float(density["mean"]) + BETA * float(plaq["mean"])
    ) <= IDENTITY_TOL
    s.check("analyze: action-density == -beta * plaquette", ok)


def iterate_spectrum_gap(s: Session, it: Iteration, seed: int) -> None:
    out = s.command(it, "eig_s", "spectrum", [])
    values = json.loads(out.splitlines()[-1])["eigenvalues"] if out else [math.nan, math.nan]
    s.check(f"spectrum: |E0| < {E0_TOL:g}", abs(values[0]) < E0_TOL, f"E0={values[0]!r}")
    gap = values[1] - values[0]
    s.check(f"spectrum: gap == {GAP!r}", abs(gap - GAP) <= GAP_TOL, f"gap={gap!r}")


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json and README.md say why each one is here."""

    name: str
    probe: tuple[str, ...]  # setup_probe.py arguments: the workload's lattice
    iterate: Callable[[Session, Iteration, int], None]


HYPERCUBE_PROBE = ("--dims", "2,2,2,2", "--boundary", "open")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("quantum-sample", (*HYPERCUBE_PROBE, "--terms"), iterate_quantum_sample),
        Workload("classical-crosscheck", HYPERCUBE_PROBE, iterate_classical_crosscheck),
        Workload("ensemble-io", HYPERCUBE_PROBE, iterate_ensemble_io),
        Workload(
            "spectrum-gap",
            ("--dims", "4,4", "--boundary", "periodic", "--terms"),
            iterate_spectrum_gap,
        ),
    )
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _llc_note() -> str:
    try:
        llc = LLC_FILE.read_text().strip()
    except OSError:
        llc = "unknown"
    return (
        "quantum.term_bytes_computed is computed from array sizes, not measured; the 2^17"
        f" complex128 state (2 MiB) is far below 4x the last-level cache ({llc}), so no"
        " sustainable-bandwidth roofline is measured: a state that large would need more"
        " free links than the 24-link cap allows"
    )


def _loop(seconds: float, step: Callable[[], None]) -> None:
    """Repeat ``step`` at least once, and again while at least half of the
    next one is expected to fit, so a run lasts about ``seconds`` on average."""
    t0 = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) / 2 > seconds:
            return


def _summary(name: str, values: list[float], unit: str) -> str:
    return (
        f"# {name} median={statistics.median(values):.6g} min={min(values):.6g}"
        f" max={max(values):.6g} n={len(values)} {unit}"
        f" values={[float(f'{v:.4g}') for v in values]}"
    )


def run_workload(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run: report lines plus the result object."""
    work = WORK_ROOT / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    s = Session(work, time.perf_counter())
    rng = random.Random(seed)
    probe = [sys.executable, str(BENCH / "setup_probe.py"), *w.probe]
    lines = []
    untraced: list[Iteration] = []
    traced_its: list[Iteration] = []

    def one(into: list[Iteration], with_trace: bool) -> None:
        it = Iteration()
        s.traced = with_trace
        t0 = time.perf_counter()
        w.iterate(s, it, rng.randrange(1 << 31))
        it.wall_s = time.perf_counter() - t0
        into.append(it)
        for path in work.glob("*.dat"):
            path.unlink()

    try:
        # The first probe compiles bytecode and reports provenance; it is not timed.
        _, _, code, out, err = s.spawn([*probe, "--provenance"])
        if s.check("setup probe: exit 0", code == 0, err.strip()[-300:]):
            prov = json.loads(out.splitlines()[-1])
            prov.update(commit=_git_commit(), seed=seed, workload=w.name, seconds=seconds, trace=int(traced))
            lines.append(f"# provenance {json.dumps(prov, sort_keys=True)}")
        setup = []
        for _ in range(SETUP_REPEATS):
            wall, _, code, _, err = s.spawn(probe)
            if s.check("setup probe: exit 0", code == 0, err.strip()[-300:]):
                setup.append(wall)
        if traced:
            _loop(seconds, lambda: (one(untraced, False), one(traced_its, True)))
        else:
            _loop(seconds, lambda: one(untraced, False))
        return _result(w, s, setup, untraced, traced_its if traced else None, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def _exact_count(value, unit: str):
    """Counts and byte totals as integers when every iteration agreed."""
    if unit in ("count", "B") and value is not None and value == int(value):
        return int(value)
    return value


def _result(w, s: Session, setup, untraced, traced_its, lines) -> dict:
    for label in COMMAND_METRICS:
        values = [it.times[label] for it in untraced if label in it.times]
        if values:
            lines.append(_summary(f"{w.name} {label}", values, "s"))
    walls = [it.wall_s for it in untraced]
    rss = [it.peak_rss_mb for it in untraced]
    if traced_its is None:
        metrics = {"wall_s": _median(walls), "setup_s": _median(setup), "peak_rss_mb": _median(rss)}
    else:
        per_iteration = []
        for it in traced_its:
            procs = [json.loads(p.read_text()) for p in it.span_files if p.is_file()]
            for proc in procs:
                for c in proc["checks"]:
                    s.check(f"traced oracle {c['name']}", c["ok"], f"value={c['value']!r}")
            per_iteration.append(tracer.layer_metrics(procs))
        metrics = {name: _median([m[name] for m in per_iteration]) for name in tracer.PER_LAYER}
        traced_wall = _median([it.wall_s for it in traced_its])
        metrics["trace_overhead_frac"] = traced_wall / _median(walls) - 1.0
        lines.append(_summary(f"{w.name} traced wall_s", [it.wall_s for it in traced_its], "s"))
        lines.append(f"# note: {_llc_note()}")
    units = END_TO_END if traced_its is None else tracer.PER_LAYER
    for name, values in (("wall_s", walls), ("setup_s", setup), ("peak_rss_mb", rss)):
        if values:
            lines.append(_summary(f"{w.name} {name}", values, END_TO_END[name]))
    failed = len(s.failures)
    lines.append(f"# {w.name} failed_ops_frac={failed / max(s.attempted, 1):.6g} ({failed} of {s.attempted})")
    lines.extend(f"# FAILED {f}" for f in s.failures)
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": s.attempted,
            "failed": failed,
            "metrics": {k: {"value": _exact_count(v, units[k]), "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "z2qsim" / "cli.py").is_file():
        print(f"error: no z2qsim sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        run = run_workload(WORKLOADS[name], opts.seed, opts.seconds, bool(opts.trace))
        print("\n".join(run["lines"]), flush=True)
        results[name] = run["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

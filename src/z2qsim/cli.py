"""Command-line driver.

Subcommands: ``exact`` (brute-force Gibbs curves), ``mcmc`` (Glauber
baseline ensembles), ``adiabatic`` (Trotterized sweeps over a T- or
beta-grid), ``sample`` (sweep + projective measurement into an ensemble
file), ``analyze`` (estimates from a stored ensemble).

All tabular output is CSV with a reproducibility header of ``# key=value``
lines.  Exit codes: 0 success, 2 usage or validation error, 3 enumeration
cap exceeded, 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import __version__, classical, ensemble, limits, quantum
from .lattice import Boundary, build_lattice, count_links, gauge_fix
from .quantum import Schedule, StartKind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4

_PRESETS = {"hypercube": ((2, 2, 2, 2), Boundary.OPEN)}
_OBSERVABLE_NAMES = ("plaquette", "action-density", "per-plaquette")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {text!r}") from None


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _expand_run_file(argv: list[str]) -> list[str]:
    """Replace ``--run-file PATH`` with the flags listed in PATH.

    The file holds one ``key=value`` pair per line (``#`` comments allowed),
    mirroring the long flags without their dashes.  Expanded flags are
    inserted right after the subcommand so explicit flags still win.
    """
    path = None
    rest: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--run-file":
            if i + 1 >= len(argv):
                raise ValueError("--run-file needs a path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--run-file="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        rest.append(tok)
        i += 1
    if path is None:
        return rest
    tokens: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"run file line {line!r} is not key=value")
            key, value = line.split("=", 1)
            tokens.extend((f"--{key.strip()}", value.strip()))
    if not rest:
        raise ValueError("--run-file requires a subcommand on the command line")
    return [rest[0], *tokens, *rest[1:]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2q",
        description="Gauge-theory path-integral sampling via a simulated quantum computer",
    )
    parser.add_argument("--version", action="version", version=f"z2q {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    lattice_flags = argparse.ArgumentParser(add_help=False)
    lattice_flags.add_argument("--dims", help="lattice extents, e.g. 2,2,2,2")
    lattice_flags.add_argument("--boundary", choices=["open", "periodic"])
    lattice_flags.add_argument("--preset", choices=sorted(_PRESETS))

    beta_flags = argparse.ArgumentParser(add_help=False)
    group = beta_flags.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float)
    group.add_argument("--beta-grid", dest="beta_grid")

    schedule_flags = argparse.ArgumentParser(add_help=False)
    tgroup = schedule_flags.add_mutually_exclusive_group()
    tgroup.add_argument("--T", dest="total_time", type=float)
    tgroup.add_argument("--T-grid", dest="time_grid")
    schedule_flags.add_argument("--dt", type=float, default=0.2)
    schedule_flags.add_argument("--start", choices=["hot", "cold"], default="hot")

    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=int, default=0)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out", help="output path (default: stdout for CSV)")

    p = sub.add_parser("exact", parents=[lattice_flags, beta_flags, out_flags])
    p.set_defaults(runner=run_exact)

    p = sub.add_parser("mcmc", parents=[lattice_flags, beta_flags, seed_flags, out_flags])
    p.add_argument("--n-configs", dest="n_configs", type=int, default=10000)
    p.add_argument("--n-therm", dest="n_therm", type=int, default=100)
    p.add_argument("--stride", type=int, default=10)
    p.set_defaults(runner=run_mcmc)

    p = sub.add_parser("adiabatic", parents=[lattice_flags, beta_flags, schedule_flags, out_flags])
    p.set_defaults(runner=run_adiabatic)

    p = sub.add_parser(
        "sample", parents=[lattice_flags, beta_flags, schedule_flags, seed_flags, out_flags]
    )
    p.add_argument("--shots", type=int, default=10000)
    p.set_defaults(runner=run_sample)

    p = sub.add_parser("analyze", parents=[out_flags])
    p.add_argument("--ensemble", required=True, help="ensemble file to analyze")
    p.add_argument("--observables", default="plaquette")
    p.add_argument("--method", choices=["plain", "jackknife", "binned"])
    p.set_defaults(runner=run_analyze)
    return parser


def _resolve_lattice(args):
    dims = _parse_dims(args.dims) if args.dims else None
    boundary = Boundary(args.boundary) if args.boundary else None
    if args.preset:
        preset_dims, preset_boundary = _PRESETS[args.preset]
        dims = dims if dims is not None else preset_dims
        boundary = boundary if boundary is not None else preset_boundary
    if dims is None:
        raise ValueError("lattice dimensions required: pass --dims or --preset")
    lattice = build_lattice(dims, boundary if boundary is not None else Boundary.OPEN)
    return lattice, gauge_fix(lattice)


def _resolve_betas(args) -> tuple[float, ...]:
    if args.beta_grid is not None:
        betas = _parse_grid(args.beta_grid, "--beta-grid")
    elif args.beta is not None:
        betas = (args.beta,)
    else:
        raise ValueError("a coupling is required: pass --beta or --beta-grid")
    return betas


def _resolve_times(args) -> tuple[float, ...]:
    if args.time_grid is not None:
        times = _parse_grid(args.time_grid, "--T-grid")
    elif args.total_time is not None:
        times = (args.total_time,)
    else:
        raise ValueError("a schedule length is required: pass --T or --T-grid")
    return times


def _header_lines(args, lattice, **extras) -> list[str]:
    pairs = {
        "version": __version__,
        "subcommand": args.subcommand,
        "dims": ",".join(str(d) for d in lattice.dims),
        "boundary": lattice.boundary.value,
    }
    pairs.update(extras)
    return [f"# {k}={v}" for k, v in pairs.items() if v != "" and v is not None]


@contextlib.contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_csv(path, header_lines, columns, rows) -> None:
    with _open_out(path) as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# ----- subcommand runners -----


def run_exact(args) -> int:
    lattice, gf = _resolve_lattice(args)
    betas = _resolve_betas(args)
    rows = list(zip(betas, classical.exact_expectation(lattice, gf, betas)))
    rows.sort()
    header = _header_lines(args, lattice, beta_grid=",".join(repr(b) for b in betas))
    _write_csv(args.out, header, ("beta", "P_exact"), rows)
    return EXIT_OK


def run_mcmc(args) -> int:
    lattice, gf = _resolve_lattice(args)
    betas = _resolve_betas(args)
    if len(betas) != 1:
        raise ValueError("mcmc runs one coupling at a time; pass --beta")
    if args.out is None:
        raise ValueError("mcmc requires --out for the ensemble file")
    ens = classical.mcmc_run(
        lattice,
        gf,
        betas[0],
        n_configs=args.n_configs,
        n_therm=args.n_therm,
        stride=args.stride,
        seed=args.seed,
    )
    ensemble.save(ens, args.out)
    _print_summary(ens, lattice, args.out)
    return EXIT_OK


def run_adiabatic(args) -> int:
    lattice, gf = _resolve_lattice(args)
    betas = _resolve_betas(args)
    times = _resolve_times(args)
    if len(betas) > 1 and len(times) > 1:
        raise ValueError("vary one of --beta-grid and --T-grid, not both")
    start = StartKind(args.start)
    # every grid point is validated before the first sweep runs
    schedules = [
        Schedule(start=start, beta_target=beta, total_time=total_time, dt=args.dt)
        for beta in betas
        for total_time in times
    ]
    rows = []
    for schedule in schedules:
        state = quantum.adiabatic_evolve(lattice, gf, schedule)
        p = quantum.expectation_plaquette(state, lattice, gf)
        norm = float(abs(state @ state.conj()) ** 0.5)
        rows.append((schedule.beta_target, schedule.total_time, p, args.dt, start.value, norm))
    rows.sort(key=lambda r: (r[0], r[1]))
    header = _header_lines(
        args,
        lattice,
        beta_grid=",".join(repr(b) for b in betas),
        T_grid=",".join(repr(t) for t in times),
        dt=repr(args.dt),
        # the step that ran depends on T alone: one value per T_grid entry
        dt_eff=",".join(repr(s.dt_eff) for s in schedules[: len(times)]),
        start=start.value,
    )
    _write_csv(args.out, header, ("beta", "T", "P", "dt", "start", "norm"), rows)
    return EXIT_OK


def run_sample(args) -> int:
    lattice, gf = _resolve_lattice(args)
    betas = _resolve_betas(args)
    if len(betas) != 1:
        raise ValueError("sample runs one coupling at a time; pass --beta")
    times = _resolve_times(args)
    if len(times) != 1:
        raise ValueError("sample runs one schedule at a time; pass --T")
    if args.out is None:
        raise ValueError("sample requires --out for the ensemble file")
    if args.shots < 1:
        raise ValueError("--shots must be positive")
    start = StartKind(args.start)
    schedule = Schedule(start=start, beta_target=betas[0], total_time=times[0], dt=args.dt)
    # the statevector is not bound here, so it is freed before the ensemble is saved
    ens = quantum.sample_configs(
        quantum.adiabatic_evolve(lattice, gf, schedule),
        lattice,
        gf,
        args.shots,
        beta=betas[0],
        seed=args.seed,
        extra={
            "start": start.value,
            "T": repr(times[0]),
            "dt": repr(args.dt),
            "dt_eff": repr(schedule.dt_eff),
            "version": __version__,
        },
    )
    ensemble.save(ens, args.out)
    _print_summary(ens, lattice, args.out)
    return EXIT_OK


def _print_summary(ens, lattice, path) -> None:
    est = ensemble.estimate(ens, lambda cfgs: classical.plaquette_average(cfgs, lattice))
    print(
        f"wrote {path}: {ens.n_configs} configs, beta={ens.meta.beta}, "
        f"sampler={ens.meta.sampler.value}"
    )
    print(
        f"plaquette = {est.mean:.6f} +- {est.error:.6f} "
        f"({est.method.value}, n={est.n_samples})"
    )


def run_analyze(args) -> int:
    names = [n.strip() for n in args.observables.split(",") if n.strip()]
    if not names:
        raise ValueError("--observables is empty")
    for name in names:
        if name not in _OBSERVABLE_NAMES:
            raise ValueError(
                f"unknown observable {name!r}; choose from {', '.join(_OBSERVABLE_NAMES)}"
            )
    ens = ensemble.load(args.ensemble)
    # the header is checked in closed form first: an edited dims= must not
    # make analyze build a lattice far larger than the body
    try:
        n_links = count_links(ens.meta.dims, ens.meta.boundary)
    except ValueError as exc:
        raise ensemble.HeaderError(f"header names no valid lattice: {exc}") from None
    if ens.n_links != n_links:
        raise ensemble.HeaderError(f"ensemble has {ens.n_links} links but dims imply {n_links}")
    lattice = build_lattice(ens.meta.dims, ens.meta.boundary)
    beta = ens.meta.beta
    plaq = classical.plaquette_products(ens.configs, lattice)
    rows = []
    for name in names:
        for label, values in _observable_columns(name, plaq, beta):
            est = ensemble.estimate(ens, lambda _configs, v=values: v, method=args.method)
            rows.append((beta, label, est.mean, est.error, est.n_samples, est.method.value))
    header = _header_lines(
        args,
        lattice,
        beta=repr(beta),
        sampler=ens.meta.sampler.value,
        seed=ens.meta.seed,
        ensemble=args.ensemble,
        observables=",".join(names),
    )
    _write_csv(
        args.out, header, ("beta", "observable", "mean", "error", "n_samples", "method"), rows
    )
    return EXIT_OK


def _observable_columns(name, plaq, beta):
    """(label, per-configuration values) pairs of one observable name, read off
    the plaquette table: with s the sum of a configuration's plaquettes and
    N_p their number, the mean plaquette is s / N_p (the arithmetic of
    ``classical.plaquette_average``) and the action density -beta * s / N_p."""
    n_plaquettes = plaq.shape[-1]
    if name == "per-plaquette":
        return [(f"plaquette[{i}]", plaq[:, i]) for i in range(n_plaquettes)]
    sums = plaq.sum(axis=-1, dtype="int64")
    if name == "plaquette":
        return [("plaquette", sums / n_plaquettes)]
    return [("action-density", -beta * sums / n_plaquettes)]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_run_file(argv)
    except OSError as exc:
        print(f"error: cannot read run file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.runner(args)
    except limits.EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ensemble.EnsembleFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

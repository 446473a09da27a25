import ast
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import z2qsim
from z2qsim import classical, cli, ensemble, quantum
from z2qsim.cli import EXIT_CAP, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from z2qsim.lattice import Boundary, build_lattice, gauge_fix
from z2qsim.limits import ENV_VAR
from oracles import action_density


def read_csv(path):
    header = {}
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, value = line[2:].split("=", 1)
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return header, columns, rows


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_loads_no_scipy():
    # scipy.sparse.linalg costs about 0.4 s to import; only the iterative
    # eigensolver needs it, so no z2q process should pay for it at start-up
    code = (
        "import sys, z2qsim.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_readme_quick_start_uses_package_namespace():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    used = {
        node.attr
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "z"
    }
    assert used
    assert used <= set(z2qsim.__all__)


class TestExact:
    def test_hypercube_benchmark_value(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert main(["exact", "--preset", "hypercube", "--beta", "0.7", "--out", str(out)]) == EXIT_OK
        header, columns, rows = read_csv(out)
        assert columns == ["beta", "P_exact"]
        assert header["subcommand"] == "exact"
        assert "version" in header
        assert len(rows) == 1
        assert abs(float(rows[0]["P_exact"]) - 0.753) <= 1e-3

    def test_square_matches_tanh(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert main(["exact", "--dims", "2,2", "--beta", "0.7", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert float(rows[0]["P_exact"]) == pytest.approx(math.tanh(0.7), abs=1e-10)

    def test_beta_zero(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert main(["exact", "--dims", "3,3", "--beta", "0", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert abs(float(rows[0]["P_exact"])) < 1e-12

    def test_grid_rows_sorted(self, tmp_path):
        out = tmp_path / "exact.csv"
        code = main(["exact", "--dims", "2,2", "--beta-grid", "0.9,0.1,0.5", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert [float(r["beta"]) for r in rows] == [0.1, 0.5, 0.9]

    def test_stdout_default(self, capsys):
        assert main(["exact", "--dims", "2,2", "--beta", "0.3"]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "beta,P_exact" in captured
        assert repr(math.tanh(0.3))[:12] in captured

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["exact", "--dims", "3,3", "--beta-grid", "0.2,0.8"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_beta_is_usage_error(self):
        assert main(["exact", "--dims", "2,2"]) == EXIT_USAGE

    def test_empty_grid_is_usage_error(self):
        assert main(["exact", "--dims", "2,2", "--beta-grid", ""]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_dims(self):
        assert main(["exact", "--beta", "0.5"]) == EXIT_USAGE

    def test_bad_dims(self):
        assert main(["exact", "--dims", "2", "--beta", "0.5"]) == EXIT_USAGE

    def test_negative_beta(self):
        assert main(["exact", "--dims", "2,2", "--beta", "-1"]) == EXIT_USAGE

    def test_cap_exceeded(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "8")
        code = main(["exact", "--preset", "hypercube", "--beta", "0.7"])
        assert code == EXIT_CAP
        assert "error" in capsys.readouterr().err

    def test_cap_checked_before_building(self, monkeypatch, capsys):
        # 40^3 has 123 201 free links; building it took seconds before the refusal
        def unreachable(*args):
            raise AssertionError("the cap must be checked before the lattice is built")

        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.setattr(cli, "build_lattice", unreachable)
        code = main(["exact", "--dims", "40,40,40", "--beta", "0.7"])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == (
            f"error: plaquette diagonal: N_free=123201 exceeds cap 24 (override with {ENV_VAR})\n"
        )

    def test_missing_ensemble_file(self, tmp_path):
        assert main(["analyze", "--ensemble", str(tmp_path / "nope.dat")]) == EXIT_IO

    def test_corrupt_ensemble_file(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("not an ensemble\n\njunk\n")
        assert main(["analyze", "--ensemble", str(bad)]) == EXIT_IO

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "z2q" in capsys.readouterr().out


class TestMcmc:
    def test_writes_loadable_ensemble(self, tmp_path, capsys):
        out = tmp_path / "mc.dat"
        code = main(
            ["mcmc", "--dims", "3,3", "--beta", "0.7", "--n-configs", "40",
             "--n-therm", "10", "--stride", "2", "--seed", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        ens = ensemble.load(out)
        assert ens.n_configs == 40
        assert ens.meta.sampler is ensemble.Sampler.MCMC
        assert ens.meta.extra["stride"] == "2"
        printed = capsys.readouterr().out
        assert "plaquette" in printed

    def test_seed_gives_identical_files(self, tmp_path):
        argv = ["mcmc", "--dims", "2,2", "--beta", "0.5", "--n-configs", "30",
                "--n-therm", "5", "--stride", "2", "--seed", "9"]
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_requires_out(self):
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.5"]) == EXIT_USAGE

    def test_more_than_64_free_links_is_cap_error(self, tmp_path, monkeypatch, capsys):
        # chain states are recorded and decoded as uint64; 4x4x4 has 81 free links
        def unreachable(*args):
            raise AssertionError("the cap must be checked before any sweep")

        monkeypatch.setattr(classical, "_acceptance_table", unreachable)
        code = main(["mcmc", "--dims", "4,4,4", "--beta", "0.7", "--n-configs", "3",
                     "--n-therm", "1", "--stride", "1", "--out", str(tmp_path / "x.dat")])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == "error: mcmc_run: N_free=81 exceeds cap 64\n"
        assert not (tmp_path / "x.dat").exists()

    def test_64_free_links_run_and_analyze(self, tmp_path):
        out = tmp_path / "x.dat"
        assert main(["mcmc", "--dims", "9,9", "--beta", "0.7", "--n-configs", "3",
                     "--n-therm", "1", "--stride", "1", "--out", str(out)]) == EXIT_OK
        ens = ensemble.load(out)
        assert ens.configs.shape == (3, 144)
        assert main(["analyze", "--ensemble", str(out), "--out", str(tmp_path / "a.csv")]) == EXIT_OK

    def test_rejects_beta_grid(self, tmp_path):
        code = main(["mcmc", "--dims", "2,2", "--beta-grid", "0.5,0.7",
                     "--out", str(tmp_path / "x.dat")])
        assert code == EXIT_USAGE


class TestAdiabatic:
    def test_time_grid_rows(self, tmp_path):
        out = tmp_path / "ad.csv"
        code = main(["adiabatic", "--dims", "2,2", "--beta", "0.7",
                     "--T-grid", "8,2,4", "--dt", "0.2", "--out", str(out)])
        assert code == EXIT_OK
        header, columns, rows = read_csv(out)
        assert columns == ["beta", "T", "P", "dt", "start", "norm"]
        assert [float(r["T"]) for r in rows] == [2.0, 4.0, 8.0]
        for r in rows:
            assert r["start"] == "hot"
            assert float(r["dt"]) == 0.2
            assert abs(float(r["norm"]) - 1.0) < 1e-8

    def test_beta_zero_hot_is_zero(self, tmp_path):
        out = tmp_path / "ad.csv"
        code = main(["adiabatic", "--dims", "2,2", "--beta", "0", "--T", "5", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert abs(float(rows[0]["P"])) < 1e-9

    def test_beta_grid_mode(self, tmp_path):
        out = tmp_path / "ad.csv"
        code = main(["adiabatic", "--dims", "2,2", "--beta-grid", "0.4,0.2",
                     "--T", "120", "--start", "cold", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert [float(r["beta"]) for r in rows] == [0.2, 0.4]
        for r in rows:
            assert r["start"] == "cold"
            assert float(r["P"]) == pytest.approx(math.tanh(float(r["beta"])), abs=0.02)

    def test_both_grids_rejected(self, tmp_path):
        code = main(["adiabatic", "--dims", "2,2", "--beta-grid", "0.1,0.2",
                     "--T-grid", "2,4", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_requires_time(self):
        assert main(["adiabatic", "--dims", "2,2", "--beta", "0.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("subcommand", ["adiabatic", "sample"])
    @pytest.mark.parametrize("flags", [
        ["--T", "inf"], ["--T", "nan"], ["--T", "5", "--dt", "nan"], ["--T", "5", "--dt", "inf"],
    ], ids=["T-inf", "T-nan", "dt-nan", "dt-inf"])
    def test_non_finite_schedule_is_usage_error(self, tmp_path, subcommand, flags, capsys):
        code = main([subcommand, "--dims", "2,2", "--beta", "0.7", *flags,
                     "--out", str(tmp_path / "x.out")])
        assert code == EXIT_USAGE
        assert "must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["10,inf", "10,-1"])
    def test_bad_grid_point_fails_before_any_sweep(self, tmp_path, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(quantum, "adiabatic_evolve", lambda *a: calls.append(a))
        code = main(["adiabatic", "--preset", "hypercube", "--beta", "0.7", "--T-grid", grid,
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert calls == []

    def test_header_records_step_that_ran(self, tmp_path):
        out = tmp_path / "ad.csv"
        assert main(["adiabatic", "--dims", "2,2", "--beta", "0.7", "--T-grid", "1,0.9",
                     "--dt", "0.3", "--out", str(out)]) == EXIT_OK
        header, _, rows = read_csv(out)
        assert header["dt"] == "0.3"
        assert header["dt_eff"] == "0.25,0.3"
        assert [r["dt"] for r in rows] == ["0.3", "0.3"]


class TestSampleAndAnalyze:
    def test_header_records_step_that_ran(self, tmp_path):
        out = tmp_path / "s.dat"
        assert main(["sample", "--dims", "2,2", "--beta", "0.7", "--T", "1", "--dt", "0.3",
                     "--shots", "4", "--out", str(out)]) == EXIT_OK
        extra = ensemble.load(out).meta.extra
        assert (extra["dt"], extra["dt_eff"]) == ("0.3", "0.25")

    def test_single_shot(self, tmp_path):
        out = tmp_path / "s.dat"
        code = main(["sample", "--dims", "2,2", "--beta", "0.7", "--T", "10",
                     "--shots", "1", "--out", str(out)])
        assert code == EXIT_OK
        ens = ensemble.load(out)
        assert ens.n_configs == 1
        assert ens.meta.sampler is ensemble.Sampler.QUANTUM
        assert ens.meta.extra["T"] == "10.0"

    def test_seed_reproducible(self, tmp_path):
        argv = ["sample", "--dims", "2,2", "--beta", "0.7", "--T", "6",
                "--shots", "20", "--seed", "3"]
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_matches_in_memory_estimate(self, tmp_path):
        sfile = tmp_path / "s.dat"
        assert main(["sample", "--dims", "3,3", "--beta", "0.6", "--T", "12",
                     "--shots", "64", "--seed", "1", "--out", str(sfile)]) == EXIT_OK
        csv = tmp_path / "a.csv"
        assert main(["analyze", "--ensemble", str(sfile), "--out", str(csv)]) == EXIT_OK
        _, _, rows = read_csv(csv)
        assert len(rows) == 1

        lat = build_lattice((3, 3))
        ens = ensemble.load(sfile)
        est = ensemble.estimate(ens, lambda c: classical.plaquette_average(c, lat))
        assert float(rows[0]["mean"]) == est.mean
        assert float(rows[0]["error"]) == est.error
        assert rows[0]["method"] == "plain"
        assert int(rows[0]["n_samples"]) == 64

    def test_analyze_all_observables(self, tmp_path):
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "20",
                     "--seed", "2", "--out", str(sfile)]) == EXIT_OK
        csv = tmp_path / "a.csv"
        code = main(["analyze", "--ensemble", str(sfile),
                     "--observables", "plaquette,action-density,per-plaquette",
                     "--method", "jackknife", "--out", str(csv)])
        assert code == EXIT_OK
        _, _, rows = read_csv(csv)
        labels = [r["observable"] for r in rows]
        assert labels == ["plaquette", "action-density", "plaquette[0]"]
        assert all(r["method"] == "jackknife" for r in rows)
        assert all(float(r["beta"]) == 0.4 for r in rows)

    def test_analyze_columns_match_classical_observables(self, tmp_path):
        # analyze reads every estimate off one plaquette table; each must equal the
        # estimate of the classical observable it names, to the last bit
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "3,3", "--boundary", "periodic", "--beta", "0.6",
                     "--n-configs", "40", "--seed", "4", "--out", str(sfile)]) == EXIT_OK
        csv = tmp_path / "a.csv"
        assert main(["analyze", "--ensemble", str(sfile),
                     "--observables", "per-plaquette,action-density,plaquette",
                     "--method", "jackknife", "--out", str(csv)]) == EXIT_OK
        _, _, rows = read_csv(csv)
        lat = build_lattice((3, 3), Boundary.PERIODIC)
        ens = ensemble.load(sfile)
        observables = [
            (f"plaquette[{i}]", lambda c, i=i: classical.plaquette_products(c, lat)[..., i])
            for i in range(lat.n_plaquettes)
        ]
        observables.append(("action-density", lambda c: action_density(c, lat, 0.6)))
        observables.append(("plaquette", lambda c: classical.plaquette_average(c, lat)))
        assert [r["observable"] for r in rows] == [label for label, _ in observables]
        for row, (_, obs) in zip(rows, observables):
            est = ensemble.estimate(ens, obs, method="jackknife")
            assert (float(row["mean"]), float(row["error"])) == (est.mean, est.error)

    def test_analyze_non_canonical_body(self, tmp_path):
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "5",
                     "--out", str(sfile)]) == EXIT_OK
        head, body = sfile.read_bytes().split(b"\n\n", 1)
        crlf = body.replace(b"\n", b"\r\n")
        crc = f"crc32={zlib.crc32(crlf) & 0xFFFFFFFF:08x}".encode()
        head = b"\n".join(crc if ln.startswith(b"crc32=") else ln for ln in head.split(b"\n"))
        sfile.write_bytes(head + b"\n\n" + crlf)
        assert main(["analyze", "--ensemble", str(sfile)]) == EXIT_IO

    @pytest.mark.parametrize("beta", ["nan", "-2.0", "inf"])
    def test_analyze_invalid_beta_header(self, tmp_path, beta):
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "5",
                     "--out", str(sfile)]) == EXIT_OK
        sfile.write_text(sfile.read_text().replace("beta=0.4\n", f"beta={beta}\n", 1))
        assert main(["analyze", "--ensemble", str(sfile)]) == EXIT_IO

    @pytest.mark.parametrize(
        "edit",
        [
            ("dims=2,2\n", "dims=2\n"),  # one extent: no plaquette
            ("dims=2,2\n", "dims=2,2,2,2,2\n"),  # five extents
            ("boundary=open\n", "boundary=periodic\n"),  # periodic with extent 2
            ("dims=2,2\n", "dims=3,3\n"),  # a lattice, but not of these links
        ],
        ids=["one-extent", "five-extents", "periodic-extent-2", "n-links-mismatch"],
    )
    def test_analyze_impossible_lattice_header(self, tmp_path, capsys, edit):
        # the header is the file's, so a lattice it cannot name is a format error
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "5",
                     "--out", str(sfile)]) == EXIT_OK
        sfile.write_text(sfile.read_text().replace(*edit, 1))
        capsys.readouterr()
        assert main(["analyze", "--ensemble", str(sfile)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_analyze_oversized_header_builds_nothing(self, tmp_path, monkeypatch, boundary):
        # dims=1000,1000,1000 names about 3e9 links; the count is compared in
        # closed form, so the lattice is never built
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "5",
                     "--out", str(sfile)]) == EXIT_OK
        text = sfile.read_text().replace("dims=2,2\n", "dims=1000,1000,1000\n", 1)
        sfile.write_text(text.replace("boundary=open\n", f"boundary={boundary}\n", 1))

        def refuse(*args):
            raise AssertionError(f"build_lattice{args} was called")

        monkeypatch.setattr("z2qsim.cli.build_lattice", refuse)
        assert main(["analyze", "--ensemble", str(sfile)]) == EXIT_IO

    def test_analyze_unknown_observable(self, tmp_path):
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "2,2", "--beta", "0.4", "--n-configs", "5",
                     "--out", str(sfile)]) == EXIT_OK
        assert main(["analyze", "--ensemble", str(sfile),
                     "--observables", "wilson-loop"]) == EXIT_USAGE

    def test_per_plaquette_mean_consistency(self, tmp_path):
        sfile = tmp_path / "s.dat"
        assert main(["mcmc", "--dims", "3,3", "--beta", "0.8", "--n-configs", "50",
                     "--seed", "7", "--out", str(sfile)]) == EXIT_OK
        csv = tmp_path / "a.csv"
        assert main(["analyze", "--ensemble", str(sfile),
                     "--observables", "per-plaquette,plaquette", "--out", str(csv)]) == EXIT_OK
        _, _, rows = read_csv(csv)
        per = [float(r["mean"]) for r in rows if r["observable"].startswith("plaquette[")]
        total = [float(r["mean"]) for r in rows if r["observable"] == "plaquette"]
        assert len(per) == 4
        assert np.mean(per) == pytest.approx(total[0], abs=1e-12)


class TestRunFile:
    def test_expands_flags(self, tmp_path):
        rf = tmp_path / "run.cfg"
        rf.write_text("# benchmark point\ndims=2,2\nbeta=0.7\n")
        out = tmp_path / "out.csv"
        assert main(["exact", "--run-file", str(rf), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert float(rows[0]["P_exact"]) == pytest.approx(math.tanh(0.7), abs=1e-10)

    def test_explicit_flag_wins(self, tmp_path, capsys):
        rf = tmp_path / "run.cfg"
        rf.write_text("dims=2,2\nbeta=0.3\n")
        assert main(["exact", "--run-file", str(rf), "--beta", "0.9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert repr(math.tanh(0.9))[:12] in out

    def test_missing_file(self, tmp_path):
        assert main(["exact", "--run-file", str(tmp_path / "nope.cfg")]) == EXIT_IO

    def test_malformed_line(self, tmp_path):
        rf = tmp_path / "run.cfg"
        rf.write_text("dims 2,2\n")
        assert main(["exact", "--run-file", str(rf)]) == EXIT_USAGE

    def test_run_file_equals_form(self, tmp_path, capsys):
        rf = tmp_path / "run.cfg"
        rf.write_text("dims=2,2\nbeta=0.3\n")
        assert main(["exact", f"--run-file={rf}"]) == EXIT_OK
        assert repr(math.tanh(0.3))[:12] in capsys.readouterr().out

    def test_run_file_before_subcommand(self, tmp_path, capsys):
        rf = tmp_path / "run.cfg"
        rf.write_text("dims=2,2\nbeta=0.3\n")
        assert main(["--run-file", str(rf), "exact", "--beta", "0.9"]) == EXIT_OK
        assert repr(math.tanh(0.9))[:12] in capsys.readouterr().out

    def test_bare_run_file(self):
        assert main(["exact", "--dims", "2,2", "--beta", "0.3", "--run-file"]) == EXIT_USAGE

    def test_unreadable_run_file_message(self, tmp_path, capsys):
        assert main(["exact", "--run-file", str(tmp_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: cannot read run file: ")


class TestDeclaredRules:
    """The parser refuses a command line that breaks a flag rule before any
    lattice is built."""

    @pytest.fixture(autouse=True)
    def no_lattice(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a usage error must be reported before the lattice is built")

        monkeypatch.setattr(cli, "build_lattice", unreachable)

    @pytest.mark.parametrize("argv", [
        ["sample", "--beta-grid", "0.7", "--T", "10"],
        ["sample", "--beta", "0.7", "--T-grid", "10"],
        ["mcmc", "--beta-grid", "0.7"],
    ], ids=["sample-beta-grid", "sample-T-grid", "mcmc-beta-grid"])
    def test_ensemble_runs_take_no_grid(self, tmp_path, argv):
        out = tmp_path / "x.dat"
        assert main([*argv, "--dims", "2,2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_exact_needs_a_coupling(self):
        assert main(["exact", "--dims", "2,2"]) == EXIT_USAGE

    def test_beta_and_beta_grid_exclude_each_other(self):
        assert main(["exact", "--dims", "2,2", "--beta", "0.3", "--beta-grid", "0.3"]) == EXIT_USAGE

    def test_sample_needs_a_schedule(self, tmp_path):
        out = tmp_path / "x.dat"
        assert main(["sample", "--dims", "2,2", "--beta", "0.7", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_missing_flag_reported_before_cap(self, tmp_path, capsys):
        out = tmp_path / "y.dat"
        assert main(["mcmc", "--dims", "40,40,40", "--out", str(out)]) == EXIT_USAGE
        assert "--beta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,argv", [
        ("--dims", ["--dims", "2,x", "--beta", "0.3"]),
        ("--dims", ["--dims", "", "--beta", "0.3"]),
        ("--beta-grid", ["--dims", "2,2", "--beta-grid", "0.1,,0.2"]),
    ], ids=["dims-letter", "dims-empty", "grid-gap"])
    def test_malformed_list(self, flag, argv, capsys):
        assert main(["exact", *argv]) == EXIT_USAGE
        assert f"argument {flag}: not comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["exact", "mcmc", "adiabatic", "sample", "analyze"])
    def test_help(self, subcommand, capsys):
        assert main([subcommand, "--help"]) == EXIT_OK
        assert f"usage: z2q {subcommand}" in capsys.readouterr().out

    def test_sample_usage_marks_required_flags(self, capsys):
        assert main(["sample", "--help"]) == EXIT_OK
        usage = " ".join(capsys.readouterr().out.split("\n\n", 1)[0].split())
        for flag in ("--beta BETA", "--T TOTAL_TIME", "--out OUT"):
            assert flag in usage
            assert f"[{flag}]" not in usage


class TestOutOfMemory:
    @pytest.mark.parametrize("module,name,argv", [
        (quantum, "sample_configs", ["sample", "--T", "1", "--shots", "100000000000"]),
        (classical, "mcmc_run", ["mcmc", "--n-configs", "100000000000"]),
    ], ids=["sample", "mcmc"])
    def test_is_cap_error(self, tmp_path, monkeypatch, capsys, module, name, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(module, name, exhausted)
        out = tmp_path / "x.dat"
        assert main([*argv, "--dims", "2,2", "--beta", "0.7", "--out", str(out)]) == EXIT_CAP
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB\n"
        assert not out.exists()

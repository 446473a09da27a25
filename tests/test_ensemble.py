import math
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from z2qsim.ensemble import (
    FORMAT_MAGIC,
    ChecksumError,
    Ensemble,
    EnsembleFormatError,
    EnsembleMeta,
    EstimateMethod,
    HeaderError,
    LengthMismatchError,
    Sampler,
    default_method,
    estimate,
    load,
    save,
)
from z2qsim.lattice import Boundary

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def make_ensemble(n=20, n_links=7, seed=0, sampler=Sampler.MCMC, beta=0.7, extra=None):
    rng = np.random.default_rng(seed)
    configs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n_links))
    meta = EnsembleMeta(
        dims=(3, 2),
        boundary=Boundary.OPEN,
        beta=beta,
        sampler=sampler,
        seed=seed,
        extra=dict(extra or {}),
    )
    return Ensemble(meta=meta, configs=configs)


class TestContainer:
    def test_shape_and_dtype(self):
        ens = make_ensemble()
        assert ens.n_configs == 20
        assert ens.n_links == 7
        assert ens.configs.dtype == np.int8

    def test_int_input_cast(self):
        meta = make_ensemble().meta
        ens = Ensemble(meta=meta, configs=np.ones((3, 7), dtype=np.int64))
        assert ens.configs.dtype == np.int8

    def test_rejects_bad_values(self):
        meta = make_ensemble().meta
        with pytest.raises(ValueError):
            Ensemble(meta=meta, configs=np.zeros((3, 7), dtype=np.int8))
        with pytest.raises(ValueError):
            Ensemble(meta=meta, configs=np.ones(7, dtype=np.int8))

    def test_int8_input_not_copied(self):
        configs = np.ones((3, 7), dtype=np.int8)
        ens = Ensemble(meta=make_ensemble().meta, configs=configs)
        assert np.shares_memory(ens.configs, configs)

    @pytest.mark.parametrize(
        "value,dtype",
        [(0, np.int8), (127, np.int8), (-128, np.int8), (257, np.int64), (0.5, np.float64)],
    )
    def test_rejects_values_the_cast_would_hide(self, value, dtype):
        # int64 257 wraps to 1 in int8, and float 0.5 truncates to 0
        configs = np.ones((3, 7), dtype=dtype)
        configs[1, 4] = value
        with pytest.raises(ValueError, match=r"only \+1 and -1"):
            Ensemble(meta=make_ensemble().meta, configs=configs)

    @pytest.mark.parametrize("shape", [(0, 7), (3, 0), (0, 0)])
    def test_rejects_empty(self, shape):
        # an empty ensemble has no canonical body, so it could be saved but never loaded
        with pytest.raises(ValueError):
            Ensemble(meta=make_ensemble().meta, configs=np.ones(shape, dtype=np.int8))


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        path = tmp_path / "ens.dat"
        ens = make_ensemble(extra={"stride": "10", "n_therm": "100"})
        save(ens, path)
        back = load(path)
        assert back.meta == ens.meta
        np.testing.assert_array_equal(back.configs, ens.configs)

    def test_beta_repr_roundtrip(self, tmp_path):
        for beta in (0.7, 0.1, 1e-3, 123.456789012345):
            ens = make_ensemble(beta=beta)
            save(ens, tmp_path / "b.dat")
            assert load(tmp_path / "b.dat").meta.beta == beta

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        save(make_ensemble(extra={"z": "1", "a": "2"}), a)
        save(make_ensemble(extra={"a": "2", "z": "1"}), b)
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_overwrite(self, tmp_path):
        path = tmp_path / "ens.dat"
        save(make_ensemble(seed=1), path)
        save(make_ensemble(seed=2), path)
        assert load(path).meta.seed == 2
        assert os.listdir(tmp_path) == ["ens.dat"]  # no temp files left

    def test_quantum_sampler_roundtrip(self, tmp_path):
        ens = make_ensemble(sampler=Sampler.QUANTUM)
        save(ens, tmp_path / "q.dat")
        assert load(tmp_path / "q.dat").meta.sampler is Sampler.QUANTUM

    def test_reserved_extra_key_rejected(self, tmp_path):
        ens = make_ensemble(extra={"beta": "0.1"})
        with pytest.raises(ValueError):
            save(ens, tmp_path / "x.dat")

    def test_unrepresentable_extra_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save(make_ensemble(extra={"note": "two\nlines"}), tmp_path / "x.dat")
        with pytest.raises(ValueError):  # the header reader splits lines on \r too
            save(make_ensemble(extra={"note": "two\rlines"}), tmp_path / "x.dat")
        with pytest.raises(ValueError):
            save(make_ensemble(extra={"a=b": "1"}), tmp_path / "x.dat")


class TestLoadErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "ens.dat"
        save(make_ensemble(), path)
        return path

    def test_missing_magic(self, saved):
        text = saved.read_text()
        saved.write_text(text.replace("z2q-ensemble v1", "something else", 1))
        with pytest.raises(HeaderError):
            load(saved)

    def test_missing_key(self, saved):
        lines = saved.read_text().splitlines(keepends=True)
        lines = [ln for ln in lines if not ln.startswith("beta=")]
        saved.write_text("".join(lines))
        with pytest.raises(HeaderError):
            load(saved)

    def test_malformed_header_line(self, saved):
        text = saved.read_text()
        saved.write_text(text.replace("seed=0", "seed 0", 1))
        with pytest.raises(HeaderError):
            load(saved)

    def test_duplicate_key(self, saved):
        text = saved.read_text()
        saved.write_text(text.replace("seed=0\n", "seed=0\nseed=1\n", 1))
        with pytest.raises(HeaderError):
            load(saved)

    def test_no_blank_separator(self, saved):
        saved.write_text(saved.read_text().replace("\n\n", "\n", 1))
        with pytest.raises(HeaderError):
            load(saved)

    def test_invalid_header_value(self, saved):
        saved.write_text(saved.read_text().replace("boundary=open", "boundary=weird", 1))
        with pytest.raises(HeaderError):
            load(saved)

    def test_truncated_body(self, saved):
        head, body = saved.read_text().split("\n\n", 1)
        lines = body.splitlines()
        saved.write_text(head + "\n\n" + "\n".join(lines[:-1]) + "\n")
        with pytest.raises(LengthMismatchError):
            load(saved)

    def test_short_line(self, saved):
        head, body = saved.read_text().split("\n\n", 1)
        lines = body.splitlines()
        lines[3] = lines[3][:-3]
        saved.write_text(head + "\n\n" + "\n".join(lines) + "\n")
        with pytest.raises(LengthMismatchError):
            load(saved)

    def test_corrupted_value_changes_checksum(self, saved):
        head, body = saved.read_text().split("\n\n", 1)
        flipped = ("-1" if body[:2] == "+1" else "+1") + body[2:]
        saved.write_text(head + "\n\n" + flipped)
        with pytest.raises(ChecksumError):
            load(saved)

    def test_invalid_token(self, saved):
        head, body = saved.read_text().split("\n\n", 1)
        saved.write_text(head + "\n\n" + body.replace("+1", "+2", 1))
        with pytest.raises(EnsembleFormatError):
            load(saved)

    @pytest.mark.parametrize("n_configs", ["0", "-1"])
    def test_non_positive_count(self, saved, n_configs):
        saved.write_text(saved.read_text().replace("n_configs=20", f"n_configs={n_configs}", 1))
        with pytest.raises(HeaderError):
            load(saved)

    @pytest.mark.parametrize("beta", ["nan", "-2.0", "inf"])
    def test_invalid_beta(self, saved, beta):
        # the checksum covers the body only, so the edited header keeps a valid one
        saved.write_text(saved.read_text().replace("beta=0.7", f"beta={beta}", 1))
        with pytest.raises(HeaderError, match="beta"):
            load(saved)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda body: body.replace(b"\n", b"\r\n"), LengthMismatchError),
            (lambda body: body[:-1], LengthMismatchError),  # no final newline
            (lambda body: body.replace(b" ", b"  ", 1), LengthMismatchError),
            (lambda body: body.replace(b"+1", b"1", 1), LengthMismatchError),
            (lambda body: body.replace(b"+1", b" 1", 1), EnsembleFormatError),
            (lambda body: body.replace(b"+1", b"+0", 1), EnsembleFormatError),
            (lambda body: body.replace(b" ", b"\t", 1), EnsembleFormatError),
            (lambda body: body.replace(b"\n", b" ", 1), EnsembleFormatError),
        ],
        ids=[
            "crlf", "no-final-newline", "double-space", "unsigned", "space-sign", "digit", "tab",
            "joined",
        ],
    )
    def test_non_canonical_body_refused(self, saved, edit, error):
        # the edited body carries a matching checksum, so only its layout is at fault
        head, body = saved.read_bytes().split(b"\n\n", 1)
        edited = edit(body)
        assert edited != body
        crc = f"crc32={zlib.crc32(edited) & 0xFFFFFFFF:08x}".encode()
        head = b"\n".join(crc if ln.startswith(b"crc32=") else ln for ln in head.split(b"\n"))
        saved.write_bytes(head + b"\n\n" + edited)
        with pytest.raises(error):
            load(saved)

    def test_header_edits_keep_body_valid(self, saved):
        # checksum covers the body only: retagging beta by hand is allowed
        saved.write_text(saved.read_text().replace("beta=0.7", "beta=0.9", 1))
        assert load(saved).meta.beta == 0.9

    def test_error_hierarchy(self):
        for cls in (HeaderError, LengthMismatchError, ChecksumError):
            assert issubclass(cls, EnsembleFormatError)
        assert issubclass(EnsembleFormatError, ValueError)


def reference_blob(ens: Ensemble) -> bytes:
    """The file as the original line-by-line text writer produced it."""
    meta = ens.meta
    tokens = np.where(ens.configs > 0, "+1", "-1")
    body = ("\n".join(" ".join(row) for row in tokens) + "\n").encode("ascii")
    header = [
        FORMAT_MAGIC,
        f"dims={','.join(str(d) for d in meta.dims)}",
        f"boundary={meta.boundary.value}",
        f"beta={float(meta.beta)!r}",
        f"sampler={meta.sampler.value}",
        f"seed={meta.seed}",
        f"n_configs={ens.n_configs}",
        f"n_links={ens.n_links}",
    ]
    header.extend(f"{k}={v}" for k, v in sorted(meta.extra.items()))
    header.append(f"crc32={zlib.crc32(body) & 0xFFFFFFFF:08x}")
    return ("\n".join(header) + "\n\n").encode("ascii") + body


def reference_parse(blob: bytes, n_configs: int, n_links: int) -> np.ndarray:
    """The original whitespace-splitting body parser."""
    body = blob[blob.find(b"\n\n") + 2 :].decode("ascii")
    return np.array(body.split(), dtype=np.int64).reshape(n_configs, n_links)


_RESERVED = ("dims", "boundary", "beta", "sampler", "seed", "n_configs", "n_links", "crc32")
_HEADER_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@st.composite
def ensembles(draw):
    n_configs = draw(st.integers(1, 30))
    n_links = draw(st.integers(1, 30))
    configs = draw(arrays(np.int8, (n_configs, n_links), elements=st.sampled_from([-1, 1])))
    keys = _HEADER_TEXT.filter(lambda k: "=" not in k and k not in _RESERVED)
    meta = EnsembleMeta(
        dims=tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))),
        boundary=draw(st.sampled_from(Boundary)),
        beta=draw(st.floats(0.0, 1e6)),
        sampler=draw(st.sampled_from(Sampler)),
        seed=draw(st.integers(0, 2**63)),
        extra=draw(st.dictionaries(keys, _HEADER_TEXT, max_size=3)),
    )
    return Ensemble(meta=meta, configs=configs)


class TestCanonicalBodyProperties:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("properties") / "ens.dat"

    @PROPERTY_SETTINGS
    @given(ens=ensembles())
    def test_round_trip(self, path, ens):
        save(ens, path)
        back = load(path)
        assert back.meta == ens.meta
        np.testing.assert_array_equal(back.configs, ens.configs)

    @PROPERTY_SETTINGS
    @given(ens=ensembles())
    def test_save_matches_reference_writer(self, path, ens):
        save(ens, path)
        assert path.read_bytes() == reference_blob(ens)

    @PROPERTY_SETTINGS
    @given(ens=ensembles())
    def test_load_matches_reference_parser(self, path, ens):
        blob = reference_blob(ens)
        path.write_bytes(blob)
        np.testing.assert_array_equal(
            load(path).configs, reference_parse(blob, ens.n_configs, ens.n_links)
        )

    @PROPERTY_SETTINGS
    @given(ens=ensembles(), data=st.data())
    def test_any_single_body_byte_change_refused(self, path, ens, data):
        save(ens, path)
        blob = bytearray(path.read_bytes())
        start = blob.find(b"\n\n") + 2
        pos = data.draw(st.integers(start, len(blob) - 1), label="pos")
        new = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
        blob[pos] = new
        path.write_bytes(bytes(blob))
        with pytest.raises(EnsembleFormatError):
            load(path)


class TestEstimate:
    def test_plain_matches_formula(self):
        ens = make_ensemble(n=50)
        values = ens.configs[:, 0].astype(np.float64)
        est = estimate(ens, lambda c: c[:, 0], method=EstimateMethod.PLAIN)
        assert est.mean == pytest.approx(values.mean(), abs=1e-15)
        assert est.error == pytest.approx(values.std(ddof=1) / math.sqrt(50), abs=1e-15)
        assert est.n_samples == 50

    def test_jackknife_of_mean_equals_plain(self):
        ens = make_ensemble(n=64, seed=3)
        obs = lambda c: c.mean(axis=1)  # noqa: E731
        plain = estimate(ens, obs, method=EstimateMethod.PLAIN)
        jack = estimate(ens, obs, method=EstimateMethod.JACKKNIFE)
        assert jack.mean == pytest.approx(plain.mean, abs=1e-15)
        assert jack.error == pytest.approx(plain.error, rel=1e-12)
        # 100 000 ones with three -1s, where summing the leave-one-out means
        # lands 1.7e-12 relative away: the error must be s / sqrt(n) exactly
        series = np.ones(100_000)
        series[:3] = -1.0
        meta = make_ensemble().meta
        long = Ensemble(meta=meta, configs=np.ones((series.size, 2), dtype=np.int8))
        jack = estimate(long, lambda c: series, method=EstimateMethod.JACKKNIFE)
        assert jack.error == series.std(ddof=1) / math.sqrt(series.size)

    def test_binned_grows_with_autocorrelation(self):
        rng = np.random.default_rng(12)
        block = 16
        raw = np.repeat(rng.normal(size=256), block)  # strong correlation, length 4096
        meta = make_ensemble().meta
        configs = np.ones((raw.size, 2), dtype=np.int8)
        ens = Ensemble(meta=meta, configs=configs)
        plain = estimate(ens, lambda c: raw, method=EstimateMethod.PLAIN)
        binned = estimate(ens, lambda c: raw, method=EstimateMethod.BINNED)
        # repeating each point 16 times should inflate the true error ~4x
        assert binned.error / plain.error > 2.5

    def test_binned_on_iid_close_to_plain(self):
        ens = make_ensemble(n=4096, seed=5)
        obs = lambda c: c.mean(axis=1)  # noqa: E731
        plain = estimate(ens, obs, method=EstimateMethod.PLAIN)
        binned = estimate(ens, obs, method=EstimateMethod.BINNED)
        assert binned.error == pytest.approx(plain.error, rel=0.5)

    def test_default_method_by_sampler(self):
        assert default_method(Sampler.QUANTUM) is EstimateMethod.PLAIN
        assert default_method(Sampler.MCMC) is EstimateMethod.BINNED
        ens = make_ensemble(sampler=Sampler.QUANTUM)
        est = estimate(ens, lambda c: c.mean(axis=1))
        assert est.method is EstimateMethod.PLAIN

    def test_method_accepts_string(self):
        ens = make_ensemble()
        est = estimate(ens, lambda c: c.mean(axis=1), method="jackknife")
        assert est.method is EstimateMethod.JACKKNIFE

    def test_single_sample_error_is_nan(self):
        ens = make_ensemble(n=1)
        est = estimate(ens, lambda c: c.mean(axis=1), method="plain")
        assert math.isnan(est.error)

    def test_bad_observable_shape_rejected(self):
        ens = make_ensemble()
        with pytest.raises(ValueError):
            estimate(ens, lambda c: c)  # returns (n, n_links), not (n,)

"""Gauge-configuration ensembles: container, plain-text file format, and
statistical estimators.

File layout (version 1)::

    z2q-ensemble v1
    dims=2,2,2,2
    boundary=open
    beta=0.7
    sampler=mcmc
    seed=11
    n_configs=100
    n_links=32
    crc32=1a2b3c4d

    +1 -1 +1 ... (n_links values per line, one line per configuration)

The body is canonical: every link takes exactly 3 bytes, its sign (``+`` or
``-``), the digit ``1``, then a space, or a newline after the last link of a
line.  It is written and read as one (n_configs, n_links, 3) byte array, and a
body in any other layout is refused.  The checksum covers the body bytes
only, so editing a header value by hand does not invalidate the data, while
any corruption of the configurations is reported as a :class:`ChecksumError`
rather than silently skewing averages.
"""

from __future__ import annotations

import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lattice import Boundary

FORMAT_MAGIC = "z2q-ensemble v1"
_RESERVED_KEYS = ("dims", "boundary", "beta", "sampler", "seed", "n_configs", "n_links", "crc32")


class Sampler(Enum):
    QUANTUM = "quantum"
    MCMC = "mcmc"


class EstimateMethod(Enum):
    PLAIN = "plain"
    JACKKNIFE = "jackknife"
    BINNED = "binned"


class EnsembleFormatError(ValueError):
    """Base class for unreadable ensemble files."""


class HeaderError(EnsembleFormatError):
    """Missing magic line, missing key, or malformed header entry."""


class LengthMismatchError(EnsembleFormatError):
    """Body size disagrees with the n_configs/n_links header values."""


class ChecksumError(EnsembleFormatError):
    """Body bytes do not match the crc32 recorded in the header."""


@dataclass(frozen=True)
class EnsembleMeta:
    dims: tuple[int, ...]
    boundary: Boundary
    beta: float
    sampler: Sampler
    seed: int
    extra: dict[str, str] = field(default_factory=dict)


@dataclass
class Ensemble:
    """A batch of configurations, shape (n_configs, n_links), values +-1."""

    meta: EnsembleMeta
    configs: np.ndarray

    def __post_init__(self):
        configs = np.asarray(self.configs)
        if configs.ndim != 2:
            raise ValueError(f"configs must be 2D, got shape {configs.shape}")
        if configs.shape[0] < 1 or configs.shape[1] < 1:
            raise ValueError(f"configs must be at least 1 x 1, got shape {configs.shape}")
        # the range check comes first, so the cast cannot wrap (257 -> 1); in
        # [-1, 1] the cast then leaves only 0 to refuse.  No temporaries, and
        # an int8 array is kept without a copy.
        if not (configs.min() >= -1 and configs.max() <= 1):
            raise ValueError("configs must contain only +1 and -1")
        configs = configs.astype(np.int8, copy=False)
        if np.count_nonzero(configs) != configs.size:
            raise ValueError("configs must contain only +1 and -1")
        self.configs = configs

    @property
    def n_configs(self) -> int:
        return self.configs.shape[0]

    @property
    def n_links(self) -> int:
        return self.configs.shape[1]


# ----- file I/O -----


# Byte values of the canonical body; a link's sign byte is 44 - value.
_PLUS, _MINUS, _ONE, _SPACE, _NEWLINE = b"+-1 \n"


def save(ensemble: Ensemble, path) -> None:
    """Write atomically: a temp file in the target directory, then rename."""
    meta = ensemble.meta
    for key, value in meta.extra.items():
        if key in _RESERVED_KEYS:
            raise ValueError(f"extra key {key!r} collides with a reserved header key")
        line = f"{key}={value}"
        if "=" in key or line.splitlines() != [line]:
            raise ValueError(f"extra entry {key!r} is not representable in the header")
    body = np.empty((ensemble.n_configs, ensemble.n_links, 3), dtype=np.uint8)
    body[..., 0] = 44 - ensemble.configs
    body[..., 1] = _ONE
    body[..., 2] = _SPACE
    body[:, -1, 2] = _NEWLINE
    header = [
        FORMAT_MAGIC,
        f"dims={','.join(str(d) for d in meta.dims)}",
        f"boundary={meta.boundary.value}",
        f"beta={float(meta.beta)!r}",
        f"sampler={meta.sampler.value}",
        f"seed={meta.seed}",
        f"n_configs={ensemble.n_configs}",
        f"n_links={ensemble.n_links}",
    ]
    header.extend(f"{k}={v}" for k, v in sorted(meta.extra.items()))
    header.append(f"crc32={zlib.crc32(body) & 0xFFFFFFFF:08x}")
    head = ("\n".join(header) + "\n\n").encode("ascii")
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".z2q-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_header(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_MAGIC:
        raise HeaderError(f"missing magic line {FORMAT_MAGIC!r}")
    entries: dict[str, str] = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise HeaderError(f"malformed header line {ln!r}")
        key, value = ln.split("=", 1)
        if key in entries:
            raise HeaderError(f"duplicate header key {key!r}")
        entries[key] = value
    missing = [k for k in _RESERVED_KEYS if k not in entries]
    if missing:
        raise HeaderError(f"missing header keys: {', '.join(missing)}")
    return entries


def load(path) -> Ensemble:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise HeaderError("no blank line separating header from body")
    try:
        head_text = blob[:sep].decode("ascii")
    except UnicodeDecodeError as exc:
        raise HeaderError(f"header is not ASCII: {exc}") from None
    entries = _parse_header(head_text)
    from .classical import Coupling  # not at the top: classical imports this module

    try:
        dims = tuple(int(d) for d in entries["dims"].split(","))
        boundary = Boundary(entries["boundary"])
        beta = Coupling(float(entries["beta"])).beta
        sampler = Sampler(entries["sampler"])
        seed = int(entries["seed"])
        n_configs = int(entries["n_configs"])
        n_links = int(entries["n_links"])
        crc_expected = int(entries["crc32"], 16)
    except (ValueError, KeyError) as exc:
        raise HeaderError(f"invalid header value: {exc}") from None
    if n_configs < 1 or n_links < 1:
        raise HeaderError(f"n_configs={n_configs} and n_links={n_links} must both be positive")
    body = np.frombuffer(blob, dtype=np.uint8, offset=sep + 2)
    if body.size != n_configs * n_links * 3:
        raise LengthMismatchError(
            f"header says {n_configs} x {n_links} links (3 bytes each), body has {body.size} bytes"
        )
    body = body.reshape(n_configs, n_links, 3)
    signs = body[..., 0]
    if not (
        ((signs == _PLUS) | (signs == _MINUS)).all()
        and (body[..., 1] == _ONE).all()
        and (body[:, :-1, 2] == _SPACE).all()
        and (body[:, -1, 2] == _NEWLINE).all()
    ):
        raise EnsembleFormatError(
            "body is not canonical: each link must be '+1' or '-1' followed by one space,"
            " or by a newline after the last link of a line"
        )
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc_expected:
        raise ChecksumError("body checksum mismatch; the file is corrupted")
    extra = {k: v for k, v in entries.items() if k not in _RESERVED_KEYS}
    meta = EnsembleMeta(
        dims=dims, boundary=boundary, beta=beta, sampler=sampler, seed=seed, extra=extra
    )
    return Ensemble(meta=meta, configs=44 - signs.astype(np.int8))


# ----- estimators -----


@dataclass(frozen=True)
class Estimate:
    mean: float
    error: float
    n_samples: int
    method: EstimateMethod


def default_method(sampler: Sampler) -> EstimateMethod:
    """Plain errors for independent quantum shots, binned for Markov chains."""
    return EstimateMethod.PLAIN if sampler is Sampler.QUANTUM else EstimateMethod.BINNED


def _plain_error(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return math.nan
    return float(values.std(ddof=1) / math.sqrt(n))


def _binned_error(values: np.ndarray) -> float:
    """Bin the series, doubling the bin size until the error estimate moves by
    less than 10% or fewer than 8 bins remain; returns the last estimate."""
    n = values.size
    if n < 2:
        return math.nan
    prev = None
    bin_size = 1
    while n // bin_size >= 8:
        n_bins = n // bin_size
        means = values[: n_bins * bin_size].reshape(n_bins, bin_size).mean(axis=1)
        err = float(means.std(ddof=1) / math.sqrt(n_bins))
        if prev is not None and (prev == 0.0 or abs(err - prev) < 0.10 * prev):
            return err
        prev = err
        bin_size *= 2
    return prev if prev is not None else _plain_error(values)


def estimate(ensemble: Ensemble, observable, method=None) -> Estimate:
    """Mean and statistical error of a scalar observable over an ensemble.

    ``observable(configs)`` must return one value per configuration.  When
    ``method`` is None it is chosen from the sampler that produced the data.
    """
    if method is None:
        method = default_method(ensemble.meta.sampler)
    method = EstimateMethod(method)
    values = np.asarray(observable(ensemble.configs), dtype=np.float64)
    if values.shape != (ensemble.n_configs,):
        raise ValueError(
            f"observable returned shape {values.shape}, expected ({ensemble.n_configs},)"
        )
    if method is EstimateMethod.BINNED:
        err = _binned_error(values)
    else:  # the delete-1 jackknife error of a mean is s / sqrt(n) exactly
        err = _plain_error(values)
    return Estimate(
        mean=float(values.mean()), error=err, n_samples=ensemble.n_configs, method=method
    )

"""Size caps for enumeration and statevector paths.

The default cap bounds anything that materializes 2**N_free objects
(brute-force sums, statevectors, diagonals).  The environment variable
``Z2Q_MAX_FREE_LINKS`` overrides it; the dense-matrix, iterative
eigensolver and Markov-chain caps are fixed API preconditions.
"""

from __future__ import annotations

import os

ENV_VAR = "Z2Q_MAX_FREE_LINKS"

DEFAULT_MAX_FREE_LINKS = 24
DENSE_HAMILTONIAN_CAP = 12
EIGENSOLVER_CAP = 20
CHAIN_STATE_CAP = 64  # the Glauber chain records its states, and decode reads them, as uint64


class EnumerationCapError(RuntimeError):
    """Raised when a computation would enumerate more free links than allowed."""


def max_free_links() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_FREE_LINKS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ENV_VAR} must be positive, got {cap}")
    return cap


def check_free_links(n_free: int, context: str, cap: int | None = None) -> None:
    """Refuse n_free above ``cap``, by default the one ``ENV_VAR`` overrides."""
    hint = ""
    if cap is None:
        cap, hint = max_free_links(), f" (override with {ENV_VAR})"
    if n_free > cap:
        raise EnumerationCapError(f"{context}: N_free={n_free} exceeds cap {cap}{hint}")

"""The side and unary-map names and the enumeration cap.

chain re-exports all of them. They live here so that zchain and the CLI's
word verbs can use them without loading chain.
"""

from __future__ import annotations

import os

from .errors import SizeTooLarge

LEFT = "left"
RIGHT = "right"
ELL = "ell"
R = "r"
STAR = "star"

DEFAULT_MAX_SIZE = 7
_ENV_MAX_SIZE = "RESICHAIN_MAX_SIZE"


def enumeration_cap() -> int:
    raw = os.environ.get(_ENV_MAX_SIZE)
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_MAX_SIZE} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{_ENV_MAX_SIZE} must be positive")
    return cap


def check_cap(n: int, what: str = "size") -> None:
    """Refuse n above the enumeration cap with SizeTooLarge."""
    cap = enumeration_cap()
    if n > cap:
        raise SizeTooLarge(f"{what} {n} exceeds the enumeration cap {cap}")

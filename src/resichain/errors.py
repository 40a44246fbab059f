"""Exception types shared across the package."""

from __future__ import annotations

from ._record import Record


class ResichainError(Exception):
    """Base class for domain errors."""

    code = "Error"

    def payload(self) -> dict:
        """JSON-friendly rendering used by the CLI."""
        out = {"error": self.code}
        if str(self):
            out["witness"] = str(self)
        return out


class Violation(Record):
    """One violated table invariant plus a witness tuple."""

    __slots__ = ("code", "witness")

    def __init__(self, code: str, witness: tuple):
        super().__init__(code, witness)

    def as_dict(self) -> dict:
        return {"error": self.code, "witness": list(self.witness)}


class InvalidChainError(ResichainError):
    """Raised by chain.validate with the full list of violated invariants, and by
    restrict_to() on a set that is closed under the product but not a
    subuniverse."""

    code = "InvalidChain"

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.code} at {v.witness}" for v in self.violations))

    @property
    def codes(self):
        return tuple(v.code for v in self.violations)

    def payload(self) -> dict:
        return {"error": self.code, "violations": [v.as_dict() for v in self.violations]}


class MalformedInput(ResichainError):
    """Input data that is not JSON or not shaped like what it encodes."""

    code = "MalformedInput"


class SizeTooLarge(ResichainError):
    code = "SizeTooLarge"


class NotAdmissible(ResichainError):
    """A summand that must be admissible is not. Carries the summand index."""

    code = "NotAdmissible"

    def __init__(self, index, message=""):
        self.index = index
        super().__init__(message or f"summand {index} is not admissible")

    def payload(self) -> dict:
        return {"error": self.code, "witness": self.index}


class NotCommutative(ResichainError):
    code = "NotCommutative"


class NotIdempotent(ResichainError):
    code = "NotIdempotent"


class InvalidSpan(ResichainError):
    code = "InvalidSpan"


class ShapeMismatch(ResichainError):
    code = "ShapeMismatch"


class NotHSClosed(ResichainError):
    code = "NotHSClosed"


class StartIsUnit(ResichainError):
    code = "StartIsUnit"

"""Exception types shared across the package."""

from __future__ import annotations


class HurwitzDegenError(Exception):
    """Base class for all package errors."""


class DegreeMismatch(HurwitzDegenError):
    """Generators act on different numbers of points."""


class ClosureBoundExceeded(HurwitzDegenError):
    """Group closure grew past the configured element bound."""


class InvalidDatum(HurwitzDegenError):
    """Operation requires a boundary datum that validates cleanly."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.kind} at {v.location}: {v.detail}" for v in self.violations)
        super().__init__(f"datum does not validate: {lines}")


class NonIntegralGenus(HurwitzDegenError):
    """Riemann-Hurwitz bookkeeping produced a non-integral genus."""


class NegativeGenus(HurwitzDegenError):
    """Riemann-Hurwitz bookkeeping produced a negative genus."""


class SchemaError(HurwitzDegenError):
    """Input JSON does not match the documented schema."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")

"""Check records shared by the reduction pipeline, the verifier and the CLI."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named residual test against a tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }

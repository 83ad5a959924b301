"""Check records shared by the reduction pipeline, the verifier and the CLI,
and the one fold of residuals into a worst case."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


def max_residual(*residuals: float) -> float:
    """The largest of the residuals, 0.0 for none, and NaN when any is NaN.

    Every fold of residuals into a worst case goes through here: Python's
    max(a, b) returns a when b is NaN, so a fold over it would read a NaN
    residual as the previous worst and pass it, where a NaN here fails its
    Check."""
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals, default=0.0)


@dataclass(frozen=True)
class Check:
    """One named residual test against a tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def scaled(self, factor: float) -> "Check":
        """The same check with its tolerance multiplied by factor."""
        return replace(self, tolerance=self.tolerance * factor)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }

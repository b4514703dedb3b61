"""Small container for named residual checks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class IdentityReport:
    """Named max-abs residuals from a batch of identity checks.  A residual is
    a float, or one float per point when a check runs over a stack of points."""

    entries: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, residual) -> None:
        value = np.asarray(residual, dtype=float)
        self.entries[name] = float(value) if value.ndim == 0 else value

    def max_residual(self):
        """Largest residual, or for per-point residuals the largest of each point."""
        if not self.entries:
            return 0.0
        worst = np.max(np.stack(list(self.entries.values())), axis=0)
        return float(worst) if worst.ndim == 0 else worst

    def worst(self) -> tuple[str, float]:
        name = max(self.entries, key=self.entries.get)
        return name, self.entries[name]

    def passed(self, tol: float) -> bool:
        return self.max_residual() < tol

    def merged(self, other: "IdentityReport", prefix: str = "") -> "IdentityReport":
        out = IdentityReport(dict(self.entries))
        for k, v in other.entries.items():
            out.entries[prefix + k] = v
        return out

    def rows(self) -> list[tuple[str, float]]:
        return list(self.entries.items())

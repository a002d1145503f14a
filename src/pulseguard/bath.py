"""Dissipative environment with an exponentially decaying memory.

The bath is characterised by two rates: the system-bath coupling and the
memory cutoff.  Its two-time correlation is

    alpha(t, s) = (coupling * cutoff / 2) * exp(-cutoff * |t - s|),

an Ornstein-Uhlenbeck form whose memory time is 1/cutoff.  Sending the
cutoff to infinity at fixed coupling recovers the memoryless (Markov) limit
coupling * delta(t - s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BathSpec"]


@dataclass(frozen=True)
class BathSpec:
    coupling: float
    cutoff: float

    def __post_init__(self) -> None:
        if not (self.coupling >= 0.0 and np.isfinite(self.coupling)):
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if not (self.cutoff > 0.0 and np.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if not np.isfinite(self.weight):
            raise ValueError(f"weight coupling * cutoff / 2 must be finite, got {self.weight}")

    @property
    def weight(self) -> float:
        """Prefactor of the correlation, coupling * cutoff / 2."""
        return 0.5 * self.coupling * self.cutoff


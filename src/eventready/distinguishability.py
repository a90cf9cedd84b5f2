"""Partial temporal overlap of photon wavepackets via finite bins.

A photon's internal temporal state is a normalized amplitude vector over
a handful of bins.  Interference contrast between two photons is set by
the inner product of their bin vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class OverlapError(ValueError):
    pass


@dataclass(frozen=True)
class OverlapModel:
    """Gaussian coherence envelope plus a linear fringe phase.

    coherence_length_um is the 1/sqrt(e) half-width of the amplitude
    overlap; fringe_period_um sets the phase accumulated per micrometre
    of delay.
    """

    coherence_length_um: float = 200.0
    fringe_period_um: float = 0.788

    def __post_init__(self):
        if self.coherence_length_um <= 0:
            raise OverlapError("coherence length must be positive")
        if self.fringe_period_um <= 0:
            raise OverlapError("fringe period must be positive")


def overlap_from_delay(delta_um: float, model: OverlapModel | None = None) -> complex:
    """Complex wavepacket overlap v(delta) for a path-length mismatch.

    |v| = exp(-delta^2 / (2 l^2)) and arg v = 2 pi delta / fringe period,
    so |v(0)| = 1 and the magnitude falls monotonically with |delta|.
    Out of float range the limits are returned: 0 once the envelope
    underflows, exactly 1 at delta = 0.  A nonzero envelope with no finite
    phase raises OverlapError.
    """
    model = model or OverlapModel()
    l = model.coherence_length_um
    try:
        envelope = math.exp(-(delta_um**2) / (2.0 * l * l))
    except (OverflowError, ZeroDivisionError):
        # delta^2 overflows or 2 l^2 underflows; scaled first, the exponent is in range or -inf.
        x = delta_um / l
        envelope = math.exp(-0.5 * x * x)
    phase = 2.0 * math.pi * delta_um / model.fringe_period_um
    if math.isfinite(phase):
        return envelope * complex(math.cos(phase), math.sin(phase))
    if envelope == 0.0:
        return 0j
    raise OverlapError(f"no finite fringe phase for a {delta_um} um delay at a {model.fringe_period_um} um period")


def bins_for_reference_overlap(overlap: complex):
    """Two-bin wavepacket with the given amplitude overlap against bin 0.

    Photons built this way share bin 1 for their remainder, so any two of
    them with equal overlap are mutually indistinguishable.
    """
    v = complex(overlap)
    if abs(v) > 1.0 + 1e-12:
        raise OverlapError(f"overlap magnitude {abs(v)} exceeds 1")
    rem = math.sqrt(max(0.0, 1.0 - abs(v) ** 2))
    if rem == 0.0:
        return (v,)
    return (v, rem)

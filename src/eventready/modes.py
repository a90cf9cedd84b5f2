"""Optical mode bookkeeping: spatial label x polarization x temporal bin.

A mode registry fixes an ordered list of modes so that occupation vectors
and amplitude listings are reproducible run to run.  Ordering is
lexicographic by (spatial label, polarization, bin).
"""

from __future__ import annotations

from dataclasses import dataclass

H = "H"
V = "V"
POLARIZATIONS = (H, V)

MAX_MODES = 128


@dataclass(frozen=True, order=True)
class ModeId:
    """One bosonic mode: spatial path, polarization, temporal bin."""

    spatial: str
    pol: str
    bin: int

    def __post_init__(self):
        if self.pol not in POLARIZATIONS:
            raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {self.pol!r}")
        if self.bin < 0:
            raise ValueError(f"bin index must be >= 0, got {self.bin}")

    def __str__(self):
        return f"{self.spatial}:{self.pol}{self.bin}"


class ModeRegistry:
    """Ordered collection of modes shared by states and transforms.

    The registry owns the global configuration: which spatial labels exist,
    how many temporal bins each carries, and the total photon budget.
    """

    def __init__(self, spatial_labels, bins: int = 4, photon_budget: int = 4):
        labels = tuple(dict.fromkeys(spatial_labels))
        if len(labels) != len(tuple(spatial_labels)):
            raise ValueError("duplicate spatial labels in registry")
        if bins < 1:
            raise ValueError("registry needs at least one temporal bin")
        if photon_budget < 1:
            raise ValueError("photon budget must be positive")
        modes = sorted(
            ModeId(s, p, b) for s in labels for p in POLARIZATIONS for b in range(bins)
        )
        if len(modes) > MAX_MODES:
            raise ValueError(f"registry would hold {len(modes)} modes, cap is {MAX_MODES}")
        self.spatial_labels = tuple(sorted(labels))
        self.bins = bins
        self.photon_budget = photon_budget
        self.modes = tuple(modes)
        self._index = {m: i for i, m in enumerate(modes)}

    @property
    def size(self) -> int:
        return len(self.modes)

    def __eq__(self, other):
        return isinstance(other, ModeRegistry) and self.modes == other.modes

    def __hash__(self):
        return hash(self.modes)

    def __contains__(self, mode: ModeId) -> bool:
        return mode in self._index

    def index(self, mode: ModeId) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise KeyError(f"mode {mode} is not in the registry") from None

    def has_spatial(self, label: str) -> bool:
        return label in self.spatial_labels

    def require_spatial(self, label: str):
        if label not in self.spatial_labels:
            raise KeyError(f"unknown spatial label {label!r}")

    def group(self, spatial: str, pol: str | None = None):
        """All modes of one spatial label, optionally of one polarization only."""
        self.require_spatial(spatial)
        pols = POLARIZATIONS if pol is None else (pol,)
        return tuple(ModeId(spatial, p, b) for p in sorted(pols) for b in range(self.bins))

    def __repr__(self):
        return (
            f"ModeRegistry({len(self.spatial_labels)} labels x 2 pol x "
            f"{self.bins} bins = {self.size} modes, budget {self.photon_budget})"
        )

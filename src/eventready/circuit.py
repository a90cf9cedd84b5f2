"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .elements import ElementError, ElementSpec, compose, lower_element
from .fock import (
    UNITARY_TOL,
    ModeTransform,
    PhotonSpec,
    PureState,
    apply_mode_unitary,
    prepare_product_state,
    superpose,
)
from .modes import ModeRegistry


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class UnitarityReport:
    name: str
    max_deviation: float
    ok: bool

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        return f"{self.name or '(unnamed)'}: {status} (max |U+U - I| = {self.max_deviation:.3e})"


def check_unitarity(t: ModeTransform, tol: float = UNITARY_TOL) -> UnitarityReport:
    dev = t.unitarity_deviation()
    return UnitarityReport(t.name, dev, dev < tol)


@dataclass(frozen=True)
class SourceBranch:
    """One product-state branch of the input superposition."""

    amplitude: complex
    photons: tuple


@dataclass(frozen=True)
class Circuit:
    registry: ModeRegistry
    branches: tuple  # of SourceBranch
    steps: tuple  # of (label, ModeTransform)
    aliases: dict = field(default_factory=dict)

    def prepared_input(self) -> PureState:
        states = [
            prepare_product_state(self.registry, branch.photons)
            for branch in self.branches
        ]
        if len(states) == 1:
            return states[0]
        return superpose(states, [b.amplitude for b in self.branches])


def _photon_from_source(registry: ModeRegistry, src: dict) -> PhotonSpec:
    spatial = src["spatial"]
    if "pol_amps" in src:
        ph, pv = (complex(*c) if isinstance(c, (list, tuple)) else complex(c) for c in src["pol_amps"])
        pol = (ph, pv)
    else:
        pol = PhotonSpec.from_angle(spatial, float(src.get("pol_angle_deg", 45.0))).pol_amps
    if "bins" in src:
        bins = tuple(
            complex(*b) if isinstance(b, (list, tuple)) else complex(b) for b in src["bins"]
        )
    else:
        bins = bins_for_reference_overlap(complex(src.get("overlap", 1.0)))
    return PhotonSpec(spatial, pol, bins)


def compile_circuit(config) -> Circuit:
    """Lower a validated ExperimentConfig into a runnable circuit.

    Elements are lowered strictly in config order; every transform is
    checked for unitarity before it is accepted.
    """
    registry = ModeRegistry(
        config.spatial_labels,
        bins=config.bins,
        photon_budget=config.photon_budget,
    )
    model = OverlapModel(**config.model) if config.model else OverlapModel()

    seen_losses = set()
    specs = []
    for i, el in enumerate(config.elements):
        spec = ElementSpec(
            kind=el["kind"],
            ports=tuple(el.get("ports") or ([el["port"]] if "port" in el else [])),
            angle_deg=el.get("angle_deg"),
            phi=el.get("phi"),
            transmissivity=el.get("transmissivity"),
            delta_um=el.get("delta_um"),
            overlap=el.get("overlap"),
            pol=el.get("pol"),
            loss=el.get("loss"),
            bin_map={int(k): int(v) for k, v in el["bin_map"].items()} if el.get("bin_map") else None,
        )
        for port in spec.ports:
            if not registry.has_spatial(port):
                raise CircuitError(f"elements[{i}]: unbound spatial label {port!r}")
        if spec.kind == "polarizer":
            if spec.loss in seen_losses:
                raise CircuitError(f"elements[{i}]: duplicate loss label {spec.loss!r}")
            if spec.loss is not None and not registry.has_spatial(spec.loss):
                raise CircuitError(f"elements[{i}]: unbound loss label {spec.loss!r}")
            seen_losses.add(spec.loss)
        specs.append(spec)

    steps = []
    for i, spec in enumerate(specs):
        try:
            transforms = lower_element(spec, registry, model=model, convention=config.convention)
        except ElementError as exc:
            raise CircuitError(f"elements[{i}]: {exc}") from exc
        for t in transforms:
            report = check_unitarity(t)
            if not report.ok:
                raise CircuitError(f"elements[{i}]: non-unitary lowering: {report}")
            steps.append((t.name or spec.kind, t))

    branches = []
    for br in config.source_branches:
        photons = tuple(_photon_from_source(registry, s) for s in br["photons"])
        for p in photons:
            if p.spatial in seen_losses:
                raise CircuitError(
                    f"source photon on {p.spatial!r}: loss labels must start in vacuum"
                )
        amp = br.get("amplitude", 1.0)
        amp = complex(*amp) if isinstance(amp, (list, tuple)) else complex(amp)
        branches.append(SourceBranch(amp, photons))
    if not branches:
        raise CircuitError("config declares no source photons")

    return Circuit(
        registry=registry,
        branches=tuple(branches),
        steps=tuple(steps),
        aliases=dict(config.aliases),
    )


def run(circuit: Circuit, upto: int | None = None) -> PureState:
    """Prepare the sources and evolve them through the first `upto` steps.

    The steps are composed into one mode unitary, which is applied once;
    with no steps the prepared input is returned as is.
    """
    state = circuit.prepared_input()
    steps = circuit.steps if upto is None else circuit.steps[:upto]
    if not steps:
        return state
    return apply_mode_unitary(state, compose(t for _, t in steps))

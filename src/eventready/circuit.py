"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .elements import ElementError, _complex, compose, element_ports, lower_element
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

    def prepared_input(self) -> PureState:
        states = [
            prepare_product_state(self.registry, branch.photons)
            for branch in self.branches
        ]
        if len(states) == 1:
            return states[0]
        return superpose(states, [b.amplitude for b in self.branches])


def _photon_from_source(src: dict) -> PhotonSpec:
    spatial = src["spatial"]
    if "pol_amps" in src:
        pol = tuple(_complex(c) for c in src["pol_amps"])
    else:
        pol = PhotonSpec.from_angle(spatial, float(src.get("pol_angle_deg", 45.0))).pol_amps
    if "bins" in src:
        bins = tuple(_complex(b) for b in src["bins"])
    else:
        bins = bins_for_reference_overlap(_complex(src.get("overlap", 1.0)))
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
    model = OverlapModel(**config.model)

    seen_losses = set()
    steps = []
    for i, el in enumerate(config.elements):
        path = f"$.elements.{i}"
        for port in element_ports(el):
            if not registry.has_spatial(port):
                raise CircuitError(f"{path}: unbound spatial label {port!r}")
        loss = el.get("loss")
        if loss is not None:
            if loss in seen_losses:
                raise CircuitError(f"{path}.loss: duplicate loss label {loss!r}")
            if not registry.has_spatial(loss):
                raise CircuitError(f"{path}.loss: unbound loss label {loss!r}")
            seen_losses.add(loss)
        try:
            transforms = lower_element(el, registry, model=model, convention=config.convention)
        except ElementError as exc:
            raise CircuitError(f"{path}: {exc}") from exc
        for t in transforms:
            report = check_unitarity(t)
            if not report.ok:
                raise CircuitError(f"{path}: non-unitary lowering: {report}")
            steps.append((t.name or el["kind"], t))

    branches = []
    for b, br in enumerate(config.source_branches):
        photons = tuple(_photon_from_source(s) for s in br["photons"])
        for p, photon in enumerate(photons):
            if photon.spatial in seen_losses:
                raise CircuitError(
                    f"$.sources.branches.{b}.photons.{p}.spatial: "
                    f"loss label {photon.spatial!r} must start in vacuum"
                )
        branches.append(SourceBranch(_complex(br.get("amplitude", 1.0)), photons))
    if not branches:
        raise CircuitError("config declares no source photons")

    return Circuit(registry=registry, branches=tuple(branches), steps=tuple(steps))


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

"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.  A scan compiles once and
evolves its points together with `ScanCircuit`, which re-lowers only the
elements and re-reads only the source branches that the scan's paths
change, and checks their unitarity a block of points at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .elements import ELEMENT_KINDS, ElementError, _complex, compose, element_ports, lower_element, stack
from .fock import (
    UNITARY_TOL,
    GridState,
    ModeTransform,
    PhotonSpec,
    PureState,
    apply_mode_unitary,
    prepare_product_grid,
    prepare_product_state,
    superpose,
    unitarity_deviations,
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
    element_steps: tuple = ()  # (start, stop) into steps, per config element

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


def _lower(i: int, el: dict, registry, model, convention) -> list:
    """The (label, transform) steps of config element i, each checked for
    unitarity.  A scan lowers its points with _lowered and checks them a
    block at a time (ScanCircuit.require_unitary), with the same error."""
    steps = _lowered(i, el, registry, model, convention)
    for _, t in steps:
        _require_unitary(i, t)
    return steps


def _lowered(i: int, el: dict, registry, model, convention) -> list:
    """The (label, transform) steps of config element i, not yet checked for unitarity."""
    try:
        transforms = lower_element(el, registry, model=model, convention=convention)
    except ElementError as exc:
        raise CircuitError(f"$.elements.{i}: {exc}") from exc
    return [(t.name or el["kind"], t) for t in transforms]


def _require_unitary(i: int, t: ModeTransform):
    report = check_unitarity(t)
    if not report.ok:
        raise CircuitError(f"$.elements.{i}: non-unitary lowering: {report}")


def _source_branch(b: int, br: dict, losses) -> SourceBranch:
    photons = tuple(_photon_from_source(s) for s in br["photons"])
    for p, photon in enumerate(photons):
        if photon.spatial in losses:
            raise CircuitError(
                f"$.sources.branches.{b}.photons.{p}.spatial: "
                f"loss label {photon.spatial!r} must start in vacuum"
            )
    return SourceBranch(_complex(br.get("amplitude", 1.0)), photons)


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
    element_steps = []
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
        start = len(steps)
        steps.extend(_lower(i, el, registry, model, config.convention))
        element_steps.append((start, len(steps)))

    branches = tuple(
        _source_branch(b, br, seen_losses) for b, br in enumerate(config.source_branches)
    )
    if not branches:
        raise CircuitError("config declares no source photons")

    return Circuit(registry, branches, tuple(steps), tuple(element_steps))


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


class ScanCircuit:
    """A circuit compiled once for a scan, and the evolution of its points.

    A point is a validated config that differs from the compiled one only
    at the scan's leaves (lists of config keys), which fix what it changes:
    a leaf under `elements.I` re-lowers element I through lower_element, a
    `model` leaf each element whose kind `reads_model`, and one under
    `sources.branches.B` re-reads branch B.  A `bins` or `photon_budget`
    leaf changes the registry, so each point is compiled alone
    (`own_registry`) and changes nothing.
    `evolve` checks a block's lowered transforms with `require_unitary`,
    then runs the block as one GridState through `plan`, the element
    sequence with each run of the other elements composed once.  It
    applies the parts in turn: a fixed run as one transform, a re-lowered
    element as the stack of its points' transforms.
    """

    def __init__(self, circuit: Circuit, config, leaves):
        self.circuit = circuit
        self.own_registry = any(keys[0] in ("bins", "photon_budget") for keys in leaves)
        heads = set() if self.own_registry else {tuple(keys[:3]) for keys in leaves}
        elements = {head[1] for head in heads if head[0] == "elements"}
        # A scanned model is read at every point, a fixed one here.
        self.model = None if any(head[0] == "model" for head in heads) else OverlapModel(**config.model)
        if self.model is None:
            elements |= {i for i, el in enumerate(config.elements) if ELEMENT_KINDS[el["kind"]].reads_model}
        self.elements = tuple(sorted(elements))
        self.branches = tuple(sorted({head[2] for head in heads if head[:2] == ("sources", "branches")}))
        self.losses = {el["loss"] for el in config.elements if "loss" in el}
        self.inputs = [prepare_product_state(circuit.registry, b.photons) for b in circuit.branches]
        self.plan, fixed = [], []
        for i, (start, stop) in enumerate(circuit.element_steps):
            if i in self.elements:
                if fixed:
                    self.plan.append(compose(fixed))
                    fixed = []
                self.plan.append(i)
            else:
                fixed.extend(t for _, t in circuit.steps[start:stop])
        if fixed:
            self.plan.append(compose(fixed))

    def changes(self, config):
        """({element index: its (label, transform) steps}, {branch index:
        SourceBranch}) of what one point changes; the steps are not yet
        checked for unitarity."""
        model = self.model or OverlapModel(**config.model)
        elements = {
            i: _lowered(i, config.elements[i], self.circuit.registry, model, config.convention)
            for i in self.elements
        }
        branches = {b: _source_branch(b, config.source_branches[b], self.losses) for b in self.branches}
        return elements, branches

    def require_unitary(self, points):
        """Raise, as _lower would for that point alone, for the first of
        the block's points (their `changes`) that lowered a non-unitary
        transform."""
        lowered = [(i, t) for elements, _ in points for i, steps in elements.items() for _, t in steps]
        by_size: dict = {}
        for k, (_, t) in enumerate(lowered):
            by_size.setdefault(len(t.modes), []).append(k)
        failed = []
        for ks in by_size.values():
            deviations = unitarity_deviations(np.stack([lowered[k][1].matrix for k in ks]))
            failed += [k for k, deviation in zip(ks, deviations) if not deviation < UNITARY_TOL]
        for k in sorted(failed):
            _require_unitary(*lowered[k])

    def evolve(self, points) -> GridState:
        """The final states of a block of points, given their `changes`.

        The plan's parts are applied one at a time, so no stack is ever
        multiplied into a composite.
        """
        self.require_unitary(points)
        circuit, n = self.circuit, len(points)
        states, amplitudes = [], []
        for b, branch in enumerate(circuit.branches):
            if b in self.branches:
                per_point = [branches.get(b, branch) for _, branches in points]
                states.append(prepare_product_grid(circuit.registry, [br.photons for br in per_point]))
                amplitudes.append(np.array([br.amplitude for br in per_point]))
            else:
                states.append(GridState.broadcast(self.inputs[b], n))
                amplitudes.append(branch.amplitude)
        state = states[0] if len(states) == 1 else superpose(states, amplitudes)
        for part in self.plan:
            if isinstance(part, int):
                part = stack(_one_transform(elements.get(part) or self._steps(part)) for elements, _ in points)
            state = apply_mode_unitary(state, part)
        return state

    def _steps(self, i: int) -> tuple:
        """The compiled steps of element i."""
        start, stop = self.circuit.element_steps[i]
        return self.circuit.steps[start:stop]


def _one_transform(steps) -> ModeTransform:
    return steps[0][1] if len(steps) == 1 else compose(t for _, t in steps)

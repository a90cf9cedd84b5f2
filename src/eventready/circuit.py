"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.  A scan compiles once and
evolves its points together with `ScanCircuit`, which re-lowers only the
elements and re-reads only the source branches that the scan's paths
change, and checks their unitarity a block of points at a time.  Every
config element lowers to one transform, so a circuit has one step per
element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .elements import ELEMENT_KINDS, ElementError, _complex, compose, element_ports, lower_element, stack
from .fock import (
    NORM_TOL,
    UNITARY_TOL,
    FockError,
    GridState,
    ModeTransform,
    PhotonSpec,
    PureState,
    apply_mode_unitary,
    creator_columns,
    multiply_out,
    prepare_product_state,
    push_creators,
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
    steps: tuple  # of (label, ModeTransform), one per config element

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


def _lowered(i: int, el: dict, registry, model, convention) -> ModeTransform:
    """The transform of config element i, not yet checked for unitarity."""
    try:
        return lower_element(el, registry, model=model, convention=convention)
    except ElementError as exc:
        raise CircuitError(f"$.elements.{i}: {exc}") from exc


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

    Elements are lowered strictly in config order, each to one step;
    every transform is checked for unitarity before it is accepted.  A
    scan lowers its later points with _lowered and checks them a block at
    a time (ScanCircuit.require_unitary), with the same error.
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
        t = _lowered(i, el, registry, model, config.convention)
        _require_unitary(i, t)
        steps.append((t.name or el["kind"], t))

    branches = tuple(
        _source_branch(b, br, seen_losses) for b, br in enumerate(config.source_branches)
    )
    if not branches:
        raise CircuitError("config declares no source photons")

    return Circuit(registry, branches, tuple(steps))


def run(circuit: Circuit, upto: int | None = None) -> PureState:
    """Prepare the sources and evolve them through the first `upto` steps,
    one per config element.

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
    then evolves the source photons, not the prepared kets: each photon's
    creator is a column over the block's points, pushed through `plan`,
    the element sequence with each run of the other elements composed
    once.  A fixed run is one matrix product, a re-lowered element one
    product with the stack of its points' transforms.  The pushed creators
    are multiplied out once (fock.multiply_out).  A fixed branch's creator
    columns and input norm are computed here, once.
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
        self.columns = [creator_columns(circuit.registry, [b.photons]) for b in circuit.branches]
        self.norms = [_norm(circuit.registry, [(1.0, columns)], 1) for columns in self.columns]
        self.weights = None  # fixed, unless a branch is scanned
        if not self.branches:
            self.weights = self._weights([b.amplitude for b in circuit.branches], self.columns, self.norms, 1)
        self.plan, fixed = [], []
        for i, (_, t) in enumerate(circuit.steps):
            if i in self.elements:
                if fixed:
                    self.plan.append(compose(fixed))
                    fixed = []
                self.plan.append(i)
            else:
                fixed.append(t)
        if fixed:
            self.plan.append(compose(fixed))

    def changes(self, config):
        """({element index: its transform}, {branch index: SourceBranch})
        of what one point changes; the transforms are not yet checked for
        unitarity."""
        model = self.model or OverlapModel(**config.model)
        elements = {
            i: _lowered(i, config.elements[i], self.circuit.registry, model, config.convention)
            for i in self.elements
        }
        branches = {b: _source_branch(b, config.source_branches[b], self.losses) for b in self.branches}
        return elements, branches

    def require_unitary(self, points):
        """Raise, as compile_circuit would for that point alone, for the
        first of the block's points (their `changes`) that lowered a
        non-unitary transform."""
        lowered = [(i, t) for elements, _ in points for i, t in elements.items()]
        by_size: dict = {}
        for k, (_, t) in enumerate(lowered):
            by_size.setdefault(len(t.modes), []).append(k)
        failed = []
        for ks in by_size.values():
            deviations = unitarity_deviations(np.stack([lowered[k][1].matrix for k in ks]))
            failed += [k for k, deviation in zip(ks, deviations) if not deviation < UNITARY_TOL]
        for k in sorted(failed):
            _require_unitary(*lowered[k])

    def _weights(self, amplitudes, columns, norms, points) -> list:
        """Each branch's weight in the block's state: its amplitude over its
        input norm and over the norm of the superposed input, which is taken
        from the un-evolved products.  A lone branch's amplitude is a global
        phase and is dropped."""
        if len(columns) == 1:
            return [1.0 / norms[0]]
        weights = [a / norm for a, norm in zip(amplitudes, norms)]
        total = _norm(self.circuit.registry, list(zip(weights, columns)), points)
        return [w / total for w in weights]

    def evolve(self, points) -> GridState:
        """The final states of a block of points, given their `changes`.

        FockError is raised where the evolved norm drifts from 1 by more
        than NORM_TOL.
        """
        self.require_unitary(points)
        circuit, registry, n = self.circuit, self.circuit.registry, len(points)
        columns = self.columns
        if self.branches:
            columns, norms = list(self.columns), list(self.norms)
            amplitudes = [b.amplitude for b in circuit.branches]
            for b in self.branches:
                per_point = [branches.get(b, circuit.branches[b]) for _, branches in points]
                columns[b] = creator_columns(registry, [br.photons for br in per_point])
                amplitudes[b] = np.array([br.amplitude for br in per_point])
                norms[b] = _norm(registry, [(1.0, columns[b])], n)
            weights = self._weights(amplitudes, columns, norms, n)
        else:
            weights = self.weights
        width = max(c.shape[2] for c in columns)
        pushed = np.concatenate([np.broadcast_to(c, c.shape[:2] + (width,)) for c in columns], axis=1)
        for part in self.plan:
            if isinstance(part, int):
                part = stack(elements.get(part, circuit.steps[part][1]) for elements, _ in points)
            pushed = push_creators(registry, pushed, part)
        starts = np.cumsum([0] + [c.shape[1] for c in columns])
        state = multiply_out(registry, [(w, pushed[:, i:j]) for w, i, j in zip(weights, starts, starts[1:])], n)
        after = state.norm()
        drift = np.abs(after - 1.0)
        if drift.max() > NORM_TOL:
            k = int(drift.argmax())
            raise FockError(f"norm drifted 1.000000000000 -> {after[k]:.12f} under the scan's elements")
        return state


def _norm(registry, branches, points) -> np.ndarray:
    """The norm at each point of multiply_out(registry, branches, points);
    FockError where it is 0."""
    norm = multiply_out(registry, branches, points).norm()
    if not norm.all():
        raise FockError("cannot normalize the zero state")
    return norm

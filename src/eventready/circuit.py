"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.  A scan compiles once and
evolves its points together with `ScanCircuit`, which re-lowers only the
elements and re-reads only the source branches that the scan's paths
change, each element once per block of points, and checks their
unitarity a block at a time.  Every config element lowers to one
transform, so a circuit has one step per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .config import _with_leaves
from .elements import ELEMENT_KINDS, ElementError, _complex, compose, element_ports, lower_element
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
    scan lowers a block of points at once with _lowered and checks the
    block's stacks with the same error (ScanCircuit.require_unitary).
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

    A point differs from the compiled config only at the scan's leaves
    (lists of config keys), which take one value per point and fix what a
    block changes (`changes`): a leaf under `elements.I` re-lowers element
    I, a `model` leaf each element whose kind `reads_model`, each once per
    block with an array of values; a leaf under `sources.branches.B`
    re-reads branch B.  A `bins`, `photon_budget` or `bin_map` leaf moves
    modes, so each point is compiled alone (`per_point`).  `evolve` checks
    a block's stacks, then pushes each source photon's creator, a column
    over the points, through `plan`: each run of the other elements,
    composed once, and each re-lowered element's stack.  The pushed
    creators are multiplied out once (fock.multiply_out).  A fixed
    branch's creator columns and input norm are computed here, once.
    """

    def __init__(self, circuit: Circuit, config, leaves):
        self.circuit = circuit
        registry = any(keys[0] in ("bins", "photon_budget") for keys in leaves)
        self.per_point = registry or any(keys[2:3] == ["bin_map"] for keys in leaves)
        heads = set() if registry else {tuple(keys[:3]) for keys in leaves}
        elements = {head[1] for head in heads if head[0] == "elements"}
        # A scanned model is read at every point, a fixed one here.
        self.model = None if any(head[0] == "model" for head in heads) else OverlapModel(**config.model)
        if self.model is None:
            elements |= {i for i, el in enumerate(config.elements) if ELEMENT_KINDS[el["kind"]].reads_model}
        self.elements = tuple(sorted(elements))
        self.branches = tuple(sorted({head[2] for head in heads if head[:2] == ("sources", "branches")}))
        # A block's column: the raw elements, with an array of values at each element leaf.
        self.raw_elements = config.elements
        self.leaves = [] if self.per_point else [keys[1:] for keys in leaves if keys[0] == "elements"]
        self.convention = config.convention
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

    def changes(self, values, points):
        """({element index: its stack of transforms}, {branch index: its
        SourceBranch at each point}) of a block, given the leaves' values
        and, where a model or branch is scanned, the points' own configs;
        the stacks are not yet checked for unitarity."""
        column = _with_leaves(self.raw_elements, self.leaves, np.array(values, dtype=float))
        model = self.model or np.array([OverlapModel(**point.model) for point in points])
        registry = self.circuit.registry
        elements = {i: _as_stack(_lowered(i, column[i], registry, model, self.convention)) for i in self.elements}
        branches = {b: [_source_branch(b, p.source_branches[b], self.losses) for p in points] for b in self.branches}
        return elements, branches

    def lowered(self, config) -> list:
        """[(element index, transform)] of what one point (a config) re-lowers, lowered alone."""
        model, registry = self.model or OverlapModel(**config.model), self.circuit.registry
        return [(i, _lowered(i, config.elements[i], registry, model, config.convention)) for i in self.elements]

    def require_unitary(self, lowered):
        """Raise, as compile_circuit does, for the first (element index,
        transform or stack) of lowered that is not unitary."""
        for i, t in lowered:
            _require_unitary(i, t)

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

    def evolve(self, elements: dict, branches: dict, n: int) -> GridState:
        """The final states of a block of n points, given its `changes`.

        FockError is raised where the evolved norm drifts from 1 by more
        than NORM_TOL.
        """
        self.require_unitary(elements.items())
        circuit, registry = self.circuit, self.circuit.registry
        columns = self.columns
        if self.branches:
            columns, norms = list(self.columns), list(self.norms)
            amplitudes = [b.amplitude for b in circuit.branches]
            for b in self.branches:
                columns[b] = creator_columns(registry, [br.photons for br in branches[b]])
                amplitudes[b] = np.array([br.amplitude for br in branches[b]])
                norms[b] = _norm(registry, [(1.0, columns[b])], n)
            weights = self._weights(amplitudes, columns, norms, n)
        else:
            weights = self.weights
        width = max(c.shape[2] for c in columns)
        pushed = np.concatenate([np.broadcast_to(c, c.shape[:2] + (width,)) for c in columns], axis=1)
        for part in self.plan:
            if isinstance(part, int):
                part = elements[part]
            pushed = push_creators(registry, pushed, part)
        starts = np.cumsum([0] + [c.shape[1] for c in columns])
        state = multiply_out(registry, [(w, pushed[:, i:j]) for w, i, j in zip(weights, starts, starts[1:])], n)
        after = state.norm()
        drift = np.abs(after - 1.0)
        if drift.max() > NORM_TOL:
            k = int(drift.argmax())
            raise FockError(f"norm drifted 1.000000000000 -> {after[k]:.12f} under the scan's elements")
        return state


def _as_stack(t: ModeTransform) -> ModeTransform:
    """t as a stack (one matrix is a stack of one) over its modes in
    sorted order, as compose orders them, so each sum over modes in a
    push keeps its bits."""
    order = np.array(sorted(range(len(t.modes)), key=t.modes.__getitem__))
    matrix = t.matrix if t.matrix.ndim == 3 else t.matrix[None]
    matrix = np.ascontiguousarray(matrix[:, order[:, None], order])
    return ModeTransform(tuple(t.modes[j] for j in order), matrix, name=t.name)


def _norm(registry, branches, points) -> np.ndarray:
    """The norm at each point of multiply_out(registry, branches, points);
    FockError where it is 0."""
    norm = multiply_out(registry, branches, points).norm()
    if not norm.all():
        raise FockError("cannot normalize the zero state")
    return norm

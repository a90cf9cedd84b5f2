"""Assembly and execution of element sequences on prepared inputs.

Circuits are immutable after compilation; `run` is a pure function, so
scan points can be evaluated independently.  A scan compiles once and
evolves its points together with `ScanCircuit`, which re-lowers only the
elements and re-reads only the source branches that the scan's paths
change, each element once per block of points, and checks their
unitarity a block at a time.  Every config element lowers to one
transform, so a circuit has one step per element.  Its input is
prepared as a scan's points are (`_weights`, fock.multiply_out).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .distinguishability import OverlapModel, bins_for_reference_overlap
from .config import _with_leaves
from .elements import ELEMENT_KINDS, ElementError, _complex, compose, lower_element
from .fock import (
    NORM_TOL,
    PRUNE_TOL,
    UNITARY_TOL,
    FockError,
    GridState,
    ModeTransform,
    PhotonSpec,
    PureState,
    _check_photon,
    _one_point_state,
    apply_mode_unitary,
    creator_columns,
    live_creators,
    multiply_out,
    product_norm,
    push_creators,
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
        """The normalized input: every branch's creators, weighted, multiplied out at once."""
        for branch in self.branches:
            for photon in branch.photons:
                _check_photon(self.registry, photon)
        branches = [(b.amplitude, creator_columns(self.registry, b.photons)) for b in self.branches]
        weighted = [(w, live_creators(c)) for w, (_, c) in zip(_weights(branches), branches)]
        return _one_point_state(multiply_out(self.registry, weighted, 1))


def _photon_from_source(src: dict) -> PhotonSpec:
    """A raw photon's PhotonSpec, with arrays of amplitudes where a field holds an array over points."""
    spatial = src["spatial"]
    if "pol_amps" in src:
        pol = tuple(_complex(c) for c in src["pol_amps"])
    else:
        pol = _entries(lambda a: PhotonSpec.from_angle(spatial, float(a)).pol_amps, src.get("pol_angle_deg", 45.0))
    if "bins" in src:
        bins = tuple(_complex(b) for b in src["bins"])
    else:
        bins = _entries(bins_for_reference_overlap, _complex(src.get("overlap", 1.0)))
    return PhotonSpec(spatial, pol, bins)


def _entries(fn, value) -> tuple:
    """fn(value); for an array, the tuple of arrays of fn's entries, 0 past a shorter tuple's end."""
    if not isinstance(value, np.ndarray):
        return fn(value)
    return tuple(np.array(e) for e in itertools.zip_longest(*map(fn, value.tolist()), fillvalue=0.0))


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


def compile_circuit(config) -> Circuit:
    """Lower a validated ExperimentConfig into a runnable circuit.

    Elements are lowered strictly in config order, each to one step;
    every transform is checked for unitarity before it is accepted.  A
    scan lowers a block of points at once with _lowered and checks the
    block's stacks with the same error (ScanCircuit.evolve).  Labels,
    loss labels and sources were checked by validate_config_dict.
    """
    registry = ModeRegistry(
        config.spatial_labels,
        bins=config.bins,
        photon_budget=config.photon_budget,
    )
    model = OverlapModel(**config.model)
    steps = []
    for i, el in enumerate(config.elements):
        t = _lowered(i, el, registry, model, config.convention)
        _require_unitary(i, t)
        steps.append((t.name or el["kind"], t))
    branches = tuple(
        SourceBranch(_complex(br.get("amplitude", 1.0)), tuple(map(_photon_from_source, br["photons"])))
        for br in config.source_branches
    )
    return Circuit(registry, branches, tuple(steps))


def run(circuit: Circuit) -> PureState:
    """Prepare the sources and evolve them through the steps, one per
    config element.

    The steps are composed into one mode unitary, which is applied once;
    with no steps the prepared input is returned as is.
    """
    state = circuit.prepared_input()
    if not circuit.steps:
        return state
    return apply_mode_unitary(state, compose(t for _, t in circuit.steps))


class ScanCircuit:
    """A circuit compiled once for a scan, and the evolution of its points.

    A point differs from the compiled config only at the scan's leaves
    (lists of config keys), which take one value per point and fix what a
    block changes (`changes`): a leaf under `elements.I` re-lowers element
    I, a `model` leaf each element whose kind `reads_model`, each once per
    block with an array of values; a leaf under `sources.branches.B`
    rebuilds branch B's amplitude and creators the same way.  A `bins`,
    `photon_budget` or `bin_map` leaf moves modes, so each point is
    compiled alone (`per_point`).  `evolve` checks a block's stacks, trims
    the source photons' creators, columns over the points, to their live
    modes (fock.live_creators) and pushes them through `plan`: each run of
    the other elements, composed once, and each re-lowered element's
    stack.  It checks their norm (fock.product_norm)
    and multiplies them out once (fock.multiply_out), into the rows the
    block's heralds keep if given.  Fixed branches' creators are built here.
    `cells` counts a branch's creator columns at a point, live or not:
    the registry's modes times the photons, as many in every branch.
    """

    def __init__(self, circuit: Circuit, config, leaves):
        self.circuit = circuit
        self.cells = circuit.registry.size * len(circuit.branches[0].photons)
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
        # A block's column: the raw elements and branches, with an array of values at each leaf.
        self.raw = {"elements": config.elements, "sources": {"branches": config.source_branches}}
        self.leaves = [] if self.per_point else [keys for keys in leaves if keys[0] in self.raw]
        self.convention = config.convention
        # (amplitude, creator columns) of each branch no leaf changes, and the weights if none does.
        self.fixed = {b: (branch.amplitude, creator_columns(circuit.registry, branch.photons))
                      for b, branch in enumerate(circuit.branches) if b not in self.branches}
        self.weights = None if self.branches else _weights(list(self.fixed.values()))
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
        """({element index: its stack of transforms}, {branch index: (its
        amplitude, its creator columns) over the points}) of a block,
        given the leaves' values and, where a model is scanned, the
        points' own configs; the stacks are not yet checked for unitarity."""
        values = np.array(values, dtype=float)
        column = _with_leaves(self.raw, self.leaves, values)
        els, sources = column["elements"], column["sources"]["branches"]
        model = self.model or np.array([OverlapModel(**point.model) for point in points])
        registry = self.circuit.registry
        elements = {i: _as_stack(_lowered(i, els[i], registry, model, self.convention)) for i in self.elements}
        amplitudes = {b: np.full(len(values), _complex(sources[b].get("amplitude", 1.0))) for b in self.branches}
        photons = {b: [_photon_from_source(src) for src in sources[b]["photons"]] for b in self.branches}
        return elements, {b: (a, creator_columns(registry, photons[b], len(values))) for b, a in amplitudes.items()}

    def evolve(self, elements: dict, branches: dict, n: int, heralds=None) -> GridState:
        """The final states of a block of n points, given its `changes`;
        with heralds (herald_terms' requests), only the rows they keep.
        FockError is raised where the evolved norm drifts from 1 by more
        than NORM_TOL.
        """
        for i, stack in elements.items():
            _require_unitary(i, stack)
        registry = self.circuit.registry
        sources = [source for _, source in sorted({**self.fixed, **branches}.items())]
        weights, columns = self.weights or _weights(sources), [c for _, c in sources]
        width = max(c.shape[2] for c in columns)
        live, pushed = live_creators(np.concatenate([np.broadcast_to(c, c.shape[:2] + (width,)) for c in columns], axis=1))
        for part in self.plan:
            live, pushed = push_creators(registry, (live, pushed), elements[part] if isinstance(part, int) else part)
        starts = np.cumsum([0] + [c.shape[1] for c in columns])
        parts = [(w, pushed[:, i:j]) for w, i, j in zip(weights, starts, starts[1:])]
        after = product_norm(parts)
        drift = np.abs(after - 1.0)
        if drift.max() > NORM_TOL:
            k = int(drift.argmax())
            raise FockError(f"norm drifted 1.000000000000 -> {after[k]:.12f} under the scan's elements")
        return multiply_out(registry, [(w, (live, c)) for w, c in parts], n, heralds)


def _as_stack(t: ModeTransform) -> ModeTransform:
    """t as a stack (one matrix is a stack of one) over its modes in
    sorted order, as compose orders them, so each sum over modes in a
    push keeps its bits."""
    order = np.array(sorted(range(len(t.modes)), key=t.modes.__getitem__))
    matrix = t.matrix if t.matrix.ndim == 3 else t.matrix[None]
    matrix = np.ascontiguousarray(matrix[:, order[:, None], order])
    return ModeTransform(tuple(t.modes[j] for j in order), matrix, name=t.name)


def _weights(branches) -> list:
    """Each branch's weight in the normalized input, given its (amplitude,
    creator columns): its amplitude over its input norm and over the
    norm of the superposed input, each read off the columns
    (fock.product_norm).  A lone branch's amplitude is a global phase
    and is dropped."""
    norms = [_nonzero(product_norm([(1.0, c)])) for _, c in branches]
    if len(branches) == 1:
        return [1.0 / norms[0]]
    weights = [a / norm for (a, _), norm in zip(branches, norms)]
    total = _nonzero(product_norm([(w, c) for w, (_, c) in zip(weights, branches)]))
    return [w / total for w in weights]


def _nonzero(norm: np.ndarray) -> np.ndarray:
    """norm, an input's norm at each point; FockError where it is not above
    PRUNE_TOL, so that no term of the input survives multiply_out."""
    if not (norm > PRUNE_TOL).all():
        raise FockError("$.sources.branches: cannot normalize the zero state")
    return norm

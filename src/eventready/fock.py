"""Sparse Fock-state representation and exact linear-optical evolution.

States are stored as a sparse map from occupation vectors (one count per
registered mode) to complex amplitudes.  Occupation kets are normalized,
so a term with counts n is the creator monomial  prod_j (a_j^dag)^{n_j} / sqrt(n_j!)
acting on vacuum.  One primitive, _apply_creation, builds every state:
it applies a linear combination of creators to a sparse ket map.  Source
photons are prepared with it, and a mode unitary U evolves a ket by
mapping each creator a_j^dag to its column image sum_i U[i, j] a_i^dag,
which reproduces the permanent formula
<m|U|n> = per(U[m|n]) / sqrt(prod m_i! prod n_j!).

A scan evolves many points of one circuit at once.  _apply_creation
works for any amplitude type, so a GridState keeps one amplitude array
per occupation, one entry per scan point, and a creator whose
coefficients differ between points carries arrays too: the same code
evolves a single state with Python complex amplitudes and a grid with
1-D numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .modes import ModeId, ModeRegistry, H, V

PRUNE_TOL = 1e-14
NORM_TOL = 1e-10
INPUT_NORM_TOL = 1e-12
UNITARY_TOL = 1e-12

Occupation = tuple  # counts per registered mode, registry order


class FockError(ValueError):
    pass


@dataclass
class PureState:
    """Sparse pure state over a mode registry.

    terms maps occupation tuples to complex amplitudes; every stored
    occupation has the same total photon number.
    """

    registry: ModeRegistry
    terms: dict = field(default_factory=dict)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))

    def total_photons(self) -> int:
        if not self.terms:
            return 0
        counts = {sum(occ) for occ in self.terms}
        if len(counts) != 1:
            raise FockError(f"state mixes photon numbers {sorted(counts)}")
        return counts.pop()

    def pruned(self, tol: float = PRUNE_TOL) -> "PureState":
        return PureState(
            self.registry,
            {occ: a for occ, a in self.terms.items() if abs(a) > tol},
        )

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise FockError("cannot normalize the zero state")
        return PureState(self.registry, {o: a / n for o, a in self.terms.items()})

    def sorted_terms(self):
        """Deterministic (occupation, amplitude) listing, sorted by occupation."""
        return sorted(self.terms.items())

    def amplitude(self, occupation) -> complex:
        return self.terms.get(tuple(occupation), 0.0 + 0.0j)

    def dump_amplitudes(self) -> dict:
        """JSON-ready amplitude listing: occupation label -> [re, im]."""
        out = {}
        for occ, amp in self.sorted_terms():
            label = " ".join(
                f"{m}={n}" for m, n in zip(self.registry.modes, occ) if n
            ) or "vacuum"
            out[label] = [amp.real, amp.imag]
        return out

    def count_in(self, occ, modes) -> int:
        idx = self.registry.index
        return sum(occ[idx(m)] for m in modes)

    def __repr__(self):
        lines = [f"PureState({len(self.terms)} terms, norm {self.norm():.6f})"]
        for occ, amp in self.sorted_terms()[:12]:
            label = " ".join(
                f"{m}={n}" for m, n in zip(self.registry.modes, occ) if n
            ) or "vacuum"
            lines.append(f"  {amp:+.4f}  |{label}>")
        if len(self.terms) > 12:
            lines.append(f"  ... {len(self.terms) - 12} more")
        return "\n".join(lines)


def vacuum(registry: ModeRegistry) -> PureState:
    return PureState(registry, {tuple([0] * registry.size): 1.0 + 0.0j})


def basis_state(registry: ModeRegistry, counts: dict) -> PureState:
    """Single occupation ket from a {ModeId: count} mapping."""
    occ = [0] * registry.size
    for mode, n in counts.items():
        occ[registry.index(mode)] += int(n)
    return PureState(registry, {tuple(occ): 1.0 + 0.0j})


@dataclass(frozen=True)
class PhotonSpec:
    """One source photon: spatial label, polarization amplitudes, bin amplitudes.

    pol_amps is (H, V) ordered; bins is the temporal wavepacket amplitude
    vector, starting at bin 0.
    """

    spatial: str
    pol_amps: tuple
    bins: tuple

    @staticmethod
    def plus(spatial: str, bins=(1.0,)) -> "PhotonSpec":
        s = 1.0 / math.sqrt(2.0)
        return PhotonSpec(spatial, (s, s), tuple(bins))

    @staticmethod
    def from_angle(spatial: str, pol_angle_deg: float, bins=(1.0,)) -> "PhotonSpec":
        """Linear polarization at the given angle, measured from V toward H."""
        a = math.radians(pol_angle_deg)
        return PhotonSpec(spatial, (math.sin(a), math.cos(a)), tuple(bins))


def _creation_op_vector(registry: ModeRegistry, photon: PhotonSpec):
    """Single-photon creation operator as {mode index: coefficient}."""
    registry.require_spatial(photon.spatial)
    pol_norm = math.sqrt(sum(abs(a) ** 2 for a in photon.pol_amps))
    bin_norm = math.sqrt(sum(abs(a) ** 2 for a in photon.bins))
    if abs(pol_norm - 1.0) > INPUT_NORM_TOL:
        raise FockError(
            f"photon on {photon.spatial}: polarization amplitudes not normalized "
            f"(norm {pol_norm:.3e})"
        )
    if abs(bin_norm - 1.0) > INPUT_NORM_TOL:
        raise FockError(
            f"photon on {photon.spatial}: bin amplitudes not normalized "
            f"(norm {bin_norm:.3e})"
        )
    if len(photon.bins) > registry.bins:
        raise FockError(
            f"photon on {photon.spatial} uses {len(photon.bins)} bins, "
            f"registry has {registry.bins}"
        )
    op = {}
    for pol, pamp in zip((H, V), photon.pol_amps):
        for b, bamp in enumerate(photon.bins):
            c = complex(pamp) * complex(bamp)
            if c != 0:
                op[registry.index(ModeId(photon.spatial, pol, b))] = c
    return op


def _apply_creation(registry: ModeRegistry, state_terms: dict, op: dict) -> dict:
    """Apply one creation operator (linear combination) to normalized kets.

    Amplitudes and coefficients may be numbers or arrays over scan points.
    """
    out = {}
    for occ, amp in state_terms.items():
        for idx, coeff in op.items():
            n = occ[idx]
            new = list(occ)
            new[idx] = n + 1
            key = tuple(new)
            out[key] = out.get(key, 0.0j) + amp * coeff * math.sqrt(n + 1)
    return out


def prepare_product_state(registry: ModeRegistry, photons) -> PureState:
    """Normalized tensor product of single-photon wavepackets on vacuum.

    Photons sharing a mode pick up the bosonic sqrt(n!) enhancement before
    the final normalization.
    """
    photons = list(photons)
    _check_budget(registry, len(photons))
    terms = vacuum(registry).terms
    for photon in photons:
        terms = _apply_creation(registry, terms, _creation_op_vector(registry, photon))
    state = PureState(registry, terms).pruned()
    return state.normalized()


def _check_budget(registry: ModeRegistry, n_photons: int):
    if n_photons > registry.photon_budget:
        raise FockError(
            f"{n_photons} photons exceed the budget of {registry.photon_budget}"
        )


def prepare_product_grid(registry: ModeRegistry, photon_grid) -> "GridState":
    """prepare_product_state at every scan point at once.

    photon_grid holds, per point, the same number of photons.  The k-th
    photon's creator gets one coefficient array per mode, over the points.
    """
    photon_grid = [list(photons) for photons in photon_grid]
    _check_budget(registry, len(photon_grid[0]))
    ops = [[_creation_op_vector(registry, p) for p in photons] for photons in photon_grid]
    terms = vacuum(registry).terms
    for point_ops in zip(*ops):
        # Registry order is the order _creation_op_vector lists its modes in.
        modes = sorted(set().union(*point_ops))
        terms = _apply_creation(
            registry, terms, {i: np.array([op.get(i, 0j) for op in point_ops]) for i in modes}
        )
    return GridState(registry, terms, len(photon_grid)).pruned().normalized()


def superpose(states, amplitudes, normalize: bool = True) -> PureState:
    """Linear combination of pure states over one registry.

    GridStates combine point by point; an amplitude may then also be an
    array over the points.
    """
    states = list(states)
    if not states:
        raise FockError("superpose needs at least one state")
    registry = states[0].registry
    photon_counts = set()
    terms = {}
    for st, amp in zip(states, amplitudes):
        if st.registry != registry:
            raise FockError("superpose: registry mismatch")
        photon_counts.add(st.total_photons())
        c = amp if isinstance(amp, np.ndarray) else complex(amp)
        for occ, a in st.terms.items():
            terms[occ] = terms.get(occ, 0.0j) + c * a
    if len(photon_counts) > 1:
        raise FockError(f"superpose mixes photon numbers {sorted(photon_counts)}")
    out = replace(states[0], terms=terms).pruned()
    return out.normalized() if normalize else out


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over a shared registry."""
    if a.registry != b.registry:
        raise FockError("inner_product: registry mismatch")
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    acc = 0.0j
    for occ, amp in small.terms.items():
        other = big.terms.get(occ)
        if other is not None:
            if small is a:
                acc += amp.conjugate() * other
            else:
                acc += other.conjugate() * amp
    return acc


@dataclass(frozen=True)
class ModeTransform:
    """Unitary matrix over an ordered subset of registry modes.

    A scan's transform may hold a stack of matrices, shape (points, n, n),
    one per scan point.
    """

    modes: tuple
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = len(self.modes)
        if m.ndim not in (2, 3) or m.shape[-2:] != (n, n):
            raise FockError(
                f"transform {self.name or '(unnamed)'}: matrix shape {m.shape} "
                f"does not match {n} modes"
            )
        object.__setattr__(self, "matrix", m)

    def unitarity_deviation(self) -> float:
        """max |U+U - I|, over every point of a stack."""
        return float(unitarity_deviations(self.matrix).max())


def unitarity_deviations(matrix: np.ndarray) -> np.ndarray:
    """max |U+U - I| of a matrix, or of each matrix of a stack."""
    adjoint = np.conjugate(matrix.swapaxes(-1, -2), order="C")
    return np.abs(adjoint @ matrix - np.eye(matrix.shape[-1])).max(axis=(-2, -1))


def _column_images(matrix: np.ndarray, idxs) -> list:
    """Per local creator j, its image {registry index: U[i, j]}; for a
    stack of matrices each U[i, j] is an array over the points."""
    if matrix.ndim == 2:
        return [
            {idxs[i]: c for i, c in enumerate(column) if c != 0}
            for column in matrix.T.tolist()
        ]
    columns = np.ascontiguousarray(np.moveaxis(matrix, 0, -1).swapaxes(0, 1))
    nonzero = columns.any(axis=2)
    return [
        {idxs[i]: columns[j, i] for i in np.flatnonzero(nonzero[j])}
        for j in range(len(idxs))
    ]


def apply_mode_unitary(state, t: ModeTransform):
    """Exact evolution of a sparse state under a mode unitary.

    Each ket is a creator monomial.  Its counts n_j on t.modes are zeroed
    to give a template ket, its amplitude is divided by prod sqrt(n_j!),
    and the column image {registry index: U[i, j]} of each local creator
    is applied n_j times with _apply_creation.  Modes outside t.modes are
    untouched; the output norm equals the input norm.

    state is a PureState, or a GridState evolved point by point under a
    single matrix or a stack with one matrix per point; unitarity, norm
    drift and pruning are then checked at every point.
    """
    registry = state.registry
    deviation = t.unitarity_deviation()
    if deviation > UNITARY_TOL:
        raise FockError(
            f"transform {t.name or '(unnamed)'} is not unitary "
            f"(deviation {deviation:.3e})"
        )
    idxs = [registry.index(m) for m in t.modes]
    images = _column_images(t.matrix, idxs)

    out_terms = {}
    for occ, amp in state.terms.items():
        template = list(occ)
        for i in idxs:
            if occ[i]:
                template[i] = 0
                amp = amp / math.sqrt(math.factorial(occ[i]))
        terms = {tuple(template): amp}
        for i, image in zip(idxs, images):
            for _ in range(occ[i]):
                terms = _apply_creation(registry, terms, image)
        for key, a in terms.items():
            out_terms[key] = out_terms.get(key, 0.0j) + a
    out = replace(state, terms=out_terms).pruned()
    before, after = np.atleast_1d(state.norm()), np.atleast_1d(out.norm())
    drift = np.abs(after - before)
    if drift.max() > NORM_TOL:
        k = int(drift.argmax())
        raise FockError(
            f"norm drifted {before[k]:.12f} -> {after[k]:.12f} "
            f"under {t.name or '(unnamed)'}"
        )
    return out


@dataclass
class GridState:
    """One PureState per scan point, over a shared registry.

    terms maps an occupation to a 1-D complex array with its amplitude at
    each of the `points` points; an amplitude of exactly 0 means the term
    is absent at that point.
    """

    registry: ModeRegistry
    terms: dict
    points: int

    total_photons = PureState.total_photons

    @staticmethod
    def broadcast(state: PureState, points: int) -> "GridState":
        """The same state at every point."""
        return GridState(
            state.registry, {occ: np.full(points, a) for occ, a in state.terms.items()}, points
        )

    def norm(self) -> np.ndarray:
        total = np.zeros(self.points)
        for a in self.terms.values():
            total = total + abs(a) ** 2
        return np.sqrt(total)

    def pruned(self, tol: float = PRUNE_TOL) -> "GridState":
        """PureState.pruned at every point: amplitudes within tol become 0."""
        terms = {}
        for occ, a in self.terms.items():
            a = np.where(abs(a) > tol, a, 0j)
            if a.any():
                terms[occ] = a
        return GridState(self.registry, terms, self.points)

    def normalized(self) -> "GridState":
        n = self.norm()
        if not n.all():
            raise FockError("cannot normalize the zero state")
        return GridState(self.registry, {o: a / n for o, a in self.terms.items()}, self.points)

    def states(self) -> list:
        """The PureState at each point, with Python complex amplitudes."""
        per_point = [{} for _ in range(self.points)]
        for occ, a in self.terms.items():
            for terms, amp in zip(per_point, a.tolist()):
                if amp:
                    terms[occ] = amp
        return [PureState(self.registry, terms) for terms in per_point]


POL_BASIS = ("HH", "HV", "VH", "VV")


def partial_trace_to_polarization(state: PureState, kept_spatial) -> np.ndarray:
    """4x4 two-qubit polarization density matrix for a kept pair of arms.

    Every term must hold exactly one photon in each kept arm and vacuum
    everywhere else; the temporal-bin index of each kept photon is traced
    out.  Basis order is (HH, HV, VH, VV), first arm then second.
    """
    registry = state.registry
    arm_a, arm_b = kept_spatial
    amp_map = {}  # (pol_a, bin_a, pol_b, bin_b) -> amplitude
    idx_of = registry.index
    kept_idx = {
        idx_of(m): m for arm in (arm_a, arm_b) for m in registry.group(arm)
    }
    for occ, amp in state.terms.items():
        found = {}
        for i, n in enumerate(occ):
            if n == 0:
                continue
            mode = kept_idx.get(i)
            if mode is None:
                raise FockError(
                    f"non-vacuum residual mode {registry.modes[i]} in kept-pair state"
                )
            if n > 1:
                raise FockError(f"non-qubit support: {n} photons in {mode}")
            if mode.spatial in found:
                raise FockError(
                    f"non-qubit support: two photons in arm {mode.spatial}"
                )
            found[mode.spatial] = mode
        if set(found) != {arm_a, arm_b}:
            raise FockError(
                f"non-qubit support: arms {sorted(found)} occupied, "
                f"expected one photon in each of {arm_a}, {arm_b}"
            )
        ma, mb = found[arm_a], found[arm_b]
        amp_map[(ma.pol, ma.bin, mb.pol, mb.bin)] = amp
    norm = math.sqrt(sum(abs(a) ** 2 for a in amp_map.values()))
    if norm == 0:
        raise FockError("kept-pair state is empty")
    rho = np.zeros((4, 4), dtype=complex)
    pol_index = {"HH": 0, "HV": 1, "VH": 2, "VV": 3}
    items = list(amp_map.items())
    for (pa, ba, pb, bb), amp in items:
        row = pol_index[pa + pb]
        for (qa, ca, qb, cb), amp2 in items:
            if ba == ca and bb == cb:
                col = pol_index[qa + qb]
                rho[row, col] += (amp / norm) * (amp2 / norm).conjugate()
    return rho

"""Sparse Fock-state representation and exact linear-optical evolution.

States are stored as a sparse map from occupation vectors (one count per
registered mode) to complex amplitudes.  Occupation kets are normalized,
so a term with counts n is the creator monomial  prod_j (a_j^dag)^{n_j} / sqrt(n_j!)
acting on vacuum.  A mode unitary U maps each creator a_j^dag to its
column image sum_i U[i, j] a_i^dag, which reproduces the permanent formula
<m|U|n> = per(U[m|n]) / sqrt(prod m_i! prod n_j!).  Two constructions
build states on this rule:

- _apply_creation applies a linear combination of creators to a sparse
  ket map.  prepare_product_state builds a single state with it, and
  apply_mode_unitary evolves any state by re-expanding every ket.
- A scan evolves many points of one circuit at once, and its inputs are
  products of one-photon creators.  Each photon's creator is a dense
  (modes, points) column (creator_columns), which push_creators carries
  through a mode unitary, or a stack with one unitary per point, as one
  matrix product.  multiply_out then expands the product of the pushed
  creators once, into a GridState: one amplitude array per occupation,
  one entry per scan point.  prepare_product_grid is its case with no
  unitary.  This is the creation form of Heurtel et al., "Strong
  simulation of linear optical processes", CPC 291, 108848 (2023).
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

    photon_grid holds, per point, the same number of photons.
    """
    photon_grid = [list(photons) for photons in photon_grid]
    columns = creator_columns(registry, photon_grid)
    return multiply_out(registry, [(1.0, columns)], len(photon_grid)).normalized()


def creator_columns(registry: ModeRegistry, photon_grid) -> np.ndarray:
    """Each photon's creator at every point, as the columns of an array
    (modes, photons, points); photon_grid holds, per point, the same
    number of photons, at most the registry's budget."""
    _check_budget(registry, max(len(photons) for photons in photon_grid))
    ops = [[_creation_op_vector(registry, p) for p in photons] for photons in photon_grid]
    columns = np.zeros((registry.size, len(ops[0]), len(ops)), dtype=complex)
    for k, point_ops in enumerate(ops):
        for p, op in enumerate(point_ops):
            columns[list(op), p, k] = list(op.values())
    return columns


def push_creators(registry: ModeRegistry, columns: np.ndarray, t: "ModeTransform") -> np.ndarray:
    """Creator columns (modes, photons, width) after the mode unitary t:
    their rows on t.modes are multiplied by t's matrix in one product, or
    at each point by that point's matrix of a stack.  Width 1 means the
    same column at every point, and stays so under a single matrix."""
    idxs = np.array([registry.index(m) for m in t.modes])
    rows = columns[idxs]
    if t.matrix.ndim == 2:
        image = (t.matrix @ rows.reshape(len(idxs), -1)).reshape(rows.shape)
    else:
        image = (t.matrix @ rows.transpose(2, 0, 1)).transpose(1, 2, 0)
    pushed = np.array(np.broadcast_to(columns, columns.shape[:2] + image.shape[2:]))
    pushed[idxs] = image
    return pushed


def multiply_out(registry: ModeRegistry, branches, points: int) -> "GridState":
    """sum_b w_b prod_k (sum_i C_b[i, k] a_i^dag) |vacuum> at every point,
    pruned at PRUNE_TOL.

    branches holds (w_b, C_b): a weight, a number or an array over the
    points, and the branch's creator columns (modes, photons, width), of
    width `points`, or 1 if the same at every point.  The product is taken
    photon by photon, with each partial product keyed by its sorted tuple
    of mode indices and equal keys summed, so its size stays within
    terms x support x points.  Since (a^dag)^n |vacuum> = sqrt(n!) |n>,
    each occupation then gets the factor sqrt(prod_j n_j!).
    """
    keys, amplitudes = [], []
    for weight, columns in branches:
        k, c = _creator_product(columns)
        keys.append(k)
        amplitudes.append(np.broadcast_to(c, (len(c), points)) * np.reshape(weight, (1, -1)))
    photon_counts = sorted({k.shape[1] for k in keys})
    if len(photon_counts) > 1:
        raise FockError(f"superpose mixes photon numbers {photon_counts}")
    if len(keys) > 1:
        keys, amplitudes = _summed(np.concatenate(keys), np.concatenate(amplitudes))
    else:
        keys, amplitudes = keys[0], amplitudes[0]
    # A run of r equal modes in a sorted key contributes 1 * 2 * ... * r = r!.
    run, factor = np.ones(len(keys)), np.ones(len(keys))
    for left, right in zip(keys.T, keys.T[1:]):
        run = np.where(left == right, run + 1.0, 1.0)
        factor *= run
    amplitudes *= np.sqrt(factor)[:, None]
    amplitudes[~(abs(amplitudes) > PRUNE_TOL)] = 0
    kept = amplitudes.any(axis=1)
    keys, amplitudes = keys[kept], amplitudes[kept]
    occupations = np.zeros((len(keys), registry.size), dtype=np.uint8)
    for column in keys.T:
        occupations[np.arange(len(keys)), column] += 1
    # A row of counts as bytes iterates to the ints of its occupation tuple.
    rows, size = occupations.tobytes(), registry.size
    terms = {tuple(rows[i : i + size]): a for i, a in zip(range(0, len(rows), size), amplitudes)}
    return GridState(registry, terms, points)


def _creator_product(columns):
    """(keys, coefficients) of the product of the creator columns: one
    row per distinct sorted tuple of mode indices, in lexicographic
    order, with its coefficient at each point."""
    keys = np.zeros((1, 0), dtype=np.intp)
    coefficients = np.ones((1, 1), dtype=complex)
    for column in columns.transpose(1, 0, 2):
        support = np.flatnonzero(column.any(axis=1))
        keys = np.concatenate([np.repeat(keys, len(support), axis=0), np.tile(support, len(keys))[:, None]], axis=1)
        keys.sort(axis=1)
        # Passed on, not kept, so the unsorted products are freed once sorted.
        keys, coefficients = _summed(keys, (coefficients[:, None, :] * column[support][None]).reshape(len(keys), -1))
    return keys, coefficients


def _summed(keys, coefficients):
    """The distinct rows of keys in lexicographic order, each with the sum
    of its rows' coefficients."""
    order = np.lexsort(keys.T[::-1])
    keys, coefficients = keys[order], coefficients[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(coefficients, starts, axis=0)


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
        amplitudes = np.array(list(self.terms.values())).reshape(-1, self.points)
        return np.sqrt((abs(amplitudes) ** 2).sum(axis=0))

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


POL_BASIS = ("HH", "HV", "VH", "VV")


def partial_trace_to_polarization(state: PureState, kept_spatial) -> np.ndarray:
    """4x4 two-qubit polarization density matrix for a kept pair of arms.

    Every term must hold exactly one photon in each kept arm and vacuum
    everywhere else; the temporal-bin index of each kept photon is traced
    out.  Basis order is (HH, HV, VH, VV), first arm then second.
    """
    terms = (((), occ, amp) for occ, amp in state.terms.items())
    norm_sq, rho, bad = kept_pair_pass(state.registry, terms, kept_spatial)
    if bad:
        raise FockError(bad[0][1])
    if not norm_sq:
        raise FockError("kept-pair state is empty")
    return rho


def kept_pair_pass(registry: ModeRegistry, terms, kept_spatial):
    """(p, rho, bad) of (pattern, occupation, amplitude) terms, whose read
    modes are emptied and counted in pattern, in one pass.

    p sums |amplitude|^2.  A term with one photon in each kept arm and
    vacuum elsewhere adds its amplitude to the (HH, HV, VH, VV) vector v of
    its pattern and kept bins; rho = sum v v+ / p (0 where p is).  Every
    other term is in bad as (pattern, why, amplitude).  Amplitudes may be
    arrays over scan points, and p and rho then are too.
    """
    kept_idx = {registry.index(m): m for arm in kept_spatial for m in registry.group(arm)}
    p, vectors, bad = 0.0, {}, []
    for pattern, occ, amp in terms:
        p = p + abs(amp) ** 2
        try:
            ma, mb = _kept_pair(registry, occ, kept_idx, kept_spatial)
        except FockError as exc:
            bad.append((pattern, str(exc), amp))
            continue
        v = vectors.setdefault((pattern, ma.bin, mb.bin), np.zeros((4, *np.shape(amp)), dtype=complex))
        v[POL_BASIS.index(ma.pol + mb.pol)] += amp
    v = np.array(list(vectors.values())).reshape(len(vectors), 4, *np.shape(p))
    rho = np.einsum("ki...,kj...->...ij", v, v.conj())
    return p, rho / np.where(p > 0, p, 1.0)[..., None, None], bad


def _kept_pair(registry: ModeRegistry, occ, kept_idx: dict, kept_spatial):
    """The modes of occ's photons in the two kept arms, first arm first;
    FockError unless those are its only photons, one per arm."""
    arm_a, arm_b = kept_spatial
    found = {}
    for i, n in enumerate(occ):
        if n == 0:
            continue
        mode = kept_idx.get(i)
        if mode is None:
            raise FockError(f"non-vacuum residual mode {registry.modes[i]} in kept-pair state")
        if n > 1:
            raise FockError(f"non-qubit support: {n} photons in {mode}")
        if mode.spatial in found:
            raise FockError(f"non-qubit support: two photons in arm {mode.spatial}")
        found[mode.spatial] = mode
    if set(found) != {arm_a, arm_b}:
        raise FockError(
            f"non-qubit support: arms {sorted(found)} occupied, "
            f"expected one photon in each of {arm_a}, {arm_b}"
        )
    return found[arm_a], found[arm_b]

"""Sparse Fock-state representation and exact linear-optical evolution.

States are stored as a sparse map from occupation vectors (one count per
registered mode) to complex amplitudes.  Occupation kets are normalized,
so a term with counts n is the creator monomial  prod_j (a_j^dag)^{n_j} / sqrt(n_j!)
acting on vacuum.  A mode unitary U maps each creator a_j^dag to its
column image sum_i U[i, j] a_i^dag, which reproduces the permanent formula
<m|U|n> = per(U[m|n]) / sqrt(prod m_i! prod n_j!).

Every state is built by one construction, the creation form of Heurtel
et al., "Strong simulation of linear optical processes", CPC 291, 108848
(2023).  A state is a weighted sum of branches, each a product of
one-photon creators.  Each creator is a dense (modes, points) column
(creator_columns), which push_creators carries through a mode unitary,
or a stack with one unitary per point, as one matrix product.
multiply_out then expands every branch's product of pushed creators in
one pass (_creator_product) into a GridState: a (terms, modes) occupation
matrix and a (terms, points) amplitude matrix, of only the rows heralds
keep if given; product_norm reads its norm off the columns.
prepare_product_state multiplies out one branch of photons' columns, and
circuit.Circuit.prepared_input every branch of a circuit's input at once;
apply_mode_unitary takes each ket of a PureState as a branch of its unit
creators; a scan (circuit.ScanCircuit) evolves many points at once.

A herald keeps a term by one rule, herald_rule: bounds on its photon
count in sets of modes.  multiply_out's pruning reads the rule on a
product's mode indices, analysis.herald_terms on a GridState's
occupations.  Heralds and traces read a GridState's matrices
(herald_terms, kept_pair_pass); a PureState is read as a one-point grid
(one_point_grid), whose |amplitude|^2 numpy squares as a block's.  Every
sum over terms is taken in row order (ordered_sum), so a one-point grid
sums its terms in their PureState order.
"""

from __future__ import annotations

import itertools
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

    def _label(self, occ) -> str:
        return " ".join(f"{m}={n}" for m, n in zip(self.registry.modes, occ) if n) or "vacuum"

    def dump_amplitudes(self) -> dict:
        """JSON-ready amplitude listing: occupation label -> [re, im]."""
        return {self._label(occ): [amp.real, amp.imag] for occ, amp in self.sorted_terms()}

    def count_in(self, occ, modes) -> int:
        idx = self.registry.index
        return sum(occ[idx(m)] for m in modes)

    def __repr__(self):
        lines = [f"PureState({len(self.terms)} terms, norm {self.norm():.6f})"]
        for occ, amp in self.sorted_terms()[:12]:
            lines.append(f"  {amp:+.4f}  |{self._label(occ)}>")
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


def _check_photon(registry: ModeRegistry, photon: PhotonSpec):
    """FockError unless photon fits registry: normalized polarization and
    bin amplitudes over no more bins than it has (KeyError for an
    unregistered label)."""
    registry.require_spatial(photon.spatial)
    for what, amplitudes in (("polarization", photon.pol_amps), ("bin", photon.bins)):
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes))
        if abs(norm - 1.0) > INPUT_NORM_TOL:
            raise FockError(f"photon on {photon.spatial}: {what} amplitudes not normalized (norm {norm:.3e})")
    if len(photon.bins) > registry.bins:
        raise FockError(f"photon on {photon.spatial} uses {len(photon.bins)} bins, registry has {registry.bins}")


def prepare_product_state(registry: ModeRegistry, photons) -> PureState:
    """Normalized tensor product of single-photon wavepackets on vacuum:
    the photons' creator columns multiplied out, then normalized.

    Photons sharing a mode pick up the bosonic sqrt(n!) enhancement before
    the final normalization.
    """
    photons = list(photons)
    for photon in photons:
        _check_photon(registry, photon)
    return _one_point_state(multiply_out(registry, [(1.0, creator_columns(registry, photons))], 1)).normalized()


def _at_points(fn, *fields):
    """fn(*fields); or, where a field is a NumPy array over a scan's points
    (a list is a config value), the array of fn at each point, each in
    Python arithmetic, as that point alone computes it."""
    if not any(isinstance(f, np.ndarray) for f in fields):
        return fn(*fields)
    columns = [f.tolist() if isinstance(f, np.ndarray) else itertools.repeat(f) for f in fields]
    return np.array([fn(*values) for values in zip(*columns)])


def creator_columns(registry: ModeRegistry, photons, points: int = 1) -> np.ndarray:
    """The photons' creators as the columns of an array (modes, photons, points); an amplitude
    may be an array over the points, each entry then formed at each point in Python arithmetic."""
    columns = np.zeros((registry.size, len(photons), points), dtype=complex)
    for p, photon in enumerate(photons):
        for (pol, pamp), (b, bamp) in itertools.product(zip((H, V), photon.pol_amps), enumerate(photon.bins)):
            c = _at_points(lambda x, y: complex(x) * complex(y), pamp, bamp)
            columns[registry.index(ModeId(photon.spatial, pol, b)), p] = c
    columns[columns == 0] = 0  # a zero product, of either sign, is no entry
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


def multiply_out(registry: ModeRegistry, branches, points: int, heralds=None) -> "GridState":
    """sum_b w_b prod_k (sum_i C_b[i, k] a_i^dag) |vacuum> at every point,
    pruned at PRUNE_TOL.

    branches holds (w_b, C_b): a weight, a number or an array over the
    points, and the branch's creator columns (modes, photons, width), of
    width `points`, or 1 if the same at every point, and each of the same
    number of photons, at most the registry's budget.  _creator_product
    expands every branch's product at once; each branch's rows, times its
    weight, are then summed key by key in branch order.  Since
    (a^dag)^n |vacuum> = sqrt(n!) |n>, each occupation then gets the
    factor sqrt(prod_j n_j!).  Given heralds (analysis.herald_terms'
    requests), the state holds only the rows one keeps, with their bits.
    """
    photon_counts = sorted({columns.shape[1] for _, columns in branches})
    if len(photon_counts) > 1:
        raise FockError(f"superpose mixes photon numbers {photon_counts}")
    if photon_counts[0] > registry.photon_budget:
        raise FockError(f"{photon_counts[0]} photons exceed the budget of {registry.photon_budget}")
    width = max(columns.shape[2] for _, columns in branches)
    weights = np.empty((len(branches), points), dtype=complex)
    columns = np.empty((len(branches), registry.size, photon_counts[0], width), dtype=complex)
    for b, (weight, branch_columns) in enumerate(branches):
        weights[b], columns[b] = weight, branch_columns
    branch, keys, coefficients = _creator_product(columns, heralds and herald_rule(registry, heralds))
    amplitudes = np.broadcast_to(coefficients, (len(keys), points)) * weights[branch]
    if len(branches) > 1:
        keys, amplitudes = _summed(keys, amplitudes)
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
    return GridState(registry, occupations, amplitudes)


def _creator_product(columns, rule=None):
    """(branch, keys, coefficients) of the product of each branch's
    creator columns, columns[b] (modes, photons, width): one row per
    branch and distinct sorted tuple of mode indices, ordered by branch,
    then lexicographically, with its coefficient at each point.

    At each photon a row expands over the modes its branch's column
    holds, in ascending order, and rows equal in branch and key are
    summed in order; with a herald_rule, only the rows it keeps, or may
    keep once the photons still to come are added, each summing the same
    products in the same order.
    """
    photons = columns.shape[2]
    rows = np.arange(len(columns))[:, None]  # a row's branch, then its mode indices
    coefficients = np.ones((len(columns), 1), dtype=complex)
    for p in range(photons):
        column = columns[:, :, p]
        parent, mode = np.nonzero(column.any(axis=2)[rows[:, 0]])
        rows = np.concatenate([rows[parent], mode[:, None]], axis=1)
        products = coefficients[parent] * column[rows[:, 0], mode]
        if rule:
            members, keeps = rule
            kept = keeps(members[:, rows[:, 1:]].sum(axis=2), final=p == photons - 1)
            rows, products = rows[kept], products[kept]
        rows[:, 1:].sort(axis=1)
        rows, coefficients = _summed(rows, products)
    return rows[:, 0], rows[:, 1:], coefficients


def herald_rule(registry: ModeRegistry, heralds):
    """(members, keeps): the rule by which herald requests [(requirements,
    read)] (analysis.herald_terms') keep a term.

    A herald bounds the photon count in sets of modes, one row of members
    (0 or 1 over the registry's modes) each: every group of requirements
    holds its count, its read modes outside the groups hold none, and its
    read modes, the groups' included, hold some.  keeps(counts) says
    whether some herald keeps each column of counts, the members' counts
    of a term; keeps(counts, final=False), whether it may once photons
    are added.
    """
    bounds, starts = [], []  # (mode indices, least, most) of each herald in turn
    for requirements, read in heralds:
        groups = [({registry.index(m) for m in modes}, n) for modes, n in requirements.values()]
        grouped = set().union(*(idxs for idxs, _ in groups))
        read = grouped.union(map(registry.index, read))
        starts.append(len(bounds))
        bounds += [(idxs, n, n) for idxs, n in groups] + [(read - grouped, 0, 0), (read, 1, np.iinfo(np.intp).max)]
    members = np.zeros((len(bounds), registry.size), dtype=np.intp)
    for row, (idxs, _, _) in zip(members, bounds):
        row[list(idxs)] = 1
    least, most = (np.array(column)[:, None] for column in list(zip(*bounds))[1:])

    def keeps(counts, final=True):
        fits = (counts <= most) & (counts >= least if final else True)
        return np.logical_and.reduceat(fits, starts, axis=0).any(axis=0)

    return members, keeps


def product_norm(branches) -> np.ndarray:
    """The norm at each point of multiply_out(registry, branches, points),
    from the columns alone: <vacuum| prod_k a(c_k) prod_l a^dag(d_l) |vacuum>
    is perm [<c_k, d_l>] (Scheel, quant-ph/0406127), summed over pairs of
    branches with weights conj(w_b) w_b'."""
    b, n = len(branches), branches[0][1].shape[1]
    weights = np.array(np.broadcast_arrays(*(w for w, _ in branches))).reshape(b, 1, -1)
    columns = np.concatenate(np.broadcast_arrays(*(c for _, c in branches)), axis=1).transpose(2, 1, 0)
    gram = (columns.conj() @ columns.transpose(0, 2, 1)).reshape(-1, b, n, b, n).transpose(1, 3, 0, 2, 4)
    permanents = gram[..., np.arange(n), list(itertools.permutations(range(n)))].prod(axis=-1).sum(axis=-1)
    return np.sqrt(np.real((weights.conj() * weights.transpose(1, 0, 2) * permanents).sum(axis=(0, 1))))


def _summed(keys, coefficients):
    """The distinct rows of keys in lexicographic order, each with the sum
    of its rows' coefficients."""
    order, keys, new = _runs(keys)
    starts = np.flatnonzero(new)
    return keys[starts], np.add.reduceat(coefficients[order], starts, axis=0)


def _runs(keys):
    """(order, keys[order], new): the stable lexicographic order of the
    rows of keys, and which rows of keys[order] start a run of equal rows."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return order, keys, new


def distinct_rows(matrix):
    """(distinct, inverse): the distinct rows of matrix in lexicographic
    order, and the index of each row of matrix among them."""
    order, ordered, new = _runs(matrix)
    inverse = np.empty(len(matrix), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def ordered_sum(values):
    """values summed over their first axis, one row after another.

    numpy's .sum adds pairwise along a contiguous axis, as it does for a
    one-point grid, which can change the last bit against a loop over a
    PureState's terms.
    """
    return np.cumsum(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


def superpose(states, amplitudes, normalize: bool = True) -> PureState:
    """Linear combination of pure states over one registry."""
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
        c = complex(amp)
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
        adjoint = np.conjugate(self.matrix.swapaxes(-1, -2), order="C")
        return float(np.abs(adjoint @ self.matrix - np.eye(len(self.modes))).max())


def apply_mode_unitary(state: PureState, t: ModeTransform) -> PureState:
    """Exact evolution of a sparse state under a mode unitary.

    Each ket, prod_j (a_j^dag)^{n_j} / sqrt(n_j!) |vacuum>, is one branch
    of multiply_out: its unit creators pushed through t (push_creators),
    weighted by its amplitude over sqrt(prod_j n_j!).  Modes outside
    t.modes are untouched; the output norm equals the input norm.  A
    state that mixes photon numbers is refused, as superpose refuses it.
    t holds one matrix; a scan evolves a stack with ScanCircuit.evolve.
    """
    registry = state.registry
    deviation = t.unitarity_deviation()
    if deviation > UNITARY_TOL:
        raise FockError(
            f"transform {t.name or '(unnamed)'} is not unitary "
            f"(deviation {deviation:.3e})"
        )
    out = replace(state, terms={})
    if state.terms:
        counts = np.array(list(state.terms), dtype=np.intp).reshape(-1, registry.size)
        modes = np.repeat(np.tile(np.arange(registry.size), len(counts)), counts.ravel())
        units = np.zeros((registry.size, len(modes), 1), dtype=complex)
        units[modes, np.arange(len(modes)), 0] = 1.0
        pushed = push_creators(registry, units, t)
        starts = np.cumsum([0, *counts.sum(axis=1)])
        branches = [
            (amp / math.sqrt(math.prod(map(math.factorial, occ))), pushed[:, i:j])
            for (occ, amp), i, j in zip(state.terms.items(), starts, starts[1:])
        ]
        out = _one_point_state(multiply_out(registry, branches, 1))
    before, after = state.norm(), out.norm()
    if abs(after - before) > NORM_TOL:
        raise FockError(
            f"norm drifted {before:.12f} -> {after:.12f} "
            f"under {t.name or '(unnamed)'}"
        )
    return out


@dataclass(eq=False)
class GridState:
    """One pure state per scan point, over a shared registry, as matrices.

    occupations is a (terms, modes) uint8 matrix: each row holds one
    term's photon count in every registered mode, in registry order.
    amplitudes is a (terms, points) complex matrix: the same row holds
    that term's amplitude at each point, exactly 0 where the term is
    absent.  multiply_out's rows come in the lexicographic order of their
    sorted tuples of mode indices, with no two rows equal; one_point_grid
    keeps a PureState's term order.  probabilities holds |amplitudes|^2, computed
    once for every reader.
    """

    registry: ModeRegistry
    occupations: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray = None

    def __post_init__(self):
        if self.probabilities is None:
            self.probabilities = abs(self.amplitudes) ** 2

    @property
    def points(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> np.ndarray:
        return np.sqrt(self.probabilities.sum(axis=0))


def one_point_grid(state: PureState) -> GridState:
    """state as a one-point GridState, its terms in their dict order, for a
    reader that takes a PureState; its probabilities are squared as a scan
    block's are."""
    occupations = np.array(list(state.terms), dtype=np.uint8).reshape(len(state.terms), state.registry.size)
    amplitudes = np.array(list(state.terms.values()), dtype=complex).reshape(-1, 1)
    return GridState(state.registry, occupations, amplitudes)


def _one_point_state(grid: GridState) -> PureState:
    """The PureState of a one-point GridState, its terms in row order."""
    terms = zip(map(tuple, grid.occupations.tolist()), grid.amplitudes[:, 0].tolist())
    return PureState(grid.registry, dict(terms))


def partial_trace_to_polarization(state: PureState, kept_spatial) -> np.ndarray:
    """4x4 two-qubit polarization density matrix for a kept pair of arms.

    Every term must hold exactly one photon in each kept arm and vacuum
    everywhere else; the temporal-bin index of each kept photon is traced
    out.  Basis order is (HH, HV, VH, VV), first arm then second.
    """
    grid = one_point_grid(state)
    norm_sq, rho, bad = kept_pair_pass(grid, kept_spatial)
    if bad.any():
        raise FockError(kept_pair_violation(grid, bad, kept_spatial))
    if not norm_sq[0]:
        raise FockError("kept-pair state is empty")
    return rho[0]


def kept_pair_pass(state: GridState, kept_spatial, patterns=None):
    """(p, rho, bad) of a GridState whose read modes are emptied; row t's
    counts on them are patterns[t] (None: nothing was read).

    p sums |amplitude|^2 over the rows, at each point.  A row with one
    photon in each kept arm and vacuum elsewhere adds its amplitudes to the
    (HH, HV, VH, VV) vector v of its pattern and kept bins; rho = sum v v+
    / p at each point (0 where p is).  bad marks every other row, and
    kept_pair_violation words why.  Rows are added in order and the
    vectors kept in order of first appearance, so a one-point grid adds
    its PureState's terms in their order.
    """
    registry, occupations = state.registry, state.occupations
    if patterns is None:
        patterns = np.zeros((len(occupations), 0), dtype=np.uint8)
    arms = _arm_slices(registry, kept_spatial)
    outside = np.ones(registry.size, dtype=bool)
    for arm in arms:
        outside[arm] = False
    good = ~occupations[:, outside].any(axis=1)
    places = []
    for arm in arms:
        good &= occupations[:, arm].sum(axis=1) == 1
        places.append(occupations[:, arm].argmax(axis=1))
    rows = np.flatnonzero(good)
    # A kept photon's place in its arm is its polarization (H, V) times the bins, plus its bin.
    pols, bins = zip(*(np.divmod(place[rows], registry.bins) for place in places))
    order, _, new = _runs(np.column_stack([patterns[rows], *bins]))
    first = order[new]  # the stable sort keeps each vector's first row first
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    vector = np.empty(len(rows), dtype=np.intp)
    vector[order] = rank[np.cumsum(new) - 1]
    v = np.zeros((len(first), 4, state.points), dtype=complex)
    np.add.at(v, (vector, 2 * pols[0] + pols[1]), state.amplitudes[rows])
    p = ordered_sum(state.probabilities)
    rho = np.einsum("ki...,kj...->...ij", v, v.conj()) / np.where(p > 0, p, 1.0)[:, None, None]
    # einsum lays the points out fastest; matmul rounds a strided matrix
    # differently, so each point's rho is made contiguous.
    return p, np.ascontiguousarray(rho), ~good


def _arm_slices(registry: ModeRegistry, kept_spatial) -> list:
    """The registry's slice of each kept arm's modes, which the registry
    orders by (label, polarization, bin): H bins, then V bins."""
    for arm in kept_spatial:
        registry.require_spatial(arm)
    return [slice(i, i + 2 * registry.bins) for i in (registry.index(ModeId(arm, H, 0)) for arm in kept_spatial)]


def kept_pair_violation(state: GridState, bad, kept_spatial, patterns=None) -> str:
    """Why the first row that bad marks is off the kept pair: its first photon, in registry order, outside
    the arms or past one in an arm, or else the arms it leaves empty.  Rows are ordered by pattern, then
    by occupation, as PureState.sorted_terms orders terms, whatever their order in state."""
    rows = np.flatnonzero(bad)
    keys = state.occupations[rows] if patterns is None else np.column_stack([patterns[rows], state.occupations[rows]])
    occ = state.occupations[rows[np.lexsort(keys.T[::-1])[0]]].tolist()
    registry = state.registry
    kept = {i for arm in _arm_slices(registry, kept_spatial) for i in range(arm.start, arm.stop)}
    found = []
    for i in np.flatnonzero(occ).tolist():
        mode, n = registry.modes[i], occ[i]
        if i not in kept:
            return f"non-vacuum residual mode {mode} in kept-pair state"
        if n > 1:
            return f"non-qubit support: {n} photons in {mode}"
        if mode.spatial in found:
            return f"non-qubit support: two photons in arm {mode.spatial}"
        found.append(mode.spatial)
    return f"non-qubit support: arms {sorted(found)} occupied, expected one photon in each of {', '.join(kept_spatial)}"

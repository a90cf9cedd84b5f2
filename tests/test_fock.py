import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventready import (
    FockError,
    ModeId,
    ModeRegistry,
    ModeTransform,
    PhotonSpec,
    apply_mode_unitary,
    basis_state,
    compose,
    inner_product,
    partial_trace_to_polarization,
    prepare_product_state,
    superpose,
)
from eventready.circuit import Circuit, ScanCircuit, SourceBranch
from eventready.analysis import HeraldError, heralded_polarization_dm, herald_terms, outcome_distribution
from eventready.fock import (
    GridState,
    PureState,
    creator_columns,
    kept_pair_pass,
    multiply_out,
    push_creators,
)
from eventready.modes import H
from eventready.presets import _herald_request, _observables

from oracles import (
    embed_transform,
    evolve_occupation_via_permanent,
    evolve_state_via_creators,
    evolve_state_via_permanent,
    prepare_photons_via_permanent,
    random_unitary,
)


def single_bin_registry(labels, budget=4):
    return ModeRegistry(labels, bins=1, photon_budget=budget)


def _vectors(reg, photons) -> list:
    """Each photon's creator as a coefficient vector over reg's modes."""
    vectors = []
    for p in photons:
        vec = np.zeros(reg.size, dtype=complex)
        for pol, pa in zip(("H", "V"), p.pol_amps):
            for b, ba in enumerate(p.bins):
                vec[reg.index(ModeId(p.spatial, pol, b))] = pa * ba
        vectors.append(vec)
    return vectors


def _prepared(reg, photons) -> dict:
    """The photons' normalized product state, by the permanent route."""
    return {o: a for o, a in prepare_photons_via_permanent(_vectors(reg, photons), reg.size).items() if abs(a) > 1e-14}


def _references(reg, t, terms) -> list:
    """terms evolved under t by the creator and the permanent references,
    each without its terms of modulus 1e-14 or less."""
    u = embed_transform(reg.size, [reg.index(m) for m in t.modes], t.matrix)
    return [
        {o: a for o, a in evolve(u, terms).items() if abs(a) > 1e-14}
        for evolve in (evolve_state_via_creators, evolve_state_via_permanent)
    ]


class TestPrepareProductState:
    def test_single_photon_identity(self):
        reg = single_bin_registry(["A1"])
        st = prepare_product_state(reg, [PhotonSpec("A1", (1.0, 0.0), (1.0,))])
        occ = tuple(1 if m == ModeId("A1", "H", 0) else 0 for m in reg.modes)
        assert st.terms.keys() == {occ}
        assert st.terms[occ] == pytest.approx(1.0)
        assert st.norm() == pytest.approx(1.0)

    def test_four_plus_photons_give_sixteen_terms(self):
        reg = single_bin_registry(["A1", "A2", "B1", "B2"])
        st = prepare_product_state(
            reg, [PhotonSpec.plus(s) for s in ("A1", "A2", "B1", "B2")]
        )
        assert len(st.terms) == 16
        for amp in st.terms.values():
            assert amp == pytest.approx(0.25)

    def test_two_photons_same_mode_normalize_away_sqrt2(self):
        # a+ a+ |0> = sqrt(2) |2>; after normalization the ket has amplitude 1.
        reg = single_bin_registry(["A1"])
        photon = PhotonSpec("A1", (1.0, 0.0), (1.0,))
        st = prepare_product_state(reg, [photon, photon])
        occ = tuple(2 if m == ModeId("A1", "H", 0) else 0 for m in reg.modes)
        assert st.terms.keys() == {occ}
        assert st.terms[occ] == pytest.approx(1.0)

    def test_matches_permanent_preparation_oracle(self):
        reg = ModeRegistry(["A1", "A2"], bins=2)
        photons = [
            PhotonSpec("A1", (0.6, 0.8), (1.0,)),
            PhotonSpec.plus("A2", bins=(0.8, 0.6)),
            PhotonSpec("A1", (0.0, 1.0), (0.6, 0.8)),
        ]
        st = prepare_product_state(reg, photons)
        expected = prepare_photons_via_permanent(_vectors(reg, photons), reg.size)
        assert set(st.terms) == set(expected)
        for occ, amp in expected.items():
            assert st.terms[occ] == pytest.approx(amp, abs=1e-12)

    def test_unnormalized_pol_rejected(self):
        reg = single_bin_registry(["A1"])
        with pytest.raises(FockError, match="not normalized"):
            prepare_product_state(reg, [PhotonSpec("A1", (1.0, 1.0), (1.0,))])

    def test_unknown_spatial_label_rejected(self):
        reg = single_bin_registry(["A1"])
        with pytest.raises(KeyError, match="Z9"):
            prepare_product_state(reg, [PhotonSpec("Z9", (1.0, 0.0), (1.0,))])

    def test_photon_budget_enforced(self):
        reg = ModeRegistry(["A1"], bins=1, photon_budget=2)
        photon = PhotonSpec("A1", (1.0, 0.0), (1.0,))
        with pytest.raises(FockError, match="budget"):
            prepare_product_state(reg, [photon] * 3)


class TestApplyModeUnitary:
    def test_identity_leaves_state_alone(self):
        reg = single_bin_registry(["A1", "A2"])
        st = prepare_product_state(reg, [PhotonSpec.plus("A1"), PhotonSpec.plus("A2")])
        ident = ModeTransform(reg.modes, np.eye(reg.size))
        out = apply_mode_unitary(st, ident)
        assert out.terms.keys() == st.terms.keys()
        for occ, amp in st.terms.items():
            assert out.terms[occ] == pytest.approx(amp)

    def test_hom_bunching_on_symmetric_splitter(self):
        reg = single_bin_registry(["a", "b"])
        st = prepare_product_state(
            reg,
            [PhotonSpec("a", (1.0, 0.0), (1.0,)), PhotonSpec("b", (1.0, 0.0), (1.0,))],
        )
        h = ModeId("a", "H", 0)
        h2 = ModeId("b", "H", 0)
        m = np.eye(reg.size, dtype=complex)
        i, j = reg.index(h), reg.index(h2)
        s = 1 / math.sqrt(2)
        m[i, i], m[i, j], m[j, i], m[j, j] = s, s, s, -s
        out = apply_mode_unitary(st, ModeTransform(reg.modes, m))
        # |1,1> -> (|2,0> - |0,2>)/sqrt(2) under this splitter sign choice.
        two_a = basis_state(reg, {h: 2})
        two_b = basis_state(reg, {h2: 2})
        assert out.amplitude(next(iter(two_a.terms))) == pytest.approx(s)
        assert out.amplitude(next(iter(two_b.terms))) == pytest.approx(-s)
        coincidence = basis_state(reg, {h: 1, h2: 1})
        assert out.amplitude(next(iter(coincidence.terms))) == pytest.approx(0.0, abs=1e-14)

    def test_norm_preserved_for_random_unitaries(self):
        rng = np.random.default_rng(7)
        reg = ModeRegistry(["a", "b"], bins=2)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            occ = [0] * reg.size
            for _ in range(n):
                occ[int(rng.integers(reg.size))] += 1
            st = basis_state(reg, {m: c for m, c in zip(reg.modes, occ) if c})
            u = random_unitary(reg.size, rng)
            out = apply_mode_unitary(st, ModeTransform(reg.modes, u))
            assert abs(out.norm() - 1.0) < 1e-10
            assert out.total_photons() == n

    def test_composition_matches_product(self):
        rng = np.random.default_rng(11)
        reg = ModeRegistry(["a"], bins=2)
        st = prepare_product_state(
            reg, [PhotonSpec.plus("a", bins=(0.6, 0.8)), PhotonSpec.plus("a")]
        )
        u1 = random_unitary(reg.size, rng)
        u2 = random_unitary(reg.size, rng)
        seq = apply_mode_unitary(
            apply_mode_unitary(st, ModeTransform(reg.modes, u1)),
            ModeTransform(reg.modes, u2),
        )
        combined = apply_mode_unitary(st, ModeTransform(reg.modes, u2 @ u1))
        for occ in set(seq.terms) | set(combined.terms):
            assert seq.amplitude(occ) == pytest.approx(combined.amplitude(occ), abs=1e-10)

    def test_non_unitary_rejected(self):
        reg = single_bin_registry(["a"])
        st = prepare_product_state(reg, [PhotonSpec.plus("a")])
        bad = np.eye(reg.size, dtype=complex)
        bad[0, 0] = 1.01
        with pytest.raises(FockError, match="not unitary"):
            apply_mode_unitary(st, ModeTransform(reg.modes, bad))

    def test_amplitudes_match_permanent_oracle(self):
        rng = np.random.default_rng(42)
        reg = ModeRegistry(["a", "b", "c", "d"], bins=1)
        assert reg.size == 8
        for _ in range(20):
            n = int(rng.integers(1, 5))
            occ = [0] * reg.size
            for _ in range(n):
                occ[int(rng.integers(reg.size))] += 1
            occ = tuple(occ)
            st = basis_state(reg, {m: c for m, c in zip(reg.modes, occ) if c})
            u = random_unitary(reg.size, rng)
            out = apply_mode_unitary(st, ModeTransform(reg.modes, u))
            expected = evolve_occupation_via_permanent(u, occ)
            assert set(out.terms) == set(expected) == set(evolve_state_via_creators(u, st.terms))
            for o, amp in expected.items():
                assert out.amplitude(o) == pytest.approx(amp, abs=1e-10)


@st.composite
def unitary_sequences(draw):
    """A small registry, 1-4 photons (possibly bunched) and 1-4 unitaries on mode subsets."""
    labels = ("a", "b", "c")[: draw(st.integers(1, 3))]
    reg = ModeRegistry(labels, bins=draw(st.integers(1, 2)))
    mode = st.sampled_from(reg.modes)
    photons = draw(st.lists(mode, min_size=1, max_size=4))
    subsets = draw(st.lists(st.lists(mode, min_size=1, unique=True), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transforms = [
        ModeTransform(tuple(modes), random_unitary(len(modes), rng), name=f"u{k}")
        for k, modes in enumerate(subsets)
    ]
    return basis_state(reg, Counter(photons)), transforms


class TestApplyProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(unitary_sequences())
    def test_sequential_composite_and_permanent_agree(self, case):
        state, transforms = case
        reg = state.registry
        sequential = state
        for t in transforms:
            sequential = apply_mode_unitary(sequential, t)
        once = apply_mode_unitary(state, compose(transforms))
        for reference in _references(reg, compose(transforms), state.terms):
            _assert_same_state(sequential, reference)
            _assert_same_state(once, reference)
        for out in (sequential, once):
            assert abs(out.norm() - 1.0) < 1e-12
            assert out.total_photons() == state.total_photons()


def _multi_ket_case(reg, kets, modes, seed):
    """(state, t): kets (tuples of counts) with random amplitudes, the
    state normalized unless empty, and a random unitary t on modes."""
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=len(kets)) + 1j * rng.normal(size=len(kets))
    amplitudes /= np.linalg.norm(amplitudes) or 1.0
    state = PureState(reg, {tuple(ket): complex(a) for ket, a in zip(kets, amplitudes)})
    return state, ModeTransform(tuple(modes), random_unitary(len(modes), rng))


@st.composite
def multi_ket_cases(draw):
    """0-5 kets of one photon number, 0-3, which may bunch, and a unitary
    on some modes."""
    reg = ModeRegistry(("a", "b")[: draw(st.integers(1, 2))], bins=draw(st.integers(1, 2)))
    n = draw(st.integers(0, 3))
    photons = st.lists(st.sampled_from(range(reg.size)), min_size=n, max_size=n)
    kets = {tuple(np.bincount(ket, minlength=reg.size).tolist()) for ket in draw(st.lists(photons, max_size=5))}
    modes = draw(st.lists(st.sampled_from(reg.modes), min_size=1, unique=True))
    return _multi_ket_case(reg, sorted(kets), modes, draw(st.integers(0, 2**32 - 1)))


_ONE_ARM = ModeRegistry(("a",), bins=1)


class TestMultiKetEvolution:
    """apply_mode_unitary expands each ket as one branch of multiply_out,
    weighted by its amplitude over sqrt(prod_j n_j!); both references
    evolve the kets apart."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(multi_ket_cases())
    @example(_multi_ket_case(_ONE_ARM, [(2, 0)], _ONE_ARM.modes, 1))
    @example(_multi_ket_case(_ONE_ARM, [(2, 0), (1, 1), (0, 2)], _ONE_ARM.modes, 2))
    @example(_multi_ket_case(_ONE_ARM, [(0, 0)], _ONE_ARM.modes, 3))
    @example(_multi_ket_case(_ONE_ARM, [], _ONE_ARM.modes, 4))
    def test_matches_both_references(self, case):
        state, t = case
        out = apply_mode_unitary(state, t)
        for reference in _references(state.registry, t, state.terms):
            _assert_same_state(out, reference)
        assert abs(out.norm() - state.norm()) < 1e-12


def _random_amplitudes(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return tuple(complex(c) for c in v / np.linalg.norm(v))


@st.composite
def grid_cases(draw):
    """Per scan point, photons with random amplitudes and a unitary sequence;
    a step is either one shared matrix or one matrix per point."""
    reg = ModeRegistry(("a", "b")[: draw(st.integers(1, 2))], bins=draw(st.integers(1, 2)))
    points = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from(reg.spatial_labels), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bins = [draw(st.integers(1, reg.bins)) for _ in labels]
    photon_grid = [
        [
            PhotonSpec(label, _random_amplitudes(rng, 2), _random_amplitudes(rng, n))
            for label, n in zip(labels, n_bins)
        ]
        for _ in range(points)
    ]
    steps = draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(reg.modes), min_size=1, unique=True), st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    sequences = [[] for _ in range(points)]
    for modes, per_point in steps:
        shared = random_unitary(len(modes), rng)
        for sequence in sequences:
            matrix = random_unitary(len(modes), rng) if per_point else shared
            sequence.append(ModeTransform(tuple(modes), matrix))
    return reg, photon_grid, sequences


def _point(grid, k: int) -> PureState:
    """The state at point k of a GridState: its terms present there."""
    return PureState(
        grid.registry,
        {tuple(occ): a for occ, a in zip(grid.occupations.tolist(), grid.amplitudes[:, k].tolist()) if a},
    )


def _grid_columns(reg, photon_grid):
    """The creator columns of a block, each point's built on its own."""
    return np.concatenate([creator_columns(reg, photons) for photons in photon_grid], axis=2)


def _pushed_grid(reg, photon_grid, steps):
    """The block's photons' creators pushed through steps in turn, then
    multiplied out and normalized."""
    columns = _grid_columns(reg, photon_grid)
    for step in steps:
        columns = push_creators(reg, columns, step)
    grid = multiply_out(reg, [(1.0, columns)], len(photon_grid))
    return GridState(reg, grid.occupations, grid.amplitudes / grid.norm())


def _assert_same_state(got: PureState, want: dict):
    assert set(got.terms) == set(want)
    for occ, amp in want.items():
        assert abs(got.terms[occ] - amp) < 1e-12


class TestGridProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(grid_cases())
    def test_grid_evolution_matches_each_point(self, case):
        reg, photon_grid, sequences = case
        grid = _pushed_grid(reg, photon_grid, [])  # the prepared grid: no steps
        # Every point of a step acts on the same modes.
        steps = [ModeTransform(column[0].modes, np.stack([t.matrix for t in column])) for column in zip(*sequences)]
        evolved = _pushed_grid(reg, photon_grid, [compose(steps)])
        in_turn = _pushed_grid(reg, photon_grid, steps)
        rows = [dict(zip(map(tuple, g.occupations.tolist()), g.amplitudes)) for g in (evolved, in_turn)]
        zero = np.zeros(grid.points)
        for occ in rows[0].keys() | rows[1].keys():
            assert np.all(np.abs(rows[1].get(occ, zero) - rows[0].get(occ, zero)) < 1e-12)
        for k, (photons, sequence) in enumerate(zip(photon_grid, sequences)):
            prepared = _prepared(reg, photons)
            _assert_same_state(_point(grid, k), prepared)
            for reference in _references(reg, compose(sequence), prepared):
                _assert_same_state(_point(evolved, k), reference)
        assert np.all(np.abs(evolved.norm() - 1.0) < 1e-12)


@st.composite
def scan_grid_cases(draw):
    """grid_cases with photons that may share one mode, and possibly a
    second source branch of as many photons; each branch has an amplitude
    per point."""
    reg, photon_grid, sequences = draw(grid_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points, n_photons = len(photon_grid), len(photon_grid[0])
    grids = [photon_grid]
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(reg.spatial_labels), min_size=n_photons, max_size=n_photons))
        grids.append(
            [[PhotonSpec(label, _random_amplitudes(rng, 2), _random_amplitudes(rng, reg.bins)) for label in labels]
             for _ in range(points)]
        )
    if draw(st.booleans()):
        # The first photons of the first branch all on one mode, at every point.
        mode = draw(st.sampled_from(reg.modes))
        pol = (1.0, 0.0) if mode.pol == H else (0.0, 1.0)
        bins = tuple(float(b == mode.bin) for b in range(mode.bin + 1))
        shared = draw(st.integers(min(2, n_photons), n_photons))
        grids[0] = [[PhotonSpec(mode.spatial, pol, bins)] * shared + photons[shared:] for photons in grids[0]]
    amplitudes = [rng.uniform(0.2, 1.0, points) * np.exp(2j * np.pi * rng.uniform(size=points)) for _ in grids]
    return reg, grids, amplitudes, sequences


def _scan_circuit_evolve(reg, grids, amplitudes, sequences, heralds=None):
    """The block state of ScanCircuit.evolve: every branch scanned, and
    each step re-lowered where its matrix differs between points."""
    per_point = [
        i for i, t in enumerate(sequences[0])
        if any(not np.array_equal(sequence[i].matrix, t.matrix) for sequence in sequences)
    ]
    branches = tuple(SourceBranch(complex(a[0]), tuple(grid[0])) for a, grid in zip(amplitudes, grids))
    circuit = Circuit(reg, branches, tuple((f"u{i}", t) for i, t in enumerate(sequences[0])))
    config = SimpleNamespace(model={}, elements=[{} for _ in sequences[0]], source_branches=[], convention="perm")
    leaves = [["elements", i, "matrix"] for i in per_point]
    leaves += [["sources", "branches", b, "amplitude"] for b in range(len(grids))]
    elements = {i: ModeTransform(sequences[0][i].modes, np.stack([s[i].matrix for s in sequences])) for i in per_point}
    branches = {b: (a, _grid_columns(reg, grid)) for b, (a, grid) in enumerate(zip(amplitudes, grids))}
    return ScanCircuit(circuit, config, leaves).evolve(elements, branches, len(sequences), heralds)


class TestScanEvolution:
    """ScanCircuit.evolve pushes each photon's creator through the plan and
    multiplies them out once; it must give both references' evolution of
    each point's prepared kets."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(scan_grid_cases())
    def test_creator_evolution_matches_ket_evolution_and_permanents(self, case):
        reg, grids, amplitudes, sequences = case
        evolved = _scan_circuit_evolve(reg, grids, amplitudes, sequences)
        for k, sequence in enumerate(sequences):
            state = _superposed([_prepared(reg, grid[k]) for grid in grids], [a[k] for a in amplitudes])
            for reference in _references(reg, compose(sequence), state):
                _assert_same_state(_point(evolved, k), reference)
        assert np.all(np.abs(evolved.norm() - 1.0) < 1e-12)


def _superposed(kets, amplitudes) -> dict:
    """sum_b amplitudes[b] kets[b], normalized; a lone ket as it is, since
    a lone branch's amplitude is a global phase that both paths drop."""
    if len(kets) == 1:
        return kets[0]
    terms = {}
    for ket, c in zip(kets, amplitudes):
        for occ, a in ket.items():
            terms[occ] = terms.get(occ, 0j) + complex(c) * a
    terms = {o: a for o, a in terms.items() if abs(a) > 1e-14}
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return {o: a / norm for o, a in terms.items()}


def _point_state(reg, grids, amplitudes, sequence, k) -> PureState:
    """Point k of a scan_grid_cases block, prepared and evolved alone."""
    states = [prepare_product_state(reg, grid[k]) for grid in grids]
    # A lone branch's amplitude is a global phase, dropped on both paths.
    state = states[0] if len(states) == 1 else superpose(states, [a[k] for a in amplitudes])
    return apply_mode_unitary(state, compose(sequence))


@st.composite
def scan_herald_cases(draw):
    """scan_grid_cases with read modes, the first `split` of them one
    detector group that must count `count` photons."""
    reg, grids, amplitudes, sequences = draw(scan_grid_cases())
    read = draw(st.lists(st.sampled_from(reg.modes), min_size=1, unique=True))
    split = draw(st.integers(1, len(read)))
    count = draw(st.integers(0, len(grids[0][0])))
    return reg, grids, amplitudes, sequences, read, {"g": (tuple(read[:split]), count)}


@st.composite
def scan_herald_spec_cases(draw):
    """scan_grid_cases with detectors on some of the registry's modes and
    one to three herald specs over them, as a config gives them: each
    requires counts of some detectors and none at some others."""
    reg, grids, amplitudes, sequences = draw(scan_grid_cases())
    modes = st.lists(st.sampled_from(reg.modes), min_size=1, max_size=3, unique=True)
    groups = {f"d{i}": tuple(group) for i, group in enumerate(draw(st.lists(modes, min_size=1, max_size=3)))}
    specs = []
    for k in range(draw(st.integers(1, 3))):
        required = draw(st.lists(st.sampled_from(sorted(groups)), min_size=1, unique=True))
        zero = [d for d in draw(st.lists(st.sampled_from(sorted(groups)), unique=True)) if d not in required]
        counts = {d: draw(st.integers(0, len(grids[0][0]))) for d in required}
        specs.append({"name": f"h{k}", "require": counts, "zero": zero})
    return reg, grids, amplitudes, sequences, groups, specs


def _herald_keeps(reg, occ, requirements, read) -> bool:
    """Whether herald_terms keeps the row occ, by counting its photons."""
    grouped = {m for modes, _ in requirements.values() for m in modes}
    read = set(read) | grouped
    count = lambda modes: sum(occ[reg.index(m)] for m in modes)
    return count(read) > 0 and count(read - grouped) == 0 and all(count(g) == n for g, n in requirements.values())


class TestHeraldPrunedEvolution:
    """Given its heralds, a block multiplies out only the rows they keep;
    each must hold the bits it has in the full state."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(scan_herald_spec_cases())
    def test_pruned_state_is_the_herald_kept_rows_of_the_full_state(self, case):
        reg, grids, amplitudes, sequences, groups, specs = case
        requests = [_herald_request(groups, spec) for spec in specs]
        full = _scan_circuit_evolve(reg, grids, amplitudes, sequences)
        pruned = _scan_circuit_evolve(reg, grids, amplitudes, sequences, requests)
        kept = [any(_herald_keeps(reg, occ, *request) for request in requests) for occ in full.occupations.tolist()]
        assert np.array_equal(pruned.occupations, full.occupations[kept])
        assert np.array_equal(pruned.amplitudes.view(np.uint64), full.amplitudes[kept].view(np.uint64))
        arms = (reg.spatial_labels[0], reg.spatial_labels[-1])
        for request in requests:
            (got_patterns, got), (want_patterns, want) = (herald_terms(state, *request) for state in (pruned, full))
            assert np.array_equal(got_patterns, want_patterns)
            for a, b in zip(kept_pair_pass(got, arms, got_patterns), kept_pair_pass(want, arms, want_patterns)):
                assert np.array_equal(a, b)  # p, rho and the rows off the pair
        points = [SimpleNamespace(heralds=specs, kept=arms, analyzers={"theta_a_deg": 0.0, "theta_b_deg": 45.0})]
        assert repr(_observables(points * len(sequences), pruned, groups)) == repr(
            _observables(points * len(sequences), full, groups)
        )


class TestGridReaders:
    """A block's outcome distribution and herald pass read its occupation
    and amplitude matrices with column masks; at every point they must
    give what the PureState readers give for that point alone."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(scan_herald_cases())
    def test_block_readers_match_each_point(self, case):
        reg, grids, amplitudes, sequences, read, groups = case
        evolved = _scan_circuit_evolve(reg, grids, amplitudes, sequences)
        kept = (reg.spatial_labels[0], reg.spatial_labels[-1])
        outcomes = outcome_distribution(evolved, read)
        patterns, heralded = herald_terms(evolved, groups, read)
        p, rho, bad = kept_pair_pass(heralded, kept, patterns)
        # matmul rounds a strided matrix differently, so each rho is contiguous.
        assert rho.flags.c_contiguous
        off_pair = (heralded.amplitudes[bad] != 0).any(axis=0)
        for k, sequence in enumerate(sequences):
            state = _point_state(reg, grids, amplitudes, sequence, k)
            want = dict(outcome_distribution(state, read))
            got = {pattern: prob[k] for pattern, prob in outcomes if prob[k]}
            assert got.keys() == want.keys()
            assert all(abs(got[pattern] - prob) < 1e-12 for pattern, prob in want.items())
            try:
                total, want_rho = heralded_polarization_dm(state, groups, read, kept)
            except HeraldError:
                assert p[k] == 0
                continue
            except FockError:
                assert off_pair[k]
                continue
            assert not off_pair[k]
            assert abs(p[k] - total) < 1e-12
            assert np.abs(rho[k] - want_rho).max() < 1e-12


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        reg = single_bin_registry(["a", "b"])
        st = prepare_product_state(reg, [PhotonSpec.plus("a"), PhotonSpec.plus("b")])
        assert inner_product(st, st) == pytest.approx(1.0)

    def test_orthogonal_occupations(self):
        reg = single_bin_registry(["a", "b"])
        hv_a = basis_state(reg, {ModeId("a", "H", 0): 1, ModeId("a", "V", 0): 1})
        hv_b = basis_state(reg, {ModeId("b", "H", 0): 1, ModeId("b", "V", 0): 1})
        assert inner_product(hv_a, hv_b) == 0

    def test_conjugate_symmetry(self):
        reg = single_bin_registry(["a"])
        s1 = superpose(
            [
                basis_state(reg, {ModeId("a", "H", 0): 1}),
                basis_state(reg, {ModeId("a", "V", 0): 1}),
            ],
            [1.0, 1j],
        )
        s2 = superpose(
            [
                basis_state(reg, {ModeId("a", "H", 0): 1}),
                basis_state(reg, {ModeId("a", "V", 0): 1}),
            ],
            [0.6, 0.8],
        )
        assert inner_product(s1, s2) == pytest.approx(inner_product(s2, s1).conjugate())

    def test_registry_mismatch_rejected(self):
        r1 = single_bin_registry(["a"])
        r2 = single_bin_registry(["b"])
        s1 = prepare_product_state(r1, [PhotonSpec.plus("a")])
        s2 = prepare_product_state(r2, [PhotonSpec.plus("b")])
        with pytest.raises(FockError, match="registry"):
            inner_product(s1, s2)


class TestPartialTrace:
    def test_phi_plus_single_bin(self):
        reg = single_bin_registry(["a", "b"])
        st = superpose(
            [
                basis_state(reg, {ModeId("a", "H", 0): 1, ModeId("b", "H", 0): 1}),
                basis_state(reg, {ModeId("a", "V", 0): 1, ModeId("b", "V", 0): 1}),
            ],
            [1.0, 1.0],
        )
        rho = partial_trace_to_polarization(st, ("a", "b"))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_orthogonal_bins_kill_coherence(self):
        reg = ModeRegistry(["a", "b"], bins=2)
        st = superpose(
            [
                basis_state(reg, {ModeId("a", "H", 0): 1, ModeId("b", "H", 0): 1}),
                basis_state(reg, {ModeId("a", "V", 1): 1, ModeId("b", "V", 1): 1}),
            ],
            [1.0, 1.0],
        )
        rho = partial_trace_to_polarization(st, ("a", "b"))
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        assert np.allclose(rho, expected, atol=1e-12)

    def test_partial_overlap_sets_off_diagonal(self):
        # V photons on one side ride sqrt(0.89) bin0 + sqrt(0.11) bin1.
        reg = ModeRegistry(["a", "b"], bins=2)
        c, s = math.sqrt(0.89), math.sqrt(0.11)
        hh = basis_state(reg, {ModeId("a", "H", 0): 1, ModeId("b", "H", 0): 1})
        vv0 = basis_state(reg, {ModeId("a", "V", 0): 1, ModeId("b", "V", 0): 1})
        vv1 = basis_state(reg, {ModeId("a", "V", 1): 1, ModeId("b", "V", 0): 1})
        st = superpose([hh, vv0, vv1], [1.0, c, s])
        rho = partial_trace_to_polarization(st, ("a", "b"))
        assert rho[0, 3] == pytest.approx(c / 2, abs=1e-12)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert rho[3, 3] == pytest.approx(0.5, abs=1e-12)

    def test_two_photons_in_one_arm_rejected(self):
        reg = single_bin_registry(["a", "b"])
        st = basis_state(reg, {ModeId("a", "H", 0): 1, ModeId("a", "V", 0): 1})
        with pytest.raises(FockError, match="non-qubit"):
            partial_trace_to_polarization(st, ("a", "b"))

    def test_residual_photon_rejected(self):
        reg = single_bin_registry(["a", "b", "c"])
        st = basis_state(
            reg,
            {
                ModeId("a", "H", 0): 1,
                ModeId("b", "H", 0): 1,
                ModeId("c", "H", 0): 1,
            },
        )
        with pytest.raises(FockError, match="residual"):
            partial_trace_to_polarization(st, ("a", "b"))


class TestSuperpose:
    def test_mixed_photon_number_rejected(self):
        reg = single_bin_registry(["a"])
        one = basis_state(reg, {ModeId("a", "H", 0): 1})
        two = basis_state(reg, {ModeId("a", "H", 0): 2})
        with pytest.raises(FockError, match="photon numbers"):
            superpose([one, two], [1.0, 1.0])

    def test_normalization(self):
        reg = single_bin_registry(["a"])
        h = basis_state(reg, {ModeId("a", "H", 0): 1})
        v = basis_state(reg, {ModeId("a", "V", 0): 1})
        st = superpose([h, v], [3.0, 4.0])
        assert st.norm() == pytest.approx(1.0)
        assert abs(st.amplitude(next(iter(h.terms)))) == pytest.approx(0.6)

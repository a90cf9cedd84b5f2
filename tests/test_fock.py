import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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
from eventready.elements import stack
from eventready.fock import PureState, prepare_product_grid
from eventready.modes import H

from oracles import (
    embed_transform,
    evolve_occupation_via_permanent,
    evolve_state_via_permanent,
    prepare_photons_via_permanent,
    random_unitary,
)


def single_bin_registry(labels, budget=4):
    return ModeRegistry(labels, bins=1, photon_budget=budget)


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
        vectors = []
        for p in photons:
            vec = np.zeros(reg.size, dtype=complex)
            for pol, pa in zip(("H", "V"), p.pol_amps):
                for b, ba in enumerate(p.bins):
                    vec[reg.index(ModeId(p.spatial, pol, b))] = pa * ba
            vectors.append(vec)
        expected = prepare_photons_via_permanent(vectors, reg.size)
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
            assert set(out.terms) == set(expected)
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
        composite = compose(transforms)
        once = apply_mode_unitary(state, composite)
        u = embed_transform(reg.size, [reg.index(m) for m in composite.modes], composite.matrix)
        oracle = {
            o: a for o, a in evolve_state_via_permanent(u, state.terms).items() if abs(a) > 1e-14
        }
        assert set(sequential.terms) == set(once.terms) == set(oracle)
        for occ, amp in oracle.items():
            assert abs(sequential.terms[occ] - amp) < 1e-12
            assert abs(once.terms[occ] - amp) < 1e-12
        for out in (sequential, once):
            assert abs(out.norm() - 1.0) < 1e-12
            assert out.total_photons() == state.total_photons()


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
    return PureState(grid.registry, {occ: complex(a[k]) for occ, a in grid.terms.items() if a[k]})


class TestGridProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(grid_cases())
    def test_grid_evolution_matches_each_point(self, case):
        reg, photon_grid, sequences = case
        grid = prepare_product_grid(reg, photon_grid)
        steps = [stack(column) for column in zip(*sequences)]
        evolved = apply_mode_unitary(grid, compose(steps))
        in_turn = grid
        for step in steps:
            in_turn = apply_mode_unitary(in_turn, step)
        zero = np.zeros(grid.points)
        for occ in set(evolved.terms) | set(in_turn.terms):
            assert np.all(np.abs(in_turn.terms.get(occ, zero) - evolved.terms.get(occ, zero)) < 1e-12)
        for k, (photons, sequence) in enumerate(zip(photon_grid, sequences)):
            for got, want in (
                (_point(grid, k), prepare_product_state(reg, photons)),
                (_point(evolved, k), apply_mode_unitary(prepare_product_state(reg, photons), compose(sequence))),
            ):
                assert set(got.terms) == set(want.terms)
                for occ, amp in want.terms.items():
                    assert abs(got.terms[occ] - amp) < 1e-12
        assert np.all(np.abs(evolved.norm() - 1.0) < 1e-12)

    def test_stack_lifts_points_with_different_modes(self):
        reg = single_bin_registry(["a", "b"])
        rng = np.random.default_rng(3)
        first = ModeTransform(reg.modes[:2], random_unitary(2, rng))
        second = ModeTransform(reg.modes[1:3], random_unitary(2, rng))
        stacked = stack([first, second])
        assert stacked.modes == reg.modes[:3]
        for matrix, t in zip(stacked.matrix, (first, second)):
            assert np.allclose(matrix, compose([t, ModeTransform(reg.modes[:3], np.eye(3))]).matrix)


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


def _scan_circuit_evolve(reg, grids, amplitudes, sequences):
    """The block state of ScanCircuit.evolve: every branch scanned, and
    each step re-lowered where its matrix differs between points."""
    per_point = [
        i for i, t in enumerate(sequences[0])
        if any(not np.array_equal(sequence[i].matrix, t.matrix) for sequence in sequences)
    ]
    branches = tuple(SourceBranch(complex(a[0]), tuple(grid[0])) for a, grid in zip(amplitudes, grids))
    circuit = Circuit(reg, branches, tuple((f"u{i}", t) for i, t in enumerate(sequences[0])))
    config = SimpleNamespace(model={}, elements=[{} for _ in sequences[0]])
    leaves = [["elements", i, "matrix"] for i in per_point]
    leaves += [["sources", "branches", b, "amplitude"] for b in range(len(grids))]
    changes = [
        (
            {i: sequence[i] for i in per_point},
            {b: SourceBranch(complex(a[k]), tuple(grid[k])) for b, (a, grid) in enumerate(zip(amplitudes, grids))},
        )
        for k, sequence in enumerate(sequences)
    ]
    return ScanCircuit(circuit, config, leaves).evolve(changes)


class TestScanEvolution:
    """ScanCircuit.evolve pushes each photon's creator through the plan and
    multiplies them out once; it must give the prepared-ket evolution."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(scan_grid_cases())
    def test_creator_evolution_matches_ket_evolution_and_permanents(self, case):
        reg, grids, amplitudes, sequences = case
        evolved = _scan_circuit_evolve(reg, grids, amplitudes, sequences)
        prepared = [prepare_product_grid(reg, grid) for grid in grids]
        # A lone branch's amplitude is a global phase, dropped on both paths.
        source = prepared[0] if len(prepared) == 1 else superpose(prepared, amplitudes)
        kets = apply_mode_unitary(source, compose([stack(column) for column in zip(*sequences)]))
        assert set(evolved.terms) == set(kets.terms)
        for occ, amp in kets.terms.items():
            assert np.all(np.abs(evolved.terms[occ] - amp) < 1e-12)
        for k, sequence in enumerate(sequences):
            states = [prepare_product_state(reg, grid[k]) for grid in grids]
            state = states[0] if len(states) == 1 else superpose(states, [a[k] for a in amplitudes])
            composite = compose(sequence)
            u = embed_transform(reg.size, [reg.index(m) for m in composite.modes], composite.matrix)
            oracle = {o: a for o, a in evolve_state_via_permanent(u, state.terms).items() if abs(a) > 1e-14}
            got = _point(evolved, k)
            assert set(got.terms) == set(oracle)
            for occ, amp in oracle.items():
                assert abs(got.terms[occ] - amp) < 1e-12
        assert np.all(np.abs(evolved.norm() - 1.0) < 1e-12)


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

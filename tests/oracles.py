"""Independent brute-force oracles used to cross-check the simulator.

Everything here evolves states through the permanent formula
<m|U|n> = per(U[m|n]) / sqrt(prod m_i! prod n_j!), with the permanent
evaluated as an explicit sum over permutations.  None of the package's
evolution code (creation-operator mapping in eventready.fock) is used.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, permutations

import numpy as np


def permanent(matrix: np.ndarray) -> complex:
    m = np.asarray(matrix)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
            if prod == 0:
                break
        total += prod
    return total


def occupations(total: int, n_modes: int):
    """All occupation tuples of `total` photons over `n_modes` modes."""
    for combo in combinations_with_replacement(range(n_modes), total):
        occ = [0] * n_modes
        for c in combo:
            occ[c] += 1
        yield tuple(occ)


def _rows_from_occupation(occ):
    rows = []
    for i, n in enumerate(occ):
        rows.extend([i] * n)
    return rows


def evolve_occupation_via_permanent(u: np.ndarray, occ_in) -> dict:
    """Output amplitudes for one input occupation under mode unitary u."""
    u = np.asarray(u, dtype=complex)
    n_modes = u.shape[0]
    cols = _rows_from_occupation(occ_in)
    total = len(cols)
    in_norm = math.sqrt(math.prod(math.factorial(n) for n in occ_in))
    # Only rows reachable from the input columns can be occupied.
    reachable = [i for i in range(n_modes) if np.any(np.abs(u[i, cols]) > 0)]
    out = {}
    for local_occ in occupations(total, len(reachable)):
        occ_out = [0] * n_modes
        for pos, n in zip(reachable, local_occ):
            occ_out[pos] = n
        rows = _rows_from_occupation(occ_out)
        sub = u[np.ix_(rows, cols)]
        amp = permanent(sub)
        if amp == 0:
            continue
        out_norm = math.sqrt(math.prod(math.factorial(n) for n in occ_out))
        out[tuple(occ_out)] = amp / (in_norm * out_norm)
    return out


def evolve_state_via_permanent(u: np.ndarray, terms: dict) -> dict:
    """Evolve a sparse {occupation: amplitude} map under one mode unitary."""
    out: dict = {}
    for occ, amp in terms.items():
        for occ_out, a in evolve_occupation_via_permanent(u, occ).items():
            out[occ_out] = out.get(occ_out, 0.0j) + amp * a
    return {o: a for o, a in out.items() if abs(a) > 1e-16}


def prepare_photons_via_permanent(photon_vectors, n_modes: int) -> dict:
    """Product of single-photon creation operators, permanent route.

    photon_vectors is a list of coefficient vectors (length n_modes); the
    result is normalized.
    """
    k = len(photon_vectors)
    c = np.asarray(photon_vectors, dtype=complex)  # k x n_modes
    support = [i for i in range(n_modes) if np.any(np.abs(c[:, i]) > 0)]
    terms = {}
    for local_occ in occupations(k, len(support)):
        occ = [0] * n_modes
        for pos, n in zip(support, local_occ):
            occ[pos] = n
        rows = _rows_from_occupation(occ)
        sub = c[:, rows]
        amp = permanent(sub.T)
        if amp == 0:
            continue
        terms[tuple(occ)] = amp / math.sqrt(
            math.prod(math.factorial(n) for n in occ)
        )
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return {o: a / norm for o, a in terms.items()}


def embed_transform(n_modes: int, idxs, matrix: np.ndarray) -> np.ndarray:
    """Lift a small mode unitary to the full mode count."""
    u = np.eye(n_modes, dtype=complex)
    for a, ia in enumerate(idxs):
        for b, ib in enumerate(idxs):
            u[ia, ib] = matrix[a, b]
    return u


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def heralded_rho_via_projector(terms: dict, modes, groups: dict, read_out, kept):
    """Herald probability and kept-pair polarization rho, by brute force.

    terms maps occupations (counts over `modes`, ModeIds in occupation
    order) to amplitudes; groups maps a name to (modes, exact count), and
    read modes outside the groups must be empty.  The herald is a
    diagonal projector on the occupation basis.  The projected state is
    written over (HH, HV, VH, VV) of the two kept arms times an
    environment, every other count plus the kept photons' bins, and the
    environment is traced out of its dense density matrix.  rho is None
    when a kept term does not hold exactly one photon in each kept arm.
    """
    pos = {m: i for i, m in enumerate(modes)}
    grouped = set().union(*(set(ms) for ms, _ in groups.values()))
    read = set(read_out) | grouped

    def fires(occ):
        return (
            any(occ[pos[m]] for m in read)
            and not any(occ[pos[m]] for m in read - grouped)
            and all(sum(occ[pos[m]] for m in ms) == n for ms, n in groups.values())
        )

    basis = sorted(terms)
    projector = np.diag([1.0 if fires(occ) else 0.0 for occ in basis])
    heralded = projector @ np.array([terms[occ] for occ in basis], dtype=complex)
    p = float(np.vdot(heralded, heralded).real)
    if p == 0:
        return p, None
    others = [m for m in modes if m.spatial not in kept]
    entries = []
    for occ, amp in zip(basis, heralded):
        if amp == 0:
            continue
        photons = [m for m in modes if m.spatial in kept for _ in range(occ[pos[m]])]
        residual = any(occ[pos[m]] for m in others if m not in read)
        if residual or sorted(m.spatial for m in photons) != sorted(kept):
            return p, None
        a, b = sorted(photons, key=lambda m: kept.index(m.spatial))
        qubit = 2 * (a.pol == "V") + (b.pol == "V")
        env = (tuple(occ[pos[m]] for m in others), a.bin, b.bin)
        entries.append((qubit, env, amp))
    envs = sorted({env for _, env, _ in entries})
    vec = np.zeros((4, len(envs)), dtype=complex)
    for qubit, env, amp in entries:
        vec[qubit, envs.index(env)] += amp
    dense = np.outer(vec.ravel(), vec.ravel().conj()).reshape(4, len(envs), 4, len(envs))
    return p, np.einsum("iaja->ij", dense) / p

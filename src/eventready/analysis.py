"""Detection outcomes, heralding, two-qubit figures of merit, sampling.

Physical detectors do not resolve temporal bins, so a herald requires a
count per detector group (a spatial label, optionally one polarization).
Each exact pattern on the read modes that is consistent with those counts
conditions onto a pure state; the herald's density matrix sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import PureState, partial_trace_to_polarization

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
BELL_STATES = {
    "phi_plus": PHI_PLUS,
    "phi_minus": PHI_MINUS,
    "psi_plus": PSI_PLUS,
    "psi_minus": PSI_MINUS,
}

TSIRELSON = 2.0 * math.sqrt(2.0)


class HeraldError(ValueError):
    pass


def outcome_distribution(state: PureState, detector_modes):
    """Marginal probabilities of exact count patterns on detector modes.

    Returns a sorted list of ((counts tuple aligned with sorted detector
    modes), probability); zero-probability patterns never appear.  For a
    GridState each probability is an array over its points, 0 at the
    points where the pattern does not occur.
    """
    modes = tuple(sorted(set(detector_modes)))
    idxs = [state.registry.index(m) for m in modes]
    probs: dict = {}
    for occ, amp in state.terms.items():
        key = tuple(occ[i] for i in idxs)
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    return sorted(probs.items())


def group_herald_outcomes(state: PureState, group_requirements: dict, read_out):
    """All exact patterns consistent with bin-blind group counts.

    group_requirements maps a group name to (modes tuple, exact count).
    The modes of read_out and of every required group are read; read
    modes outside the groups must be empty.  Returns (probability,
    conditional PureState with the read modes emptied) for each matching
    exact pattern, sorted by pattern.
    """
    registry = state.registry
    read = set(read_out).union(*(modes for modes, _ in group_requirements.values()))
    read_idx = [registry.index(m) for m in sorted(read)]
    groups = [
        ([registry.index(m) for m in modes], count)
        for modes, count in group_requirements.values()
    ]
    grouped = {i for idxs, _ in groups for i in idxs}
    zero_idx = [i for i in read_idx if i not in grouped]

    probs: dict = {}
    buckets: dict = {}
    for occ, amp in state.terms.items():
        if any(occ[i] for i in zero_idx):
            continue
        if any(sum(occ[i] for i in idxs) != count for idxs, count in groups):
            continue
        pattern = tuple(occ[i] for i in read_idx)
        if not any(pattern):
            continue
        emptied = list(occ)
        for i in read_idx:
            emptied[i] = 0
        probs[pattern] = probs.get(pattern, 0.0) + abs(amp) ** 2
        buckets.setdefault(pattern, {})[tuple(emptied)] = amp
    if not buckets:
        raise HeraldError("herald impossible: no exact pattern matches the group counts")
    outcomes = []
    for pattern in sorted(buckets):
        scale = 1.0 / math.sqrt(probs[pattern])
        terms = {occ: amp * scale for occ, amp in buckets[pattern].items()}
        outcomes.append((probs[pattern], PureState(registry, terms)))
    return outcomes


def heralded_polarization_dm(state: PureState, group_requirements: dict, read_out, kept_spatial):
    """Total herald probability and the bin-traced kept-pair density matrix."""
    outcomes = group_herald_outcomes(state, group_requirements, read_out)
    total = sum(p for p, _ in outcomes)
    rho = np.zeros((4, 4), dtype=complex)
    for p, cond in outcomes:
        rho += (p / total) * partial_trace_to_polarization(cond, kept_spatial)
    return total, validate_density_matrix(rho)


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-10):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.min(np.linalg.eigvalsh(rho)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """<target|rho|target> for a pure two-qubit target."""
    target = np.asarray(target, dtype=complex).reshape(4)
    value = float(np.real(target.conj() @ np.asarray(rho, dtype=complex) @ target))
    return min(1.0, max(0.0, value))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence via the spin-flip eigenvalue construction.

    The spin-flip eigenvalues are computed as the singular values of
    sqrt(rho) Y sqrt(rho)* with Y = sigma_y x sigma_y, which is stable
    where the direct non-Hermitian product loses precision near zero.
    """
    rho = np.asarray(rho, dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lams = np.linalg.svd(sqrt_rho @ flip @ sqrt_rho.conj(), compute_uv=False)
    lams = np.sort(lams)
    c = lams[-1] - lams[-2] - lams[-3] - lams[-4]
    return float(max(0.0, min(1.0, c)))


def _analyzer_vector(angle_deg: float) -> np.ndarray:
    """Single-qubit pass state for a polarizer at the given angle (from V)."""
    a = math.radians(angle_deg)
    # Qubit basis order (H, V).
    return np.array([math.sin(a), math.cos(a)], dtype=complex)


def analyzer_probabilities(rho: np.ndarray, a_deg: float, b_deg: float):
    """(pass,pass), (pass,fail), (fail,pass), (fail,fail) probabilities."""
    rho = np.asarray(rho, dtype=complex)
    pa, pb = _analyzer_vector(a_deg), _analyzer_vector(b_deg)
    fa, fb = _analyzer_vector(a_deg + 90.0), _analyzer_vector(b_deg + 90.0)
    out = []
    for va in (pa, fa):
        for vb in (pb, fb):
            vec = np.kron(va, vb)
            out.append(float(np.real(vec.conj() @ rho @ vec)))
    pp, pf, fp, ff = out
    return pp, pf, fp, ff


def correlation_E(rho: np.ndarray, a_deg: float, b_deg: float) -> float:
    """Polarization correlation E(a, b) from pass/fail joint probabilities."""
    pp, pf, fp, ff = analyzer_probabilities(rho, a_deg, b_deg)
    return pp + ff - pf - fp


@dataclass(frozen=True)
class ChshReport:
    a: float
    a_prime: float
    b: float
    b_prime: float
    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    s: float
    violation: bool
    e_std: tuple | None = None
    s_std: float | None = None
    shots_per_setting: int | None = None

    def to_dict(self):
        out = {
            "settings_deg": {
                "a": self.a,
                "a_prime": self.a_prime,
                "b": self.b,
                "b_prime": self.b_prime,
            },
            "E": {
                "ab": self.e_ab,
                "ab_prime": self.e_ab_prime,
                "a_prime_b": self.e_a_prime_b,
                "a_prime_b_prime": self.e_a_prime_b_prime,
            },
            "S": self.s,
            "violates_classical_bound": self.violation,
        }
        if self.e_std is not None:
            out["E_std"] = list(self.e_std)
            out["S_std"] = self.s_std
            out["shots_per_setting"] = self.shots_per_setting
            if self.s_std:
                out["std_devs_above_2"] = (self.s - 2.0) / self.s_std
        return out


def chsh_S(
    rho: np.ndarray,
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    shots: int | None = None,
    seed: int | None = None,
) -> ChshReport:
    """CHSH combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b').

    With shots given, each E is estimated from a multinomial draw over the
    four analyzer outcomes and carries a propagated standard deviation.
    """
    settings = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    es = []
    stds = []
    for k, (sa, sb) in enumerate(settings):
        if shots is None:
            es.append(correlation_E(rho, sa, sb))
        else:
            probs = analyzer_probabilities(rho, sa, sb)
            total = sum(probs)
            dist = [
                (name, max(0.0, p) / total)
                for name, p in zip(("pp", "pf", "fp", "ff"), probs)
            ]
            counts = dict(sample_counts(dist, shots, (seed or 0) + k))
            e = (counts["pp"] + counts["ff"] - counts["pf"] - counts["fp"]) / shots
            es.append(float(e))
            stds.append(math.sqrt(max(0.0, 1.0 - e * e) / shots))
    for e in es:
        if abs(e) > 1.0 + 1e-9:
            raise ValueError(f"|E| = {abs(e)} exceeds 1")
    s = es[0] - es[1] + es[2] + es[3]
    if abs(s) > TSIRELSON + 1e-9 and shots is None:
        raise ValueError(f"S = {s} exceeds the Tsirelson bound")
    return ChshReport(
        a,
        a_prime,
        b,
        b_prime,
        es[0],
        es[1],
        es[2],
        es[3],
        float(s),
        bool(abs(s) > 2.0),
        e_std=tuple(stds) if stds else None,
        s_std=math.sqrt(sum(v * v for v in stds)) if stds else None,
        shots_per_setting=shots,
    )


def fit_sinusoid(xs, ys, period: float):
    """Least-squares fit of y = c0 + A cos(2 pi x / period - phase).

    The period is fixed and known; returns (c0, A, phase) with A >= 0.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 8:
        raise ValueError("sinusoid fit needs at least 8 points")
    if xs.max() - xs.min() < period - 1e-9:
        raise ValueError("sinusoid fit needs at least one full period of data")
    w = 2.0 * math.pi / period
    design = np.column_stack([np.ones_like(xs), np.cos(w * xs), np.sin(w * xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    c0, cc, cs = coef
    amp = math.hypot(cc, cs)
    phase = math.atan2(cs, cc)
    return float(c0), float(amp), float(phase)


def visibility(curve, period: float):
    """(V, max, min) of a curve from a fixed-period sinusoid fit."""
    xs = [p[0] for p in curve]
    ys = [p[1] for p in curve]
    c0, amp, _ = fit_sinusoid(xs, ys, period)
    hi, lo = c0 + amp, c0 - amp
    if abs(hi + lo) < 1e-15:
        raise ValueError("degenerate flat curve: max + min = 0")
    return (hi - lo) / (hi + lo), hi, lo


def joint_visibility(curves, period: float):
    """Shared-amplitude visibility of several curves with one common offset.

    Per-curve phases come from individual fits; the shared offset and
    amplitude are then solved by linear least squares.  Exact for
    noiseless curves of equal mean.
    """
    phases = []
    all_x, all_y = [], []
    for xs, ys in curves:
        _, _, phase = fit_sinusoid(xs, ys, period)
        phases.append(phase)
        all_x.append(np.asarray(xs, dtype=float))
        all_y.append(np.asarray(ys, dtype=float))
    w = 2.0 * math.pi / period
    rows = []
    targets = []
    for xs, ys, phase in zip(all_x, all_y, phases):
        rows.append(np.column_stack([np.ones_like(xs), np.cos(w * xs - phase)]))
        targets.append(ys)
    design = np.vstack(rows)
    ys = np.concatenate(targets)
    (c0, amp), *_ = np.linalg.lstsq(design, ys, rcond=None)
    if abs(c0) < 1e-15:
        raise ValueError("degenerate flat curves")
    return float(abs(amp) / c0)


def fit_delay_fringe(deltas, values, fringe_period_um: float):
    """Fit C [1 + V0 exp(-(d/width)^2) cos(2 pi d / period + phase)].

    Returns a dict with the fitted peak visibility V0 and the 1/e
    half-width of the visibility envelope.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)

    def model(d, c, v0, width, phase):
        env = np.exp(-((d / width) ** 2))
        return c * (1.0 + v0 * env * np.cos(2.0 * math.pi * d / fringe_period_um + phase))

    c_guess = float(np.mean(values))
    span = float(np.max(np.abs(deltas))) or 1.0
    v_guess = min(1.0, float(np.max(values) - np.min(values)) / (2.0 * c_guess + 1e-30))
    p0 = [c_guess, max(0.1, v_guess), span / 3.0, 0.0]
    # Imported here: scipy is the slowest import, and only fits need it.
    from scipy.optimize import curve_fit

    popt, _ = curve_fit(
        model,
        deltas,
        values,
        p0=p0,
        bounds=([0.0, 0.0, 1e-6, -math.pi], [np.inf, 1.5, 10.0 * span, math.pi]),
        maxfev=20000,
    )
    c, v0, width, phase = popt
    return {
        "offset": float(c),
        "peak_visibility": float(v0),
        "envelope_width_um": float(width),
        "fringe_phase": float(phase),
    }


def sample_counts(distribution, shots: int, seed: int):
    """Deterministic multinomial count sampling for a list of (pattern, probability).

    The counts always sum to shots.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    patterns = [p for p, _ in distribution]
    probs = np.array([p for _, p in distribution], dtype=float)
    if probs.size and (probs < -1e-12).any():
        raise ValueError("negative probability in distribution")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    rng = np.random.default_rng(seed)
    if shots == 0:
        counts = np.zeros(len(patterns), dtype=int)
    else:
        counts = rng.multinomial(shots, probs / total)
    return list(zip(patterns, counts.tolist()))

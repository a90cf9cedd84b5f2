"""Detection outcomes, heralding, two-qubit figures of merit, sampling.

Physical detectors do not resolve temporal bins, so a herald requires a
count per detector group (a spatial label, optionally one polarization).
Each exact pattern on the read modes that is consistent with those counts
conditions onto a pure state; the herald's density matrix sums them, in
one pass over the terms the herald keeps (fock.kept_pair_pass).  Every
reader works on a GridState's occupation and amplitude matrices; a
PureState is read as a one-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockError, GridState, PureState, distinct_rows, herald_rule, kept_pair_pass, kept_pair_violation
from .fock import one_point_grid
from .fock import partial_trace_to_polarization  # noqa: F401 -- unused, bench/tracing.py wraps it here

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

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)  # concurrence's Y = sigma_y x sigma_y
TSIRELSON = 2.0 * math.sqrt(2.0)
HERALD_IMPOSSIBLE = "herald impossible: no exact pattern matches the group counts"


class HeraldError(ValueError):
    pass


def outcome_distribution(state, detector_modes):
    """Marginal probabilities of exact count patterns on detector modes.

    Returns a sorted list of ((counts tuple aligned with sorted detector
    modes), probability); zero-probability patterns never appear.  state
    is a PureState, giving float probabilities, or a GridState, giving
    each probability as an array over its points, 0 at the points where
    the pattern does not occur.
    """
    grid = state if isinstance(state, GridState) else one_point_grid(state)
    # The registry lists its modes sorted, so sorted indices are sorted modes.
    idxs = sorted({state.registry.index(m) for m in detector_modes})
    patterns, inverse = distinct_rows(grid.occupations[:, idxs])
    probs = np.zeros((len(patterns), grid.points))
    np.add.at(probs, inverse, grid.probabilities)
    if grid is not state:
        probs = probs[:, 0].tolist()
    return list(zip(map(tuple, patterns.tolist()), probs))


def herald_terms(state: GridState, group_requirements: dict, read_out):
    """(patterns, kept): the rows of state that a herald keeps
    (fock.herald_rule), in state order, with the read modes emptied, and
    their counts on the sorted read modes.

    group_requirements maps a group name to (modes tuple, exact count).
    The modes of read_out and of every required group are read.
    """
    registry, occupations = state.registry, state.occupations
    members, keeps = herald_rule(registry, [(group_requirements, read_out)])
    keep = keeps(members @ occupations.T)
    read = set(read_out).union(*(modes for modes, _ in group_requirements.values()))
    read_idx = sorted(registry.index(m) for m in read)
    emptied = occupations[keep]
    patterns = emptied[:, read_idx]
    emptied[:, read_idx] = 0
    return patterns, GridState(registry, emptied, state.amplitudes[keep], state.probabilities[keep])


def group_herald_outcomes(state: PureState, group_requirements: dict, read_out):
    """(probability, conditional PureState with the read modes emptied) of
    each exact pattern of herald_terms, sorted by pattern."""
    patterns, kept = herald_terms(one_point_grid(state), group_requirements, read_out)
    if not len(patterns):
        raise HeraldError(HERALD_IMPOSSIBLE)
    distinct, inverse = distinct_rows(patterns)
    amplitudes = kept.amplitudes[:, 0]
    probs = np.zeros(len(distinct))
    np.add.at(probs, inverse, kept.probabilities[:, 0])
    outcomes = []
    for k, prob in enumerate(probs.tolist()):
        scale = 1.0 / math.sqrt(prob)
        rows = inverse == k
        terms = {
            tuple(occ): amp * scale for occ, amp in zip(kept.occupations[rows].tolist(), amplitudes[rows].tolist())
        }
        outcomes.append((prob, PureState(state.registry, terms)))
    return outcomes


def heralded_polarization_dm(state, group_requirements: dict, read_out, kept_spatial):
    """Total herald probability and the bin-traced kept-pair density matrix
    of a PureState or a one-point GridState, which may hold only the rows
    the herald keeps; FockError for the first term, by pattern and then
    occupation, whose kept support is not one photon per arm
    (partial_trace_to_polarization's message)."""
    grid = state if isinstance(state, GridState) else one_point_grid(state)
    patterns, kept = herald_terms(grid, group_requirements, read_out)
    total, rho, bad = kept_pair_pass(kept, kept_spatial, patterns)
    if not total[0]:
        raise HeraldError(HERALD_IMPOSSIBLE)
    if bad.any():
        raise FockError(kept_pair_violation(kept, bad, kept_spatial, patterns))
    return float(total[0]), validate_density_matrix(rho[0])


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-10):
    """rho, a 4x4 density matrix or a stack (..., 4, 4) of them.

    ValueError names the first check that the first invalid matrix, in
    C order, fails: Hermitian, unit trace, no negative eigenvalue.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    flat = rho.reshape(-1, 4, 4)
    traces = np.trace(flat, axis1=1, axis2=2)
    failed = np.array([
        np.abs(flat - flat.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12,
        abs(traces.real - 1.0) > 1e-12,
        np.linalg.eigvalsh(flat).min(axis=1) < -atol,
    ])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        raise ValueError([
            "density matrix is not Hermitian",
            f"density matrix trace {traces[k]} != 1",
            "density matrix has a negative eigenvalue",
        ][int(failed[:, k].argmax())])
    return rho


def _real(value):
    """A float for one matrix's value, a real array over a stack's."""
    return float(np.real(value)) if np.ndim(value) == 0 else np.real(value)


def _unit_interval(value):
    """value limited to [0, 1]: a float for one matrix, an array over a stack."""
    if np.ndim(value) == 0:
        return min(1.0, max(0.0, float(value)))
    return np.clip(value, 0.0, 1.0)


def fidelity(rho: np.ndarray, target: np.ndarray):
    """<target|rho|target> for a pure two-qubit target.

    rho is one 4x4 matrix, giving a float, or a stack (..., 4, 4), giving
    an array; so are the other figures of merit.
    """
    target = np.asarray(target, dtype=complex).reshape(4)
    return _unit_interval(_real(target.conj() @ np.asarray(rho, dtype=complex) @ target))


def concurrence(rho: np.ndarray):
    """Wootters concurrence via the spin-flip eigenvalue construction.

    The spin-flip eigenvalues are computed as the singular values of
    sqrt(rho) Y sqrt(rho)* with Y = sigma_y x sigma_y, which is stable
    where the direct non-Hermitian product loses precision near zero.
    """
    rho = np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    lams = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(), compute_uv=False)
    lams = np.sort(lams, axis=-1)
    return _unit_interval(lams[..., -1] - lams[..., -2] - lams[..., -3] - lams[..., -4])


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
            vec = np.outer(va, vb).ravel()
            out.append(_real(vec.conj() @ rho @ vec))
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
            "settings_deg": {key: getattr(self, key) for key in ("a", "a_prime", "b", "b_prime")},
            "E": {key: getattr(self, f"e_{key}") for key in ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")},
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
    four analyzer outcomes and carries a propagated standard deviation;
    the four settings are drawn in turn from one default_rng(seed)
    (sample_counts).
    """
    settings = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    if shots is None:
        es, stds = [correlation_E(rho, sa, sb) for sa, sb in settings], []
    else:
        columns = []
        for sa, sb in settings:
            probs = analyzer_probabilities(rho, sa, sb)
            total = sum(probs)
            columns.append([max(0.0, p) / total for p in probs])
        names = ("pp", "pf", "fp", "ff")
        counts = dict(sample_counts(list(zip(names, map(list, zip(*columns)))), shots, seed or 0))
        es = [(pp + ff - pf - fp) / shots for pp, pf, fp, ff in zip(*(counts[name] for name in names))]
        stds = [math.sqrt(max(0.0, 1.0 - e * e) / shots) for e in es]
    for e in es:
        if abs(e) > 1.0 + 1e-9:
            raise ValueError(f"|E| = {abs(e)} exceeds 1")
    s = es[0] - es[1] + es[2] + es[3]
    if abs(s) > TSIRELSON + 1e-9 and shots is None:
        raise ValueError(f"S = {s} exceeds the Tsirelson bound")
    return ChshReport(
        a, a_prime, b, b_prime, *es, float(s), bool(abs(s) > 2.0),
        e_std=tuple(stds) if stds else None,
        s_std=math.sqrt(sum(v * v for v in stds)) if stds else None,
        shots_per_setting=shots,
    )


def _harmonic_lstsq(ys, cos, sin, envelope=1.0):
    """Least squares of ys, one column or several, on the columns 1,
    envelope cos and envelope sin: (coefficients, residuals)."""
    design = np.column_stack([np.ones_like(cos), envelope * cos, envelope * sin])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return coef, ys - design @ coef


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
    (c0, cc, cs), _ = _harmonic_lstsq(ys, np.cos(w * xs), np.sin(w * xs))
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
    half-width of the visibility envelope, or for several curves, the
    rows of values, a list of one per curve.  At a fixed width the model
    is linear in (C, C V0 cos phase, -C V0 sin phase), which fit_sinusoid's
    solve gives exactly, so only log width is searched (variable
    projection, Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)):
    a grid over [1e-6, 10 max|d|], each width solved once for all curves,
    then Gauss-Newton steps from each curve's best width, each halved
    until it lowers the sum of squared residuals (SSE).
    """
    deltas, curves = np.asarray(deltas, dtype=float), np.asarray(values, dtype=float)
    k = 2.0 * math.pi / fringe_period_um
    cos, sin = np.cos(k * deltas), np.sin(k * deltas)
    lo, hi = 1e-6, 10.0 * (float(np.max(np.abs(deltas))) or 1.0)

    def solve(values, width):
        """(SSE, coefficients, Gauss-Newton step on log width, the SSE drop it predicts) at one width."""
        envelope = np.exp(-((deltas / width) ** 2))
        slope = 2.0 * (deltas / width) ** 2 * envelope  # d envelope / d log width
        coef, res = _harmonic_lstsq(np.column_stack([values, slope * cos, slope * sin]), cos, sin, envelope)
        # Kaufman's Jacobian: the model's width derivative less its part in the design's span.
        jac, r = res[:, 1:] @ coef[1:, 0], res[:, 0]
        jj, jr = float(jac @ jac), float(jac @ r)
        step = jr / jj if jj else 0.0
        return float(r @ r), coef[:, 0], step, step * jr

    def fit(values, width):
        sse, coef, step, gain = solve(values, width)
        while gain > np.finfo(float).eps * sse:
            # A step past the upper bound lands on it; math.exp of such a step may overflow.
            trial = hi if step >= math.log(hi / width) else min(hi, max(lo, width * math.exp(step)))
            if trial == width:
                break
            trial_fit = solve(values, trial)
            if trial_fit[0] < sse:
                width, (sse, coef, step, gain) = trial, trial_fit
            else:
                step /= 2.0
        c, a, b = coef.tolist()
        v0 = math.hypot(a, b) / c if c > 0 else math.inf
        if not math.isfinite(v0):
            raise ValueError(f"delay fringe fit: no finite peak visibility at the fitted offset C = {c}")
        return {"offset": c, "peak_visibility": v0, "envelope_width_um": width, "fringe_phase": math.atan2(-b, a)}

    grid, rows = np.geomspace(lo, hi, 16).tolist(), np.atleast_2d(curves)
    sse = [(_harmonic_lstsq(rows.T, cos, sin, np.exp(-((deltas / w) ** 2)))[1] ** 2).sum(axis=0) for w in grid]
    fits = [fit(values, grid[i]) for values, i in zip(rows, np.argmin(sse, axis=0).tolist())]
    return fits if curves.ndim == 2 else fits[0]


def sample_counts(distribution, shots: int, seed: int):
    """Deterministic multinomial count sampling for a list of (pattern, probability).

    The counts always sum to shots.  A probability may also be a list
    over the points of a block: each pattern then gets a list of counts.
    The points are drawn in order, in one multinomial call of one
    np.random.default_rng(seed), over every pattern, each point's
    probabilities over their own sum; numpy draws a zero probability as
    0.  A scalar distribution is drawn as a block of one point.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    patterns = [p for p, _ in distribution]
    probs = np.array([p for _, p in distribution], dtype=float)
    if probs.size and (probs < -1e-12).any():
        raise ValueError("negative probability in distribution")
    block = probs.ndim == 2
    rows = np.ascontiguousarray(np.maximum(probs if block else probs[:, None], 0.0).T)  # one per point
    totals = np.add.reduce(rows, axis=1)
    bad = ~(abs(totals - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"probabilities sum to {float(totals[bad.argmax()])}, not 1")
    counts = np.random.default_rng(seed).multinomial(shots, rows / totals[:, None]).T
    return list(zip(patterns, (counts if block else counts[:, 0]).tolist()))

"""Constructors for the optical elements used in the interferometer.

Polarization conventions, fixed across the package:

* angles are measured from the V axis toward H, so 0 deg = V, 90 deg = H
  and 45 deg = (H + V)/sqrt(2);
* two-port couplers act identically and independently on every temporal
  bin;
* the polarizing beamsplitter transmits H (photon keeps its spatial
  label) and reflects V (labels swap); the default reflection amplitude
  is 1 ("perm" convention), the alternative "i-reflect" convention
  multiplies each reflection by i;
* a half-wave plate at plate angle theta applies the real Jones matrix
  [[cos 2t, sin 2t], [sin 2t, -cos 2t]] to the (V, H) amplitudes, i.e.
  it rotates linear polarization by 2*theta.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .distinguishability import OverlapError, OverlapModel, overlap_from_delay
from .fock import ModeTransform
from .modes import H, V, ModeId, ModeRegistry

PBS_CONVENTIONS = ("perm", "i-reflect")


class ElementError(ValueError):
    pass


def _complex(value) -> complex:
    """A config's complex number: a plain number or an [re, im] pair."""
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


def _pair_block(registry: ModeRegistry, s1: str, s2: str, block2, name: str) -> ModeTransform:
    """Lift a (V,H)x(V,H) two-port block to all bins of two spatial labels.

    block2 is 4x4 over ((s1,V), (s1,H), (s2,V), (s2,H)).
    """
    modes = []
    for b in range(registry.bins):
        modes.extend(
            [ModeId(s1, V, b), ModeId(s1, H, b), ModeId(s2, V, b), ModeId(s2, H, b)]
        )
    n = len(modes)
    m = np.zeros((n, n), dtype=complex)
    for b in range(registry.bins):
        o = 4 * b
        m[o : o + 4, o : o + 4] = block2
    return ModeTransform(tuple(modes), m, name=name)


def pbs(registry: ModeRegistry, s1: str, s2: str, convention: str = "perm") -> ModeTransform:
    """Polarizing beamsplitter: H transmits, V reflects (swaps ports)."""
    if s1 == s2:
        raise ElementError("pbs needs two distinct spatial labels")
    registry.require_spatial(s1)
    registry.require_spatial(s2)
    if convention not in PBS_CONVENTIONS:
        raise ElementError(f"unknown PBS convention {convention!r}")
    r = 1j if convention == "i-reflect" else 1.0
    # Basis (s1 V, s1 H, s2 V, s2 H): V components swap, H stay.
    block = np.array(
        [
            [0, 0, r, 0],
            [0, 1, 0, 0],
            [r, 0, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    return _pair_block(registry, s1, s2, block, f"pbs({s1},{s2})")


def hwp(registry: ModeRegistry, s: str, plate_angle_deg: float) -> ModeTransform:
    """Half-wave plate on one spatial label, plate angle in degrees."""
    registry.require_spatial(s)
    t2 = 2.0 * math.radians(plate_angle_deg)
    c, sn = math.cos(t2), math.sin(t2)
    jones = np.array([[c, sn], [sn, -c]], dtype=complex)  # (V, H) basis
    modes = []
    for b in range(registry.bins):
        modes.extend([ModeId(s, V, b), ModeId(s, H, b)])
    m = np.zeros((len(modes), len(modes)), dtype=complex)
    for b in range(registry.bins):
        o = 2 * b
        m[o : o + 2, o : o + 2] = jones
    return ModeTransform(tuple(modes), m, name=f"hwp({s},{plate_angle_deg})")


def rpbs(registry: ModeRegistry, s1: str, s2: str, convention: str = "perm"):
    """45-degree oriented PBS: a PBS sandwiched by 22.5-degree plates.

    The composite acts on the +/-45 basis exactly as a plain PBS acts on
    V/H: the +45 component swaps ports and the -45 component stays.
    """
    if s1 == s2:
        raise ElementError("rpbs needs two distinct spatial labels")
    return [
        hwp(registry, s1, 22.5),
        hwp(registry, s2, 22.5),
        pbs(registry, s1, s2, convention),
        hwp(registry, s1, 22.5),
        hwp(registry, s2, 22.5),
    ]


def polarizer(registry: ModeRegistry, s: str, pass_angle_deg: float, loss: str) -> ModeTransform:
    """Linear polarizer as a unitary dilation onto a loss label.

    The pass-axis component stays in s; the orthogonal component is routed
    to the loss label (and vice versa, to keep the map unitary).
    """
    registry.require_spatial(s)
    registry.require_spatial(loss)
    if loss == s:
        raise ElementError("polarizer loss label must differ from its port")
    a = math.radians(pass_angle_deg)
    p = np.array([math.cos(a), math.sin(a)])  # pass axis, (V, H)
    o = np.array([-math.sin(a), math.cos(a)])  # orthogonal axis
    keep = np.outer(p, p)
    swap = np.outer(o, o)
    block = np.block([[keep, swap], [swap, keep]]).astype(complex)
    return _pair_block(registry, s, loss, block, f"polarizer({s},{pass_angle_deg})")


def phase_shift(registry: ModeRegistry, s: str, phi: float, pol: str | None = None) -> ModeTransform:
    """Diagonal phase e^{i phi} on one spatial label (optionally one pol)."""
    registry.require_spatial(s)
    modes = registry.group(s, pol=pol)
    m = np.diag([np.exp(1j * phi)] * len(modes))
    return ModeTransform(tuple(modes), m, name=f"phase({s},{phi:.4f})")


def beamsplitter(registry: ModeRegistry, s1: str, s2: str, transmissivity: float) -> ModeTransform:
    """Polarization-insensitive two-mode coupler with real amplitudes."""
    if s1 == s2:
        raise ElementError("beamsplitter needs two distinct spatial labels")
    if not 0.0 <= transmissivity <= 1.0:
        raise ElementError(f"transmissivity {transmissivity} outside [0, 1]")
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    # Rotation-like coupler: T = 1 is the identity.
    block = np.array(
        [
            [t, 0, r, 0],
            [0, t, 0, r],
            [-r, 0, t, 0],
            [0, -r, 0, t],
        ],
        dtype=complex,
    )
    return _pair_block(registry, s1, s2, block, f"beamsplitter({s1},{s2},{transmissivity})")


def bin_mixer(
    registry: ModeRegistry,
    s: str,
    overlap: complex,
    pol: str | None = None,
    bin_map: dict | None = None,
) -> ModeTransform:
    """Rewrite temporal bins of one spatial label by a partial overlap.

    Each source bin keeps amplitude `overlap` and leaks the remainder into
    its designated fresh bin: the 2x2 block [[v, -s], [s, conj(v)]] with
    s = sqrt(1 - |v|^2).  This is the common core of the delay element and
    of polarization-selective walk-off.
    """
    return _bin_block(registry, s, overlap, pol, bin_map, f"bin_mixer({s},{pol or 'HV'})")


def _bin_block(registry: ModeRegistry, s: str, overlap, pol, bin_map, name: str) -> ModeTransform:
    """The transform of bin_mixer, under the given name."""
    registry.require_spatial(s)
    v = complex(overlap)
    if abs(v) > 1.0 + 1e-12:
        raise ElementError(f"overlap magnitude {abs(v)} exceeds 1")
    sres = math.sqrt(max(0.0, 1.0 - abs(v) ** 2))
    if bin_map is None:
        bin_map = {0: 1}
    srcs = sorted(int(k) for k in bin_map)
    dsts = [int(bin_map[k] if k in bin_map else bin_map[str(k)]) for k in srcs]
    if len(set(srcs) | set(dsts)) != len(srcs) + len(dsts):
        raise ElementError(f"bin_map {bin_map} reuses a bin")
    for b in srcs + dsts:
        if not 0 <= b < registry.bins:
            raise ElementError(f"bin {b} outside registry range 0..{registry.bins - 1}")
    modes = _bin_modes(s, (H, V) if pol is None else (pol,), tuple(zip(srcs, dsts)))
    # The same 2x2 block on each (source, destination) pair of modes.
    pairs = len(modes) // 2
    m = np.zeros((pairs, 2, pairs, 2), dtype=complex)
    k = np.arange(pairs)
    m[k, :, k, :] = [[v, -sres], [sres, v.conjugate()]]
    return ModeTransform(modes, m.reshape(2 * pairs, 2 * pairs), name=name)


@functools.lru_cache(maxsize=256)
def _bin_modes(s: str, pols: tuple, pairs: tuple) -> tuple:
    """The modes of a bin block: per polarization, each (source, destination) bin pair.

    A scan re-lowers its delay at every point, so the tuple is built once.
    """
    return tuple(ModeId(s, p, b) for p in pols for pair in pairs for b in pair)


def delay(
    registry: ModeRegistry,
    s: str,
    delta_um: float,
    model: OverlapModel | None = None,
    pol: str | None = None,
    bin_map: dict | None = None,
) -> ModeTransform:
    """Path delay: bin rewrite with overlap v(delta) plus its fringe phase."""
    try:
        v = overlap_from_delay(delta_um, model)
    except (OverlapError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise ElementError(str(exc)) from exc
    return _bin_block(registry, s, v, pol, bin_map, f"delay({s},{delta_um}um)")


def _bin_args(el: dict) -> dict:
    """The pol and bin_map keywords of delay and bin_mixer, from a config element."""
    bin_map = el.get("bin_map")
    return {
        "pol": el.get("pol"),
        "bin_map": {int(k): int(v) for k, v in bin_map.items()} if bin_map else None,
    }


class ElementKind(NamedTuple):
    """Port count, fields and lowering of one config element kind.

    lower(registry, ports, el, model, convention) returns the one
    ModeTransform of the config element dict el; only a kind with
    reads_model uses the model.
    """

    ports: int
    required: tuple
    optional: tuple
    lower: Callable
    reads_model: bool = False


# Every element kind a config may name, in the schema's order.
ELEMENT_KINDS = {
    "pbs": ElementKind(2, (), (), lambda reg, p, el, model, conv: pbs(reg, *p, conv)),
    "rpbs": ElementKind(
        2, (), (), lambda reg, p, el, model, conv: compose(rpbs(reg, *p, conv), f"rpbs({p[0]},{p[1]})")
    ),
    "hwp": ElementKind(
        1,
        ("angle_deg",),
        (),
        lambda reg, p, el, model, conv: hwp(reg, *p, el["angle_deg"]),
    ),
    "polarizer": ElementKind(
        1,
        ("angle_deg", "loss"),
        (),
        lambda reg, p, el, model, conv: polarizer(reg, *p, el["angle_deg"], el["loss"]),
    ),
    "phase": ElementKind(
        1,
        (),
        ("phi", "pol"),
        lambda reg, p, el, model, conv: phase_shift(reg, *p, el.get("phi", 0.0), pol=el.get("pol")),
    ),
    "beamsplitter": ElementKind(
        2,
        ("transmissivity",),
        (),
        lambda reg, p, el, model, conv: beamsplitter(reg, *p, el["transmissivity"]),
    ),
    "delay": ElementKind(
        1,
        ("delta_um",),
        ("pol", "bin_map"),
        lambda reg, p, el, model, conv: delay(reg, *p, el["delta_um"], model=model, **_bin_args(el)),
        reads_model=True,
    ),
    "bin_mixer": ElementKind(
        1,
        ("overlap",),
        ("pol", "bin_map"),
        lambda reg, p, el, model, conv: bin_mixer(reg, *p, _complex(el["overlap"]), **_bin_args(el)),
    ),
}


def element_ports(el: dict) -> list:
    """The spatial labels a config element binds: `ports`, else `[port]`."""
    if "ports" in el:
        return list(el["ports"])
    return [el["port"]] if "port" in el else []


def lower_element(
    el: dict,
    registry: ModeRegistry,
    model: OverlapModel | None = None,
    convention: str = "perm",
):
    """Lower one validated config element to its one ModeTransform."""
    return ELEMENT_KINDS[el["kind"]].lower(registry, element_ports(el), el, model, convention)


def compose(transforms, name: str = "composite") -> ModeTransform:
    """Single ModeTransform, named name, equal to applying the sequence in order.

    When any transform holds a stack of matrices (one per scan point), so
    does the result.
    """
    transforms = list(transforms)
    if not transforms:
        raise ElementError("compose needs at least one transform")
    modes = tuple(sorted({m for t in transforms for m in t.modes}))
    pos = {m: i for i, m in enumerate(modes)}
    total = np.eye(len(modes), dtype=complex)
    for t in transforms:
        # A transform acts only on the rows of its own modes.
        rows = [pos[m] for m in t.modes]
        update = t.matrix @ total[..., rows, :]
        if update.ndim > total.ndim:
            total = np.broadcast_to(total, update.shape[:-2] + total.shape).copy()
        total[..., rows, :] = update
    return ModeTransform(modes, total, name=name)


def stack(transforms) -> ModeTransform:
    """One transform per scan point, as one ModeTransform whose matrix
    stacks them, each lifted to the union of their modes."""
    transforms = list(transforms)
    # The points of each distinct mode layout.  A scan's points usually
    # share one layout tuple, which compares by identity at once, while
    # hashing it would cost more per point than the assignment below.
    points: list[tuple[tuple, list[int]]] = []
    for k, t in enumerate(transforms):
        for layout, ks in points:
            if t.modes == layout:
                ks.append(k)
                break
        else:
            points.append((t.modes, [k]))
    modes = tuple(sorted({m for layout, _ in points for m in layout}))
    pos = {m: i for i, m in enumerate(modes)}
    total = np.tile(np.eye(len(modes), dtype=complex), (len(transforms), 1, 1))
    for layout, ks in points:
        rows = [pos[m] for m in layout]
        total[np.ix_(ks, rows, rows)] = np.stack([transforms[k].matrix for k in ks])
    return ModeTransform(modes, total, name="stack")

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

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .distinguishability import OverlapError, OverlapModel, overlap_from_delay
from .fock import ModeTransform, _at_points
from .modes import H, V, ModeId, ModeRegistry

PBS_CONVENTIONS = ("perm", "i-reflect")


class ElementError(ValueError):
    pass


def _shown(value, spec: str = "") -> str:
    """A field as a transform's name shows it; '...' for a stack's values."""
    return "..." if isinstance(value, np.ndarray) else format(value, spec)


def _complex(value):
    """A config's complex number: a plain number or an [re, im] pair; an
    array of them where a part is an array over a scan's points."""
    return _at_points(complex, *(value if isinstance(value, (list, tuple)) else [value]))


def _diagonal(block, modes, name: str) -> ModeTransform:
    """The transform applying block, k x k or a stack of them, to each
    successive k of modes."""
    block = np.asarray(block, dtype=complex)
    k, n = block.shape[-1], len(modes)
    m = np.zeros(block.shape[:-2] + (n // k, k, n // k, k), dtype=complex)
    g = np.arange(n // k)
    m[..., g, :, g, :] = block
    return ModeTransform(tuple(modes), m.reshape(block.shape[:-2] + (n, n)), name=name)


def _pair_block(registry: ModeRegistry, s1: str, s2: str, block2, name: str) -> ModeTransform:
    """Lift a (V,H)x(V,H) two-port block to all bins of two spatial labels.

    block2 is 4x4 over ((s1,V), (s1,H), (s2,V), (s2,H)).
    """
    modes = [ModeId(s, p, b) for b in range(registry.bins) for s in (s1, s2) for p in (V, H)]
    return _diagonal(block2, modes, name)


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
    block = [[0, 0, r, 0], [0, 1, 0, 0], [r, 0, 0, 0], [0, 0, 0, 1]]
    return _pair_block(registry, s1, s2, block, f"pbs({s1},{s2})")


def hwp(registry: ModeRegistry, s: str, plate_angle_deg: float) -> ModeTransform:
    """Half-wave plate on one spatial label, plate angle in degrees."""
    registry.require_spatial(s)

    def jones(angle):  # (V, H) basis
        t2 = 2.0 * math.radians(angle)
        c, sn = math.cos(t2), math.sin(t2)
        return [[c, sn], [sn, -c]]

    modes = [ModeId(s, p, b) for b in range(registry.bins) for p in (V, H)]
    return _diagonal(_at_points(jones, plate_angle_deg), modes, f"hwp({s},{_shown(plate_angle_deg)})")


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

    def block(angle):  # [[keep, swap], [swap, keep]], the projectors on the two axes
        a = math.radians(angle)
        p = (math.cos(a), math.sin(a))  # pass axis, (V, H)
        o = (-math.sin(a), math.cos(a))  # orthogonal axis
        keep, swap = [[x * y for y in p] for x in p], [[x * y for y in o] for x in o]
        return [k + w for k, w in zip(keep, swap)] + [w + k for w, k in zip(swap, keep)]

    name = f"polarizer({s},{_shown(pass_angle_deg)})"
    return _pair_block(registry, s, loss, _at_points(block, pass_angle_deg), name)


def phase_shift(registry: ModeRegistry, s: str, phi: float, pol: str | None = None) -> ModeTransform:
    """Diagonal phase e^{i phi} on one spatial label (optionally one pol)."""
    registry.require_spatial(s)
    e = _at_points(lambda p: [[np.exp(1j * p)]], phi)
    return _diagonal(e, registry.group(s, pol=pol), f"phase({s},{_shown(phi, '.4f')})")


def beamsplitter(registry: ModeRegistry, s1: str, s2: str, transmissivity: float) -> ModeTransform:
    """Polarization-insensitive two-mode coupler with real amplitudes."""
    if s1 == s2:
        raise ElementError("beamsplitter needs two distinct spatial labels")

    def block(transmissivity):
        if not 0.0 <= transmissivity <= 1.0:
            raise ElementError(f"transmissivity {transmissivity} outside [0, 1]")
        t, r = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
        # Rotation-like coupler: T = 1 is the identity.
        return [[t, 0, r, 0], [0, t, 0, r], [-r, 0, t, 0], [0, -r, 0, t]]

    name = f"beamsplitter({s1},{s2},{_shown(transmissivity)})"
    return _pair_block(registry, s1, s2, _at_points(block, transmissivity), name)


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

    def mixer(overlap):
        v = complex(overlap)
        if abs(v) > 1.0 + 1e-12:
            raise ElementError(f"overlap magnitude {abs(v)} exceeds 1")
        sres = math.sqrt(max(0.0, 1.0 - abs(v) ** 2))
        return [[v, -sres], [sres, v.conjugate()]]

    block = _at_points(mixer, overlap)
    if bin_map is None:
        bin_map = {0: 1}
    srcs = sorted(int(k) for k in bin_map)
    dsts = [int(bin_map[k] if k in bin_map else bin_map[str(k)]) for k in srcs]
    if len(set(srcs) | set(dsts)) != len(srcs) + len(dsts):
        raise ElementError(f"bin_map {bin_map} reuses a bin")
    for b in srcs + dsts:
        if not 0 <= b < registry.bins:
            raise ElementError(f"bin {b} outside registry range 0..{registry.bins - 1}")
    # The same 2x2 block on each (source, destination) pair of modes, per polarization.
    modes = [ModeId(s, p, b) for p in ((H, V) if pol is None else (pol,)) for pair in zip(srcs, dsts) for b in pair]
    return _diagonal(block, modes, name)


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
        v = _at_points(overlap_from_delay, delta_um, model)
    except (OverlapError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise ElementError(str(exc)) from exc
    return _bin_block(registry, s, v, pol, bin_map, f"delay({s},{_shown(delta_um)}um)")


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
    reads_model uses the model.  A numeric field of el (or a part of an
    [re, im] pair) may be an array over a scan's points, and model an
    array of OverlapModels, one per point: the transform then stacks one
    matrix per point, equal to that point's own (_at_points).
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
    """Lower one validated config element to its one ModeTransform, a
    stack where a field is an array over a scan's points (ElementKind)."""
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

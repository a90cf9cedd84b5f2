"""Write the byte corpus of the CLI's outputs.

    PYTHONPATH=src python tests/write_corpus.py [TARGET]

runs the CLI in-process and writes into TARGET (default
tests/data/exact/corpus/):

- for each preset under each convention, at --seed 5, its report, curve
  CSV and manifest (`--out`) and its `--format csv` report (stdout);
- the sampled presets under each convention at --seed 12345 (`--out`);
- `--preset chsh --shots 10000 --seed 5`;
- the `--config` JSON output of the polarizer-variant and delay configs
  in tests/data/;
- inputs/: the configs of the scans and failing runs below, as written
  from the preset builders;
- scan/: the CSV (stdout) of one `--config F --scan` of each kind a scan
  path can name;
- the failing scans and configs, whose stdout and stderr runs.json holds;
- runs.json: each run's arguments, exit code, stdout and stderr, with
  the output directory written as OUT and the corpus as CORPUS (stdout
  is null where a file holds it);
- VERSIONS: the Python and numpy that wrote the corpus.

Manifests are written without their `versions` field, which VERSIONS
records once.  test_corpus.py writes the corpus afresh and compares it
with the committed one byte for byte.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "exact" / "corpus"
CONFIGS = ("polarizer_variant_config.json", "fusion_delay_config.json")
SAMPLED = ("fusion-delay-scan", "polarization-correlation")
FUSION_OVERLAPS = "sources.branches.0.photons.2.overlap,sources.branches.0.photons.3.overlap"


def _set(raw: dict, path: str, value) -> dict:
    """A deep copy of raw with the field at a dotted path set to value."""
    out = copy.deepcopy(raw)
    *parents, leaf = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def _photon(raw: dict, photon: int, **fields) -> dict:
    """raw with fields set on one photon of its first branch, whose
    pol_angle_deg goes where pol_amps is set."""
    out = copy.deepcopy(raw)
    src = out["sources"]["branches"][0]["photons"][photon]
    if "pol_amps" in fields:
        del src["pol_angle_deg"]
    src.update(fields)
    return out


def _inputs() -> dict:
    """{name: raw config} of the scans' and failing runs' inputs."""
    from eventready.presets import (
        build_preset_config,
        fusion_delay_config,
        fusion_scheme_config,
        hom_config,
        polarizer_variant_config,
    )

    correlation = build_preset_config("polarization-correlation", {}).to_dict()
    delayed = _set(fusion_delay_config(), "elements.0.delta_um", 150.0)
    bin_map = _set(_set(fusion_delay_config(0.8), "elements.0.delta_um", 150.0), "elements.0.bin_map", {"0": 2})
    cancelling = hom_config()
    branch = cancelling["sources"]["branches"][0]
    cancelling["sources"]["branches"] = [dict(branch, amplitude=[1.0, 0.0]), dict(branch, amplitude=[0.5, 0.0])]
    walkoff = polarizer_variant_config(analyzer_walkoff=0.9)
    bucket = fusion_scheme_config()
    bucket["detectors"]["D1"] = {"spatial": "A2"}
    pair = hom_config()["sources"]["branches"][0]["photons"]
    return {
        "hom": hom_config(),
        "fusion-delay": fusion_delay_config(),
        "delayed": delayed,
        "bin-map": bin_map,
        "polarizer-variant": polarizer_variant_config(),
        "walkoff": walkoff,
        "correlation": correlation,
        "herald-scan": {**correlation, "analyzers": {"theta_a_deg": 0.0, "theta_b_deg": 45.0}},
        "pol-amps": _photon(hom_config(), 0, pol_amps=[0.6, [0.0, 0.8]]),
        "bins": _photon(hom_config(), 0, bins=[0.6, 0.8]),
        "cancelling-branches": cancelling,
        "photon-overlap-1.2": _set(hom_config(), "sources.branches.0.photons.1.overlap", 1.2),
        "bin-mixer-overlap-1.05": _set(walkoff, "elements.5.overlap", 1.05),
        "kept-duplicate": {**polarizer_variant_config(), "kept": ["A1", "A1"]},
        "zero-shares-required": {**bucket, "heralds": [{"name": "vh", "require": {"D1": 1, "D2h": 1}, "zero": ["D1h", "D2v"]}]},
        "zero-is-required": {**bucket, "heralds": [{"name": "hh", "require": {"D1h": 1, "D2h": 1}, "zero": ["D1h", "D1v", "D2v"]}]},
        "branch-of-1-photon": _set(hom_config(), "sources.branches", [{"photons": pair}, {"photons": pair[:1]}]),
        "branch-of-3-photons": _set(hom_config(), "sources.branches", [{"photons": pair}, {"photons": pair + pair[:1]}]),
        "loss-duplicate": _set(hom_config(), "elements.2.loss", "LP1"),
        "loss-photon": _set(polarizer_variant_config(), "sources.branches.0.photons.0.spatial", "LD1"),
        "spatial-duplicate": _set(hom_config(), "spatial_labels", ["A1", "A1", "A2", "LP1", "LP2"]),
        "modes-over-cap": _set(hom_config(), "spatial_labels", ["A1", "A2", "LP1", "LP2"] + [f"X{k}" for k in range(13)]),
    }


# (name, input, --scan argument) of each scan, one of each kind a path can name.
SCANS = (
    ("herald-scan", "herald-scan", f"{FUSION_OVERLAPS}=0.43:0.94:0.02"),
    ("herald-count", "correlation", "heralds.0.require.D1=0:2:1"),
    ("fusion-overlaps", "polarizer-variant", f"{FUSION_OVERLAPS}=0.5:1:0.02"),
    ("bin-mixer-overlap", "walkoff", "elements.5.overlap,elements.6.overlap=0:1:0.05"),
    ("coherence-length", "delayed", "model.coherence_length_um=10:300:10"),
    ("delay", "fusion-delay", "elements.0.delta_um=-20:20:0.25"),
    ("hwp-angle", "fusion-delay", "elements.4.angle_deg=0:90:2.5"),
    ("photon-overlap", "hom", "sources.branches.0.photons.1.overlap=0:1:0.05"),
    ("branch-amplitude", "fusion-delay", "sources.branches.1.amplitude.0=0.1:1:0.05"),
    ("pol-amps-part", "pol-amps", "sources.branches.0.photons.0.pol_amps.1.1=-0.8:0.8:1.6"),
    ("bins-part", "bins", "sources.branches.0.photons.0.bins.1=-0.8:0.8:1.6"),
    ("photon-budget", "hom", "photon_budget=2:4:1"),
    ("bin-map", "bin-map", "elements.0.bin_map.0=1:3:1"),
)

# (name, input, --scan argument) of each scan that fails, and why.
FAILING_SCANS = (
    # a block of eleven points that fails LeafCheck.passes at its seventh, which is then validated in full
    ("leaf-check-mid-block", "hom", "sources.branches.0.photons.1.overlap=0.5:1.5:0.1"),
    # an overlap past 1 passes the schema and fails the bin mixer's lowering
    ("bin-mixer-overlap-past-1", "walkoff", "elements.5.overlap=0.9:1.1:0.05"),
    ("junk", "hom", "junk=0:1:0.5"),
    ("photon-budget-too-small", "hom", "photon_budget=1:3:1"),
    # the two equal branches cancel at amplitude -1, which evolution refuses
    ("cancelling-branches", "cancelling-branches", "sources.branches.1.amplitude.0=-1.5:0:0.5"),
    ("no-range", "hom", "sources.branches.0.photons.1.overlap"),
    # a leaf whose schema is no bounded number, failing at its second point
    ("schema-version", "hom", "schema_version=1:2:1"),
    # a leaf each point reads from its own config: a non-integral count mid-block
    ("herald-count-non-integral", "correlation", "heralds.0.require.D1=0:2:0.5"),
    # the same kind of leaf, failing at its first point
    ("coherence-length-negative", "fusion-delay", "model.coherence_length_um=-10:100:50"),
)

# Each config that fails; kept-duplicate names one kept arm twice, the
# zero-* heralds zero a detector that shares modes with a required one, the
# branch-of-* sources hold a second branch of another photon count, the
# loss-* configs give two polarizers one loss label and put a photon on a
# loss label, and the last two repeat a spatial label and hold 17 labels at
# 4 bins, 136 modes.
FAILING_CONFIGS = (
    "photon-overlap-1.2",
    "bin-mixer-overlap-1.05",
    "kept-duplicate",
    "zero-shares-required",
    "zero-is-required",
    "branch-of-1-photon",
    "branch-of-3-photons",
    "loss-duplicate",
    "loss-photon",
    "spatial-duplicate",
    "modes-over-cap",
)


def _runs(inputs: Path):
    """(name, argv, writes files) of each run, argv without --out; inputs
    holds the configs of _inputs()."""
    from eventready.elements import PBS_CONVENTIONS
    from eventready.presets import PRESET_NAMES

    for convention in PBS_CONVENTIONS:
        for preset in PRESET_NAMES:
            argv = ["--preset", preset, "--seed", "5", "--convention", convention]
            yield f"{convention}/{preset}", argv, True
            yield f"{convention}/{preset}.report.csv", argv + ["--format", "csv"], False
    yield "chsh-shots", ["--preset", "chsh", "--shots", "10000", "--seed", "5"], True
    for name in CONFIGS:
        yield f"config/{name}", ["--config", str(DATA / name), "--format", "json"], False
    for convention in PBS_CONVENTIONS:
        for preset in SAMPLED:
            yield f"seed12345/{convention}/{preset}", ["--preset", preset, "--seed", "12345", "--convention", convention], True
    yield "seed12345/chsh-shots", ["--preset", "chsh", "--shots", "10000", "--seed", "12345"], True
    for name, config, scan in SCANS:
        yield f"scan/{name}.csv", ["--config", str(inputs / f"{config}.json"), "--scan", scan], False
    for name, config, scan in FAILING_SCANS:
        yield f"fails/scan/{name}", ["--config", str(inputs / f"{config}.json"), "--scan", scan], False
    for config in FAILING_CONFIGS:
        yield f"fails/config/{config}", ["--config", str(inputs / f"{config}.json"), "--format", "json"], False


def write_corpus(target: Path):
    """Write the corpus into target, which must not exist yet."""
    from eventready.cli import main

    target = Path(target)
    inputs = target / "inputs"
    inputs.mkdir(parents=True)
    for name, raw in _inputs().items():
        (inputs / f"{name}.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    records = []
    for name, argv, writes in _runs(inputs):
        out = target / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)] if writes else argv)
        if writes:
            for manifest in out.glob("*.manifest.json"):
                payload = json.loads(manifest.read_text(encoding="utf-8"))
                del payload["versions"]
                manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        elif stdout.getvalue():
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(stdout.getvalue(), encoding="utf-8")
        records.append({
            "name": name,
            "argv": [a.replace(str(inputs), "CORPUS/inputs").replace(str(DATA), "DATA") for a in argv]
            + (["--out", "OUT"] if writes else []),
            "exit_code": code,
            "stdout": stdout.getvalue().replace(str(out), "OUT") if writes or not stdout.getvalue() else None,
            "stderr": stderr.getvalue(),
        })
    (target / "runs.json").write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    (target / "VERSIONS").write_text(json.dumps(versions) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import shutil

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    shutil.rmtree(target, ignore_errors=True)
    write_corpus(target)
    print(f"wrote {target}")

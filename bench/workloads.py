"""The benchmark's workloads: inputs made from the seed, one pass, its gates.

Each workload is a closed loop with one client: a pass starts only after
the previous one has returned.  A pass is a fixed amount of work whose
size does not depend on the seed; the seed changes values only.  The
program is driven only through `eventready.cli.main` and `run_preset`,
both looked up at call time so that a traced pass sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
import traceback
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# Closed forms the gates compare against.
DELAY_POINTS = 1201  # the preset's grid, -600:600:1 um
DELAY_WIDTH_UM = 200.0
WALKOFF_VISIBILITY = 0.89  # analyzer walk-off of the polarization-correlation config
HERALD_P = 1.0 / 32.0
HERALD_POINTS = 26
HERALD_STEP = 0.02
TSIRELSON = 2.0 * math.sqrt(2.0)
SUITE = ("eq1-check", "bell-decomposition", "herald-table", "polarization-correlation", "chsh")
OVERLAP_PATHS = "sources.branches.0.photons.2.overlap,sources.branches.0.photons.3.overlap"


def _cli_main(argv) -> int:
    from eventready import cli

    # The CLI prints the files it wrote; the benchmark's own last line is its result.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _close(value, expected, tol) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


def gate_delay(report: dict, rows: list) -> int:
    """Failed delay points: each row must be a probability on the preset's
    grid, and the analytic refit must recover the 200 um envelope and unit
    peak visibility; a missed fit fails every point."""
    fit = report.get("fit_analytic", {})
    if not (
        len(rows) == DELAY_POINTS
        and _close(fit.get("envelope_width_um", math.nan), DELAY_WIDTH_UM, 1e-3)
        and _close(fit.get("peak_visibility", math.nan), 1.0, 1e-6)
    ):
        return DELAY_POINTS
    failed = 0
    for i, row in enumerate(rows):
        p = float(row["p_coincidence"])
        if float(row["delta_um"]) != i - 600 or not 0.0 <= p <= 1.0:
            failed += 1
    return failed


def gate_herald(rows: list, start: float) -> int:
    """Failed overlap points: every row heralds with 1/32 and has
    F(phi+) = (1 + w)(1 + |v|^2) / 4 for walk-off visibility w and overlap v."""
    failed = max(0, HERALD_POINTS - len(rows))
    for i, row in enumerate(rows[:HERALD_POINTS]):
        v = float(row["param"])
        expected_f = (1.0 + WALKOFF_VISIBILITY) * (1.0 + v * v) / 4.0
        if not (
            _close(v, start + i * HERALD_STEP, 1e-12)
            and _close(float(row["p_coincidence"]), HERALD_P, 1e-12)
            and _close(float(row["fidelity_phi_plus"]), expected_f, 1e-12)
        ):
            failed += 1
    return failed


def gate_preset(name: str, exit_code: int, report: dict) -> bool:
    """True when one preset call exits 0 and its report meets the closed form."""
    if exit_code != 0:
        return False
    if name == "eq1-check":
        return report["n_terms"] == 16
    if name == "bell-decomposition":
        return report["residual_norm"] < 1e-12
    if name == "herald-table":
        useful = report["useful_patterns"]
        return len(useful) == 4 and all(_close(p, HERALD_P, 1e-12) for p in useful.values())
    if name == "polarization-correlation":
        return _close(report["joint_visibility_analytic"], WALKOFF_VISIBILITY, 1e-12)
    if name == "chsh":
        return _close(report["S"], TSIRELSON, 1e-9)
    raise ValueError(f"no gate for preset {name!r}")


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_input(name: str) -> dict:
    return json.loads((INPUTS / name).read_text(encoding="utf-8"))


class Workload:
    """One workload bound to its seed and working directory.

    `run_pass` is the timed part; `check` reads the outputs afterwards and
    returns how many of the pass's `ops` operations failed.
    """

    name = ""
    ops = 0
    unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.rng = random.Random(seed)

    def describe(self) -> dict:
        return {"ops_per_pass": self.ops, "op": self.unit}

    def warm_up(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, outcome) -> int:
        raise NotImplementedError


class DelayScan(Workload):
    name = "delay-scan"
    ops = DELAY_POINTS
    unit = "delay point of the 2-photon, 4-label alignment circuit"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sampling_seed = self.rng.randrange(1, 2**31)
        self.out = self.workdir / "delay"
        self.argv = [
            "--preset", "fusion-delay-scan", "--out", str(self.out),
            "--seed", str(self.sampling_seed), "--shots", "10000",
        ]
        self.point_config = self.workdir / "delay_point.json"
        _write_json(self.point_config, _load_input("fusion_delay.json"))

    def describe(self):
        return {**super().describe(), "argv": self.argv}

    def warm_up(self):
        # One delay point through the same entry point: a config without --scan.
        code = _cli_main(["--config", str(self.point_config), "--out", str(self.workdir / "warm")])
        if code != 0:
            raise RuntimeError(f"warm-up delay point exited {code}")

    def run_pass(self):
        return _cli_main(self.argv)

    def check(self, exit_code) -> int:
        if exit_code != 0:
            return self.ops
        report = json.loads((self.out / "fusion-delay-scan.report.json").read_text(encoding="utf-8"))
        return gate_delay(report, _read_csv(self.out / "fusion-delay-scan.csv"))


class HeraldScan(Workload):
    name = "herald-scan"
    ops = HERALD_POINTS
    unit = "overlap point of the 4-photon, 6-label polarizer-variant circuit"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # 26 points of step 0.02 from START in [0.40, 0.50); the stop sits
        # half a step past the last point so the count never depends on rounding.
        self.start = round(0.40 + self.rng.randrange(1000) / 10000, 4)
        stop = self.start + (HERALD_POINTS - 1) * HERALD_STEP + HERALD_STEP / 2
        config = _load_input("polarization_correlation.json")
        config["analyzers"] = {"theta_a_deg": 0.0, "theta_b_deg": 45.0}
        self.config = self.workdir / "herald_config.json"
        _write_json(self.config, config)
        self.out = self.workdir / "herald"
        grid = f"{self.start!r}:{stop!r}:{HERALD_STEP!r}"
        self.argv = ["--config", str(self.config), "--scan", f"{OVERLAP_PATHS}={grid}", "--out", str(self.out)]
        self.warm_argv = ["--config", str(self.config), "--out", str(self.workdir / "warm")]

    def describe(self):
        return {**super().describe(), "argv": self.argv, "start": self.start}

    def warm_up(self):
        # One overlap point: the same config evaluated once, without --scan.
        code = _cli_main(self.warm_argv)
        if code != 0:
            raise RuntimeError(f"warm-up overlap point exited {code}")

    def run_pass(self):
        return _cli_main(self.argv)

    def check(self, exit_code) -> int:
        if exit_code != 0:
            return self.ops
        return gate_herald(_read_csv(self.out / "scan.csv"), self.start)


class PresetSuite(Workload):
    name = "preset-suite"
    ops = len(SUITE)
    unit = "run_preset call with report, manifest and curve files"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.preset_seed = self.rng.randrange(1, 2**31)
        self.out = self.workdir / "suite"

    def describe(self):
        return {**super().describe(), "presets": list(SUITE), "seed": self.preset_seed}

    def _call(self, name):
        from eventready import presets

        try:
            return presets.run_preset(name, out_dir=self.out, seed=self.preset_seed)
        except Exception:  # a failed call is a failed operation; the loop goes on
            traceback.print_exc(file=sys.stderr)
            return None

    def warm_up(self):
        if not gate_preset(SUITE[0], *_result_fields(self._call(SUITE[0]))):
            raise RuntimeError(f"warm-up preset {SUITE[0]} failed its gate")

    def run_pass(self):
        return [self._call(name) for name in SUITE]

    def check(self, results) -> int:
        failed = 0
        for name, result in zip(SUITE, results):
            ok = gate_preset(name, *_result_fields(result))
            failed += not (ok and all(Path(f).stat().st_size > 0 for f in result.files))
        return failed


def _result_fields(result):
    if result is None:
        return 1, {}
    return result.exit_code, result.report


WORKLOADS = {w.name: w for w in (DelayScan, HeraldScan, PresetSuite)}

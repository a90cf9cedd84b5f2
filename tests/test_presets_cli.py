import ast
import csv
import importlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eventready import ExperimentConfig
from eventready.cli import main
from eventready.presets import (
    PRESET_NAMES,
    PresetError,
    build_preset_config,
    evaluate_config,
    fusion_delay_config,
    fusion_scheme_config,
    hom_config,
    polarizer_variant_config,
    parse_range,
    run_preset,
    scan,
)

ROOT = Path(__file__).resolve().parent.parent
# Subprocesses import the package from this checkout, however pytest was started.
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
REFERENCE_DOMAIN = "reference must be null or a dict with a finite 'S' and an 'E' dict of finite numbers"
THETA_STEP_DOMAIN = "theta_step_deg must divide 180 into 7 or more steps"


class TestScan:
    def test_range_spec_parsing(self):
        assert parse_range("0:1:0.5") == pytest.approx([0.0, 0.5, 1.0])
        with pytest.raises(PresetError):
            parse_range("0:1")
        with pytest.raises(PresetError):
            parse_range("0:0.1:0.5")
        for step in ("0", "-0.5"):
            with pytest.raises(PresetError, match="^range step must be positive$"):
                parse_range(f"0:1:{step}")
        with pytest.raises(PresetError, match="^scan needs at least one parameter path$"):
            scan(ExperimentConfig.from_dict(hom_config()), " , ", "0:1:0.5")

    def test_analyzer_angle_scan_follows_malus_correlation(self):
        raw = polarizer_variant_config()
        raw["analyzers"] = {"theta_a_deg": 0.0, "theta_b_deg": 45.0}
        config = ExperimentConfig.from_dict(raw)
        rows = scan(config, "analyzers.theta_a_deg", "0:180:10")
        assert len(rows) == 19
        herald_p = rows[0]["p_coincidence"]
        for row in rows:
            theta = row["param"]
            expected = 0.25 * (1 + math.cos(2 * math.radians(theta - 45.0)))
            assert row["p_pass_pass"] == pytest.approx(expected, abs=1e-10)
            assert row["coincidence_probability"] == pytest.approx(
                herald_p * expected, abs=1e-12
            )

    def test_fusion_overlap_scan_fidelity_monotone(self):
        # Both photons of the delayed pair share the overlap knob.
        config = build_preset_config("chsh", {})
        rows = scan(
            config,
            "sources.branches.0.photons.2.overlap,sources.branches.0.photons.3.overlap",
            "0:1:0.1",
        )
        fids = [row["fidelity_phi_plus"] for row in rows]
        assert fids[0] == pytest.approx(0.5, abs=1e-12)
        assert fids[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(a <= b + 1e-12 for a, b in zip(fids, fids[1:]))

    @pytest.mark.parametrize(
        "path, message",
        [
            ("name", "does not address a numeric field"),
            ("sources.branches.5.photons.0.overlap", "no field '5'"),
            ("sources.branches.x.photons.0.overlap", "no field 'x'"),
            ("elements.0.kind.x", "no field 'x'"),
        ],
        ids=["string-leaf", "index-out-of-range", "non-integer-index", "field-of-a-string"],
    )
    def test_non_numeric_path_rejected(self, tmp_path, capsys, path, message):
        from eventready.presets import hom_config

        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), "--scan", f"{path}=0:1:0.5"]) == 1
        assert f"eventready: error: scan path {path!r}" in capsys.readouterr().err
        with pytest.raises(PresetError, match=message):
            scan(ExperimentConfig.from_dict(hom_config()), path, "0:1:0.5")


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(PresetError, match="unknown preset"):
            run_preset("warp-drive")

    def test_unknown_override_key_rejected(self):
        with pytest.raises(PresetError, match="no parameter 'visiblity'"):
            run_preset("polarization-correlation", overrides={"visiblity": 0.9})
        with pytest.raises(PresetError, match="no parameter 'scan'"):
            build_preset_config("chsh", {"scan": "0:1:0.5"})

    def test_eq1_check_passes_and_emits(self, tmp_path):
        result = run_preset("eq1-check", out_dir=tmp_path)
        assert result.exit_code == 0
        assert result.report["n_terms"] == 16
        assert result.report["max_amplitude_deviation"] < 1e-12
        report = json.loads((tmp_path / "eq1-check.report.json").read_text())
        assert len(report["amplitudes"]) == 16
        manifest = json.loads((tmp_path / "eq1-check.manifest.json").read_text())
        assert manifest["preset"] == "eq1-check"
        assert len(manifest["config_hash"]) == 64

    def test_bell_decomposition_residual(self):
        result = run_preset("bell-decomposition")
        assert result.exit_code == 0
        assert result.report["residual_norm"] < 1e-12

    def test_herald_table_notes_both_success_numbers(self):
        result = run_preset("herald-table")
        report = result.report
        assert report["enumerated_success_probability"] == pytest.approx(0.125, abs=1e-10)
        assert report["quoted_upper_bound"] == pytest.approx(3 / 16)
        assert "1/8" in report["note"] and "3/16" in report["note"]
        for name in ("hh", "vv", "hv", "vh"):
            assert report["useful_patterns"][name] == pytest.approx(1 / 32, abs=1e-12)

    def test_hom_preset_dip(self):
        result = run_preset("hom-scan")
        assert result.report["dip_visibility"] == pytest.approx(0.94, abs=1e-10)

    def test_chsh_preset_ideal(self):
        result = run_preset("chsh")
        assert result.report["S"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_chsh_reference_comparison_harness(self):
        reference = {
            "E": {"ab": 0.57, "ab_prime": -0.67, "a_prime_b": 0.65, "a_prime_b_prime": 0.69},
            "S": 2.58,
        }
        result = run_preset(
            "chsh", overrides={"fusion_overlap_sq": 0.89, "reference": reference}
        )
        comparison = result.report["reference_comparison"]
        assert comparison["S_delta"] == pytest.approx(result.report["S"] - 2.58)
        # Model correlations sit inside a loose band around the reference set.
        for key in reference["E"]:
            assert abs(comparison[f"E_{key}_delta"]) < 0.1

    def test_delta_scan_envelope_recovery(self):
        from eventready.analysis import fit_delay_fringe
        from eventready.presets import fusion_delay_config

        config = ExperimentConfig.from_dict(fusion_delay_config(1.0))
        rows = scan(config, "elements.0.delta_um", "-400:400:7")
        fit = fit_delay_fringe(
            [r["param"] for r in rows],
            [r["p_coincidence"] for r in rows],
            0.788 / 2.0,
        )
        assert abs(fit["envelope_width_um"] - 200.0) <= 0.05 * 200.0
        assert fit["peak_visibility"] == pytest.approx(1.0, abs=1e-6)

    def test_reports_reproducible_bit_for_bit(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_preset("polarization-correlation", out_dir=a, seed=7, shots=2000)
        run_preset("polarization-correlation", out_dir=b, seed=7, shots=2000)
        for name in (
            "polarization-correlation.report.json",
            "polarization-correlation.csv",
            "polarization-correlation.manifest.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_sampled_counts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_preset("polarization-correlation", out_dir=a, seed=7, shots=2000)
        run_preset("polarization-correlation", out_dir=b, seed=8, shots=2000)
        assert (a / "polarization-correlation.csv").read_bytes() != (
            b / "polarization-correlation.csv"
        ).read_bytes()

    def test_correlation_rows_are_numpys_draw_in_csv_order(self, tmp_path):
        """The 38 rows of both curves, drawn from one default_rng(seed) in CSV order."""
        run_preset("polarization-correlation", out_dir=tmp_path, seed=7, shots=2000)
        text = (tmp_path / "polarization-correlation.csv").read_text()
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        names = ("pp", "pf", "fp", "ff")
        probs = np.array([[float(row[f"p_{name}"]) for name in ("pass_pass", "pass_fail", "fail_pass", "fail_fail")] for row in rows])
        expected = np.random.default_rng(7).multinomial(2000, probs / np.add.reduce(probs, axis=1)[:, None])
        assert len(rows) == 38
        assert [[int(row[f"counts_{name}"]) for name in names] for row in rows] == expected.tolist()

    def test_csv_has_versioned_header(self, tmp_path):
        run_preset("hom-scan", out_dir=tmp_path)
        lines = (tmp_path / "hom-scan.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].split(",")[0] == "overlap"

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        # numpy scalar reprs (np.float64(...)) must never leak into CSV.
        run_preset(
            "fusion-delay-scan",
            overrides={"delta_range": "-5:5:1"},
            out_dir=tmp_path,
            seed=1,
            shots=100,
        )
        lines = (tmp_path / "fusion-delay-scan.csv").read_text().splitlines()
        assert "np." not in "\n".join(lines)
        for line in lines[2:]:
            for cell in line.split(","):
                float(cell)

    def test_evaluate_config_exposes_herald_and_bells(self):
        config = build_preset_config("chsh", {})
        obs = evaluate_config(config)
        assert obs["p_coincidence"] == pytest.approx(1 / 32, abs=1e-12)
        assert obs["fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-12)
        assert obs["concurrence"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("count, probability", [(1, 0.2421875), (5, 0.0)], ids=["no-qubit-support", "cannot-fire"])
    def test_herald_without_a_qubit_pair_reports_its_probability_only(self, count, probability):
        # One photon in D1h leaves kept supports that are not one photon per
        # arm; five photons there never happen.
        raw = fusion_scheme_config()
        raw["heralds"] = [{"name": "d1h", "require": {"D1h": count}}]
        obs = evaluate_config(ExperimentConfig.from_dict(raw))
        assert obs.pop("p_d1h") == probability
        bells = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
        assert list(obs) == [f"fidelity_{name}" for name in bells] + ["concurrence"]
        assert all(math.isnan(value) for value in obs.values())


class TestCli:
    def test_preset_run_exit_zero(self, tmp_path, capsys):
        code = main(["--preset", "chsh", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chsh.report.json" in out

    def test_error_exit_one_lists_all_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "spatial_labels": ["A1"],
                    "sources": {
                        "branches": [
                            {"photons": [{"spatial": "A1", "pol_angle_deg": "x"}]}
                        ]
                    },
                    "bins": "four",
                }
            )
        )
        code = main(["--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("config error") >= 2

    def test_check_failure_exit_two(self, tmp_path, capsys):
        # The phi+ re-expansion identity holds only under the default
        # reflection convention; with i-per-reflection the stage state is
        # phi- x phi- and the check preset reports the mismatch.
        code = main(["--preset", "bell-decomposition", "--convention", "i-reflect"])
        assert code == 2
        err = capsys.readouterr().err
        assert "check failed" in err

    def test_check_failure_via_sabotaged_stage(self):
        # An extra plate in the two-PBS stage breaks the 16x1/4 dump.
        from eventready.presets import two_pbs_config, run_eq1_check

        raw = two_pbs_config()
        raw["elements"].append({"kind": "hwp", "port": "A1", "angle_deg": 22.5})
        config = ExperimentConfig.from_dict(raw)
        report, _, ok = run_eq1_check(config, {}, 0, 0)
        assert not ok

    def test_missing_selector_is_error(self, capsys):
        assert main([]) == 1

    def test_scan_from_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "hom.json"
        from eventready.presets import hom_config

        cfg_path.write_text(json.dumps(hom_config()))
        code = main(
            [
                "--config",
                str(cfg_path),
                "--scan",
                "sources.branches.0.photons.1.overlap=0:1:0.25",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert len(lines) == 2 + 5

    @pytest.mark.parametrize(
        "path, value",
        [
            ("elements.0.delta_um", math.inf),
            ("elements.0.delta_um", math.nan),
            ("sources.branches.0.photons.0.pol_angle_deg", math.nan),
        ],
    )
    def test_non_finite_number_names_its_path(self, tmp_path, capsys, path, value):
        from eventready.presets import fusion_delay_config

        raw = fusion_delay_config()
        *parents, leaf = path.split(".")
        node = raw
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[leaf] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
        assert main(["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"$.{path}: non-finite number" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--shots", "100"], "--shots"),
            (["--seed", "7"], "--seed"),
            (["--format", "csv"], "--format csv"),
            (["--scan", "sources.branches.0.photons.1.overlap=0:1:0.5", "--format", "json"], "--format json"),
            (["--scan", "sources.branches.0.photons.1.overlap"], "--scan needs PATH=START:STOP:STEP"),
        ],
    )
    def test_config_run_rejects_flags_it_would_ignore(self, tmp_path, capsys, flags, named):
        from eventready.presets import hom_config

        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), *flags, "--out", str(tmp_path)]) == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_config_json_on_stdout_equals_the_observables_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), "--format", "json"]) == 0
        printed = capsys.readouterr().out
        assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert printed == (tmp_path / "observables.json").read_text()
        assert json.loads(printed) == evaluate_config(ExperimentConfig.from_dict(hom_config()))

    def test_config_convention_flag_equals_the_convention_written_in(self, tmp_path):
        raw = fusion_scheme_config()
        cfg_path = tmp_path / "fusion.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--convention", "i-reflect", "--out", str(tmp_path / "flag")]) == 0
        flagged = json.loads((tmp_path / "flag" / "observables.json").read_text())
        assert flagged == evaluate_config(ExperimentConfig.from_dict({**raw, "convention": "i-reflect"}))
        assert flagged != evaluate_config(ExperimentConfig.from_dict(raw))

    @pytest.mark.parametrize("path", ["elements.1.angle_deg", "sources.branches.0.photons.0.pol_angle_deg"])
    def test_integer_too_large_for_a_float_names_its_path(self, tmp_path, capsys, path):
        raw = hom_config()
        *parents, leaf = path.split(".")
        node = raw
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[leaf] = 10**400
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(raw))
        error = f"eventready: config error: $.{path}: integer too large for a float\n"
        for scan_args in ([], ["--scan", "sources.branches.0.photons.1.overlap=0:1:0.5"]):
            assert main(["--config", str(cfg_path), *scan_args]) == 1
            assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_csv_report_parses_into_key_value_rows(self, tmp_path, capsys, preset):
        assert main(["--preset", preset, "--format", "csv"]) in (0, 2)
        printed = capsys.readouterr().out
        assert main(["--preset", preset, "--format", "csv", "--out", str(tmp_path)]) in (0, 2)
        for text in (printed, (tmp_path / f"{preset}.report.csv").read_text()):
            lines = text.splitlines(keepends=True)
            assert lines[0] == "# schema_version=1\n"
            rows = list(csv.reader(lines[1:]))
            assert rows[0] == ["key", "value"]
            assert {len(row) for row in rows} == {2}
            keys = [key for key, _ in rows[1:]]
            assert len(keys) == len(set(keys))
            # One scalar per cell: no repr of a dict, list or tuple.
            assert not [value for _, value in rows[1:] if value.startswith(("{", "[", "("))]

    def test_scan_accepts_format_csv(self, tmp_path, capsys):
        from eventready.presets import hom_config

        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        argv = ["--config", str(cfg_path), "--scan", "sources.branches.0.photons.1.overlap=0:1:0.5"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].startswith("param,")

    @pytest.mark.parametrize(
        "raw, paths, value, plain",
        [
            (polarizer_variant_config(analyzer_walkoff=0.9), ["elements.5.overlap", "elements.6.overlap"], [0.9, 0.0], 0.9),
            (hom_config(), ["sources.branches.0.photons.1.overlap"], [0.0, 0.9], 0.9),
        ],
        ids=["bin-mixer-re-im", "photon-imaginary"],
    )
    def test_re_im_overlap_gives_the_observables_of_its_number(self, tmp_path, raw, paths, value, plain):
        # Only |v|^2 of a photon's overlap enters the coincidence.
        observables = {}
        for name, overlap in (("pair", value), ("number", plain)):
            for path in paths:
                *parents, leaf = path.split(".")
                node = raw
                for key in parents:
                    node = node[int(key)] if isinstance(node, list) else node[key]
                node[leaf] = overlap
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(raw))
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
            observables[name] = json.loads((tmp_path / name / "observables.json").read_text())
        assert observables["pair"] == pytest.approx(observables["number"], abs=1e-12)

    def test_preset_csv_on_stdout_equals_the_report_file(self, tmp_path, capsys):
        assert main(["--preset", "eq1-check", "--format", "csv"]) == 0
        printed = capsys.readouterr().out
        assert main(["--preset", "eq1-check", "--format", "csv", "--out", str(tmp_path)]) == 0
        assert printed.encode("utf-8") == (tmp_path / "eq1-check.report.csv").read_bytes()

    def test_print_schema(self, capsys):
        assert main(["--print-schema"]) == 0
        assert '"schema_version"' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--preset", "chsh", "--out", "OUT"], "--preset, --out"),
            (["--config", "CONFIG"], "--config"),
            (["--config", "CONFIG", "--scan", "sources.branches.0.photons.1.overlap=0:1:0.5", "--out", "OUT"], "--config, --out, --scan"),
            (["--format", "json"], "--format"),
            (["--convention", "perm"], "--convention"),
        ],
        ids=["preset-out", "config", "config-scan-out", "format", "convention"],
    )
    def test_print_schema_refuses_every_other_flag(self, tmp_path, capsys, flags, named):
        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        argv = [{"OUT": str(tmp_path / "out"), "CONFIG": str(cfg_path)}.get(flag, flag) for flag in flags]
        assert main(["--print-schema", *argv]) == 1
        assert capsys.readouterr() == ("", f"eventready: error: --print-schema cannot be used with {named}\n")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_scan_with_a_preset_is_refused(self, tmp_path, capsys):
        argv = ["--preset", "eq1-check", "--scan", "elements.0.angle_deg=0:1:1", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "eventready: error: --scan needs --config\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--preset", "nope"], "argument --preset: invalid choice: 'nope'"),
            (["--preset", "eq1-check", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["--preset", "eq1-check", "--bogus"], "unrecognized arguments: --bogus"),
            (["--preset", "eq1-check", "--config", "x.json"], "argument --config: not allowed with argument --preset"),
        ],
        ids=["unknown-preset", "bad-seed", "unknown-flag", "preset-and-config"],
    )
    def test_usage_error_exits_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: eventready ")
        assert f"\neventready: error: {message}" in err

    def test_usage_error_and_help_exit_codes_from_the_shell(self):
        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "eventready.cli", *args], capture_output=True, text=True, env=SRC_ENV
            )

        bad = cli("--preset", "nope")
        assert bad.returncode == 1
        assert bad.stderr.startswith("usage: eventready ") and "eventready: error: argument --preset" in bad.stderr
        helped = cli("--help")
        assert helped.returncode == 0 and helped.stdout.startswith("usage: eventready ")

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "eventready.cli", "--preset", "eq1-check", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("preset", ["fusion-delay-scan", "eq1-check"], ids=["sampling", "non-sampling"])
    @pytest.mark.parametrize("flag", ["--seed", "--shots"])
    def test_negative_seed_or_shots_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, preset, flag):
        import eventready.presets as presets

        built = []
        monkeypatch.setattr(presets, "build_preset_config", lambda *a: built.append(a))
        argument = flag.lstrip("-")
        with pytest.raises(PresetError, match=f"^{argument} must be >= 0, got -1$"):
            run_preset(preset, out_dir=tmp_path, **{argument: -1})
        assert main(["--preset", preset, flag, "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"eventready: error: {flag} must be >= 0, got -1\n"
        assert built == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shots", [2**63 - 1, 2**63, 10**20 - 1], ids=["most", "one-more", "twenty-digits"])
    def test_shots_at_most_what_numpy_draws(self, capsys, shots):
        if shots < 2**63:
            assert main(["--preset", "chsh", "--shots", str(shots)]) == 0
            assert json.loads(capsys.readouterr().out)["shots_per_setting"] == shots
        else:
            assert main(["--preset", "chsh", "--shots", str(shots)]) == 1
            assert capsys.readouterr().err == f"eventready: error: --shots must be <= {2**63 - 1}, got {shots}\n"

    @pytest.mark.parametrize(
        "preset, key, value, message",
        [
            ("polarization-correlation", "visibility", -0.1, "visibility must be a number >= 0, got -0.1"),
            ("chsh", "fusion_overlap_sq", -1.0, "fusion_overlap_sq must be a number >= 0, got -1.0"),
            ("herald-table", "fusion_overlap_sq", -0.5, "fusion_overlap_sq must be a number >= 0, got -0.5"),
            ("hom-scan", "operating_overlap_sq", -0.94, "operating_overlap_sq must be a number >= 0, got -0.94"),
            ("fusion-delay-scan", "peak_visibility", -1, "peak_visibility must be a number >= 0, got -1"),
            ("chsh", "settings", (0.0, 45.0, 22.5), "settings must be four angles (a, a', b, b'), got (0.0, 45.0, 22.5)"),
            ("chsh", "settings", ("a", 1, 2, 3), "settings must be four angles (a, a', b, b'), got ('a', 1, 2, 3)"),
            ("chsh", "settings", (math.nan, 45.0, 22.5, 67.5), "settings must be four angles (a, a', b, b'), got (nan, 45.0, 22.5, 67.5)"),
            ("chsh", "reference", 5, f"{REFERENCE_DOMAIN}, got 5"),
            ("chsh", "reference", {"S": "2.8"}, f"{REFERENCE_DOMAIN}, got {{'S': '2.8'}}"),
            ("chsh", "reference", {"E": {"ab": None}}, f"{REFERENCE_DOMAIN}, got {{'E': {{'ab': None}}}}"),
            ("chsh", "reference", {"E": {"abx": 0.5}, "s": 2.7}, "reference has no key 's'; choose from ['E', 'S']"),
            (
                "chsh",
                "reference",
                {"E": {"abx": 0.5}, "S": 2.7},
                "reference 'E' has no key 'abx'; choose from ['ab', 'ab_prime', 'a_prime_b', 'a_prime_b_prime']",
            ),
            ("polarization-correlation", "visibility", 1.2, "visibility must be <= 1, got 1.2"),
            ("chsh", "fusion_overlap_sq", 1.5, "fusion_overlap_sq must be <= 1, got 1.5"),
            ("hom-scan", "operating_overlap_sq", 1.01, "operating_overlap_sq must be <= 1, got 1.01"),
            ("fusion-delay-scan", "peak_visibility", 2, "peak_visibility must be <= 1, got 2"),
            ("fusion-delay-scan", "delta_range", 5, "delta_range must be a range of 5 or more points, got 5"),
            ("fusion-delay-scan", "delta_range", "0:1:1", "delta_range must be a range of 5 or more points, got '0:1:1'"),
            ("fusion-delay-scan", "delta_range", "0:1", "delta_range: bad range spec '0:1', expected start:stop:step"),
            ("hom-scan", "scan", None, "scan must be a range of 2 or more points, got None"),
            ("hom-scan", "scan", "0:inf:0.1", "scan: range '0:inf:0.1' has a non-finite start, stop or step"),
            *(
                ("polarization-correlation", "theta_step_deg", step, f"{THETA_STEP_DOMAIN}, got {step!r}")
                for step in (7, 11, 25, 30, 179, 180.0)
            ),
            ("polarization-correlation", "theta_step_deg", 0, "theta_step_deg: range step must be positive"),
            ("polarization-correlation", "theta_step_deg", -10.0, "theta_step_deg: range step must be positive"),
            (
                "polarization-correlation",
                "theta_step_deg",
                math.inf,
                "theta_step_deg: range '0:180:inf' has a non-finite start, stop or step",
            ),
            (
                "polarization-correlation",
                "theta_step_deg",
                True,
                "theta_step_deg: bad range spec '0:180:True', expected start:stop:step",
            ),
            (
                "polarization-correlation",
                "theta_step_deg",
                1e-3,
                "theta_step_deg: range '0:180:0.001' yields more than 100000 points",
            ),
        ],
    )
    def test_parameter_outside_its_domain_rejected_before_any_work(self, tmp_path, monkeypatch, preset, key, value, message):
        import dataclasses

        import eventready.presets as presets

        built = []
        original = presets.PRESETS[preset]
        monkeypatch.setitem(
            presets.PRESETS, preset, dataclasses.replace(original, build=lambda p: built.append(p) or original.build(p))
        )
        with pytest.raises(PresetError) as exc:
            run_preset(preset, overrides={key: value}, out_dir=tmp_path)
        assert str(exc.value) == f"preset {preset!r}: {message}"
        assert built == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step, points", [(180.0 / 7.0, 8), (22.5, 9)])
    def test_theta_step_dividing_180_runs(self, step, points):
        report = run_preset("polarization-correlation", overrides={"theta_step_deg": step}, shots=0).report
        assert report["points_per_curve"] == points

    def test_hom_scan_starting_at_no_coincidence_rejected_before_any_file(self, tmp_path):
        """A scan that starts where the coincidence probability is 0 leaves
        the dip without a baseline, which would report a NaN visibility."""
        message = (
            "preset 'hom-scan': scan must start where the coincidence probability, the dip's baseline, is not 0; "
            "'-1:1:0.5' starts at overlap -1.0, where it is 0"
        )
        with pytest.raises(PresetError, match=f"^{re.escape(message)}$"):
            run_preset("hom-scan", overrides={"scan": "-1:1:0.5"}, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        # Under i-reflect the same scan starts at a peak, not at 0.
        assert math.isfinite(run_preset("hom-scan", overrides={"scan": "-1:1:0.5"}, convention="i-reflect").report["dip_visibility"])

    def test_hom_scan_starting_at_a_rounding_remnant_rejected(self):
        """A start one ulp off -1 leaves a baseline of 2.8e-17, not 0, which
        would report a visibility of -2.7e14: a baseline within NORM_TOL of
        0 is refused as 0 is."""
        spec = "-0.9999999999999999:1:0.5"
        message = (
            "preset 'hom-scan': scan must start where the coincidence probability, the dip's baseline, is not 0; "
            f"{spec!r} starts at overlap -0.9999999999999999, where it is 0"
        )
        with pytest.raises(PresetError, match=f"^{re.escape(message)}$"):
            run_preset("hom-scan", overrides={"scan": spec})

    @pytest.mark.parametrize(
        "preset, key",
        [("eq1-check", "amplitudes"), ("hom-scan", "operating_coincidence")],
        ids=["eq1-check", "hom-scan"],
    )
    def test_convention_flag_round_trip(self, tmp_path, preset, key):
        values = {}
        for convention in ("perm", "i-reflect"):
            out = tmp_path / convention
            assert main(["--preset", preset, "--convention", convention, "--out", str(out)]) == 0
            manifest = json.loads((out / f"{preset}.manifest.json").read_text())
            assert manifest["convention"] == convention
            values[convention] = json.loads((out / f"{preset}.report.json").read_text())[key]
        assert values["i-reflect"] != values["perm"]

    def test_csv_report_format(self, tmp_path):
        code = main(["--preset", "chsh", "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        lines = (tmp_path / "chsh.report.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "key,value"
        rows = dict(line.split(",", 1) for line in lines[2:])
        assert float(rows["S"]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert "E.ab" in rows


class TestOutOfRangeDelays:
    """Schema-valid delays whose float arithmetic runs out of range either
    reach the overlap's limit or fail with the element's JSON path."""

    @pytest.mark.parametrize(
        "field, value, scan_arg, expected",
        [
            ("delta_um", 1e200, "elements.0.delta_um=1e200:3e200:1e200", [0.25, 0.25, 0.25]),
            ("coherence_length_um", 1e-200, "elements.0.delta_um=0:300:150", [0.5, 0.25, 0.25]),
            ("fringe_period_um", 1e-310, "elements.0.delta_um=0:10:5", None),
        ],
        ids=["delta-1e200", "coherence-1e-200", "fringe-1e-310"],
    )
    def test_config_and_scan_exit_cleanly(self, tmp_path, capsys, field, value, scan_arg, expected):
        raw = fusion_delay_config()
        if field == "delta_um":
            raw["elements"][0]["delta_um"] = value
        else:
            raw["model"][field] = value
            raw["elements"][0]["delta_um"] = 5.0 if expected is None else 0.0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        single = main(["--config", str(cfg_path)])
        single_out = capsys.readouterr()
        scanned = main(["--config", str(cfg_path), "--scan", scan_arg])
        scan_out = capsys.readouterr()
        if expected is None:
            error = "eventready: error: $.elements.0: no finite fringe phase for a 5.0 um delay at a 1e-310 um period\n"
            assert (single, single_out.err, single_out.out) == (1, error, "")
            assert (scanned, scan_out.err, scan_out.out) == (1, error, "")
            return
        assert (single, single_out.err, scanned, scan_out.err) == (0, "", 0, "")
        assert float(single_out.out.split(" = ")[1]) == pytest.approx(expected[0], abs=1e-12)
        rows = [line.split(",") for line in scan_out.out.splitlines()[2:]]
        assert [float(p) for _, p in rows] == pytest.approx(expected, abs=1e-12)


def test_demo_and_readme_imports_resolve():
    """Every `from eventready... import NAME` in the demos and the README's
    python blocks names something public the package has; nothing is run."""
    root = Path(__file__).resolve().parent.parent
    sources = {p.name: p.read_text() for p in sorted((root / "demos").glob("*.py"))}
    readme = (root / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md python block {i}"] = block
    assert len(sources) >= 8
    missing = []
    for where, code in sources.items():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eventready":
                module = importlib.import_module(node.module)
                missing += [
                    f"{where}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") or not hasattr(module, alias.name)
                ]
    assert missing == []


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_public_names_are_unique_and_resolve():
    import eventready

    names = eventready.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(eventready, name)] == []


def test_no_run_imports_scipy(tmp_path):
    """Every preset, a sampled fusion-delay-scan, a --config and a --scan
    run without importing scipy; the manifests record the versions of
    Python and the two runtime dependencies, and the delay scan still
    reports both fits."""
    import eventready

    code = """
import json, sys
from pathlib import Path
from eventready.cli import main
from eventready.presets import PRESET_NAMES

out, config = Path(sys.argv[1]), sys.argv[2]
runs = [["--preset", name, "--out", str(out / name)] for name in PRESET_NAMES]
runs += [
    ["--preset", "fusion-delay-scan", "--shots", "100", "--out", str(out / "shots")],
    ["--config", config, "--out", str(out / "config")],
    ["--config", config, "--scan", "elements.0.delta_um=-10:10:1", "--out", str(out / "scan")],
]
print(json.dumps([main(argv) for argv in runs]), file=sys.stderr)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
"""
    src = str(Path(eventready.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), str(ROOT / "tests" / "data" / "fusion_delay_config.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    exit_codes, scipy_modules = (json.loads(line) for line in proc.stderr.splitlines())
    assert exit_codes == [0] * (len(PRESET_NAMES) + 3)
    assert scipy_modules == []
    for name in PRESET_NAMES:
        versions = json.loads((tmp_path / name / f"{name}.manifest.json").read_text())["versions"]
        assert list(versions) == ["jsonschema", "numpy", "python"]
        assert versions["python"] == platform.python_version()
        assert all(isinstance(v, str) and v for v in versions.values())
    report = json.loads((tmp_path / "shots" / "fusion-delay-scan.report.json").read_text())
    assert sorted(key for key in report if key.startswith("fit_")) == ["fit_analytic", "fit_sampled"]


def test_valid_run_never_imports_jsonschema(tmp_path):
    """Every preset, a valid --config, a valid --config --scan and
    --print-schema run without importing jsonschema; an invalid --config
    imports it to word its refusal."""
    code = """
import json, sys
from pathlib import Path
from eventready.cli import main
from eventready.presets import PRESET_NAMES

out, config, bad = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
runs = [["--preset", name, "--out", str(out / name)] for name in PRESET_NAMES]
runs += [
    ["--config", config, "--out", str(out / "config")],
    ["--config", config, "--scan", "elements.0.delta_um=-10:10:1", "--out", str(out / "scan")],
    ["--print-schema"],
    ["--config", bad],
]
print(json.dumps([(main(argv), "jsonschema" in sys.modules) for argv in runs]), file=sys.stderr)
"""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**hom_config(), "bins": True}))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), str(ROOT / "tests" / "data" / "fusion_delay_config.json"), str(bad)],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    *refusal, verdicts = proc.stderr.splitlines()
    assert refusal == ["eventready: config error: $.bins: True is not of type 'integer'"]
    assert json.loads(verdicts) == [[0, False]] * (len(PRESET_NAMES) + 3) + [[1, True]]

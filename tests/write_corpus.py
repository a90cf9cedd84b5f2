"""Write the byte corpus of the CLI's single-config outputs.

    PYTHONPATH=src python tests/write_corpus.py [TARGET]

runs the CLI in-process and writes into TARGET (default
tests/data/exact/corpus/):

- for each preset under each convention, at --seed 5, its report, curve
  CSV and manifest (`--out`) and its `--format csv` report (stdout);
- `--preset chsh --shots 10000 --seed 5`;
- the `--config` JSON output of the polarizer-variant and delay configs
  in tests/data/;
- runs.json: each run's arguments, exit code, stdout and stderr, with
  the output directory written as OUT;
- VERSIONS: the Python and numpy that wrote the corpus.

Manifests are written without their `versions` field, which VERSIONS
records once.  test_corpus.py writes the corpus afresh and compares it
with the committed one byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "exact" / "corpus"
CONFIGS = ("polarizer_variant_config.json", "fusion_delay_config.json")


def _runs():
    """(name, argv, writes files) of each run, argv without --out."""
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


def write_corpus(target: Path):
    """Write the corpus into target, which must not exist yet."""
    from eventready.cli import main

    target = Path(target)
    target.mkdir(parents=True)
    records = []
    for name, argv, writes in _runs():
        out = target / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)] if writes else argv)
        if writes:
            for manifest in out.glob("*.manifest.json"):
                payload = json.loads(manifest.read_text(encoding="utf-8"))
                del payload["versions"]
                manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(stdout.getvalue(), encoding="utf-8")
        records.append({
            "name": name,
            "argv": [a.replace(str(DATA), "DATA") for a in argv] + (["--out", "OUT"] if writes else []),
            "exit_code": code,
            "stdout": stdout.getvalue().replace(str(out), "OUT") if writes else None,
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

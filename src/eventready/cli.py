"""Command-line front end.

Exit codes: 0 success, 1 error (bad config, unknown preset or flag, any
other usage error, I/O), 2 when a check-style preset misses its
acceptance threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .config import ConfigError, parse_config, schema_json
from .elements import PBS_CONVENTIONS
from .presets import (
    PRESET_NAMES,
    PresetArgumentError,
    PresetError,
    csv_text,
    evaluate_config,
    json_text,
    report_table,
    run_preset,
    scan,
    write_csv,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other bad invocation does; 2 means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eventready",
        description="Simulate event-ready entangled-pair experiments.",
    )
    what = parser.add_mutually_exclusive_group(required=False)
    what.add_argument("--preset", choices=PRESET_NAMES, help="built-in experiment to run")
    what.add_argument("--config", type=Path, help="JSON experiment config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed")
    parser.add_argument("--shots", type=int, default=None, help="samples per point (0 = analytic)")
    parser.add_argument(
        "--scan",
        metavar="PATH=START:STOP:STEP",
        default=None,
        help="scan a numeric field of the --config file, e.g. elements.0.delta_um=-600:600:1",
    )
    parser.add_argument(
        "--convention",
        choices=PBS_CONVENTIONS,
        default=None,
        help="polarizing-beamsplitter reflection phase convention",
    )
    parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default=None,
        dest="fmt",
        help="report format (default json); a --scan writes CSV",
    )
    parser.add_argument("--print-schema", action="store_true", help="print the config schema and exit (no other flag)")
    return parser


# main parses with one parser per process; building it costs more than a parse.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # The flags given besides --print-schema, since every flag but it and --help defaults to None.
    others = [a.option_strings[0] for a in parser._actions if a.default is None and getattr(args, a.dest) is not None]
    if args.print_schema and not others:
        print(schema_json())
        return 0
    # Each flag the run would ignore is refused.  A config run does no
    # sampling, --scan output is always CSV, and a preset has no --scan.
    for given, message in (
        (args.print_schema, f"--print-schema cannot be used with {', '.join(others)}"),
        (args.preset and args.scan, "--scan needs --config"),
        (args.config and args.shots is not None, "--shots cannot be used with --config"),
        (args.config and args.seed is not None, "--seed cannot be used with --config"),
        (args.config and args.fmt == "csv" and not args.scan, "--format csv needs --scan when used with --config"),
        (args.config and args.fmt == "json" and args.scan, "--format json cannot be used with --scan"),
    ):
        if given:
            print(f"eventready: error: {message}", file=sys.stderr)
            return 1
    if not args.preset and not args.config:
        parser.print_usage(sys.stderr)
        print("eventready: error: one of --preset or --config is required", file=sys.stderr)
        return 1
    try:
        if args.config:
            config = parse_config(args.config)
            if args.convention:
                # argparse allows only PBS_CONVENTIONS, and no config rule reads the convention.
                config = dataclasses.replace(config, convention=args.convention)
            if args.scan:
                path, _, range_spec = args.scan.partition("=")
                if not range_spec:
                    print("eventready: error: --scan needs PATH=START:STOP:STEP", file=sys.stderr)
                    return 1
                rows = scan(config, path, range_spec)
                columns = list(dict.fromkeys(key for row in rows for key in row))
                if args.out:
                    args.out.mkdir(parents=True, exist_ok=True)
                    target = args.out / "scan.csv"
                    write_csv(target, columns, rows)
                    print(f"wrote {target}")
                else:
                    sys.stdout.write(csv_text(columns, rows))
                return 0
            observables = evaluate_config(config)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                target = args.out / "observables.json"
                write_json(target, observables)
                print(f"wrote {target}")
            elif args.fmt == "json":
                sys.stdout.write(json_text(observables))
            else:
                for key, value in observables.items():
                    print(f"{key} = {value}")
            return 0
        result = run_preset(
            args.preset,
            out_dir=args.out,
            seed=args.seed,
            shots=args.shots,
            convention=args.convention,
            fmt=args.fmt or "json",
        )
        if args.out is None:
            if args.fmt == "csv":
                sys.stdout.write(csv_text(*report_table(result.report)))
            else:
                sys.stdout.write(json_text(result.report))
        else:
            for path in result.files:
                print(f"wrote {path}")
        if result.exit_code == 2:
            print(f"eventready: check failed for preset {args.preset}", file=sys.stderr)
        return result.exit_code
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"eventready: config error: {violation}", file=sys.stderr)
        return 1
    except PresetArgumentError as exc:
        # Each run_preset argument has the flag of the same name.
        print(f"eventready: error: --{exc}", file=sys.stderr)
        return 1
    except (PresetError, OSError, ValueError) as exc:
        print(f"eventready: error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

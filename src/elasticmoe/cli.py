"""Command-line front end: run sweeps, run ablation suites, validate configs.

Exit codes: 0 on success, 1 for config problems (unreadable, unparseable,
or invalid), 2 for runtime failures and, from argparse, for usage errors
such as a --jobs below 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import runner
from .runner import ConfigError, RunnerError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_JOBS_HELP = (
    "scenarios evaluated concurrently in threads; output is identical for "
    "any value, but the threads share the interpreter lock, so more than 1 "
    "is not faster"
)


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elasticmoe",
        description="Cost-model sweeps for elastic speculative MoE decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every scenario in a config file")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("-o", "--output", default="-", help="output path, - for stdout")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--jobs", type=positive_int, default=1, help=_JOBS_HELP)

    ablate_p = sub.add_parser("ablate", help="run a bundled ablation suite")
    ablate_p.add_argument(
        "suite", help=f"one of {', '.join(runner.ABLATION_SUITES)}"
    )
    ablate_p.add_argument("-o", "--output", default="-")
    ablate_p.add_argument("--format", choices=("csv", "json"), default="csv")
    ablate_p.add_argument("--jobs", type=positive_int, default=1, help=_JOBS_HELP)

    validate_p = sub.add_parser("validate", help="check a config file and exit")
    validate_p.add_argument("config")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            configs = runner.load_config(args.config)
            rows = runner.run_scenarios(configs, max_workers=args.jobs)
            runner.emit(rows, args.format, args.output)
        elif args.command == "ablate":
            rows = runner.ablation_suite(args.suite, max_workers=args.jobs)
            runner.emit(rows, args.format, args.output)
        elif args.command == "validate":
            configs = runner.load_config(args.config)
            print(f"OK: {len(configs)} scenario(s) valid")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RunnerError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: ``widthlab run <config> [--out DIR] [--seed U64]
[--jobs INT] [--quiet]``."""

from __future__ import annotations

import argparse
import sys

from .runner import run


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Certified width/entropy experiments on finite set models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config file of experiments")
    runp.add_argument("config", help="INI config, one experiment per section")
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override every experiment seed")
    runp.add_argument("--jobs", type=_positive_int, default=1,
                      help="config sections run in this many worker processes "
                           "(serially where fork does not exist; results are identical)")
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        code = run(args.config, out_dir=args.out, seed=args.seed,
                   jobs=args.jobs, quiet=args.quiet)
        if argv is None:
            sys.exit(code)
        return code
    return 1


if __name__ == "__main__":
    main()

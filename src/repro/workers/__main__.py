"""Command-line entry point for the worker daemon.

Start a worker on any host that can reach the pool::

    python -m repro.workers serve --connect pool-host:8761

The shared secret comes from ``REPRO_MASTER_TOKEN`` (or ``--token``).
The pool's own ``spawn://`` workers do not come through this CLI: they
are :mod:`multiprocessing` children that call
:func:`repro.workers.worker.serve` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from .worker import serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workers",
        description="Campaign worker daemon.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    serve_cmd = commands.add_parser(
        "serve", help="connect to a pool and evaluate points"
    )
    serve_cmd.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the pool to join",
    )
    serve_cmd.add_argument(
        "--token",
        default=None,
        help="shared secret (default: REPRO_MASTER_TOKEN env var)",
    )
    serve_cmd.add_argument(
        "--retry",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="keep retrying the connect for this long (default 10)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        serve(args.connect, token=args.token, retry_s=args.retry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())

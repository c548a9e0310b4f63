"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload pretrain-small --seed 1 --seconds 30 --trace 0

Writes the workload's inputs from the seed, drives the amrforge CLI
in-process from the checkout's ``src/`` for about ``--seconds``, checks
the outputs, and prints a report line and then the result line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
pass.  Exits non-zero, printing no result, when the checkout has no
amrforge source.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("pretrain-small", "docs-large", "eval-small")


def use_checkout_source() -> None:
    """Put the checkout's amrforge first on the import path, or exit."""
    if not (SOURCE / "amrforge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no amrforge source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    import harness  # imports amrforge, so only once the source is on the path

    report, result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

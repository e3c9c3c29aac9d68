"""Benchmark entry point.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with the per-layer measurements on and prints every per-layer
metric instead, each with the end-to-end metric it should move.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
definitions, per workload, are in ``perfbench/catalog.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import catalog  # noqa: E402
from perfbench.common import Checkout, SetupError, environment  # noqa: E402

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        checkout = Checkout.here()
        checkout.import_program()
        workload = importlib.import_module(f"perfbench.{args.workload}_wl")
        result = workload.run(checkout, args.seed, args.seconds, bool(args.trace))
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    names = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    values = dict(result.layers if args.trace else result.end_to_end)
    if args.trace:
        values.update({name: 0.0 for name in catalog.bypassed(args.workload)})
    missing = [name for name in names if name not in values]
    if missing:
        print(f"perfbench: workload {args.workload} did not measure {missing}", file=sys.stderr)
        return 3
    bad = [name for name in names if not math.isfinite(values[name])]
    if bad:
        print(f"perfbench: non-finite metric(s) {bad}", file=sys.stderr)
        return 3

    for message in result.failures[:20]:
        print(f"FAIL {message}")
    if len(result.failures) > 20:
        print(f"FAIL ... and {len(result.failures) - 20} more")
    env = environment()
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    for note in result.notes:
        print(f"note {note}")
    print(catalog.render(args.workload, names, values, traced=bool(args.trace)))

    attempted = max(result.attempted, 1)
    failed = max(result.failed, 1) if result.failures else 0
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": names[name]} for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The STPSJoin benchmark: one command for every workload.

    python3 perfbench/run.py --workload api-batch --seed 1 --seconds 40 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones of a separate traced run.  Exits 1 when any output was
wrong and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("api-batch", "api-observed", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.bootstrap()
    except common.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = common.Result(args.workload, args.seed, bool(args.trace))
    result.report["host"] = common.host_stamp(args.seed)
    if args.trace:
        from perfbench import layers

        layers.run(args.workload, args.seed, args.seconds, result)
    elif args.workload == "serve-mixed":
        from perfbench import serve

        serve.run(args.seed, args.seconds, result)
    else:
        from perfbench import api

        api.run(args.workload, args.seed, args.seconds, result)
    result.emit()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

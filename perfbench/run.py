"""adpredict benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload learn-serial --seed 2024 --seconds 20 --trace 0

Run from the root of a source tree (the directory holding ``src/adpredict``).
``--seed`` drives the synthetic panel only; the program sees the generated
panel files. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and writes its spans under
``.perfbench-traces/``. Every metric is printed as a line with its unit and
the last line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. A store that fails its correctness gate exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adpredict" / "__init__.py").is_file():
        print(f"error: no adpredict sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.trace:
            trace_path = ROOT / ".perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
            outcome = bench.trace(workload, args.seed, work, trace_path)
            units = bench.PER_LAYER
        else:
            outcome = bench.measure(workload, args.seed, args.seconds, work)
            units = bench.END_TO_END
    except bench.GateError as exc:
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in outcome.lines:
        print(f"{args.workload}: {line}")
    for name, unit in units.items():
        print(f"{args.workload}: {name} = {outcome.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

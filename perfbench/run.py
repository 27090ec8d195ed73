"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload annotate_local --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that fills the per-layer ledger.  Metric names and
units come from ``BENCHMARK.json``.  Earlier stdout lines carry the
environment the run was measured on and the workload's notes (sample counts,
failures); the last line is the result::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

The exit code is 1 when any output check failed and 2 when the program
under test is missing.

This process is a launcher: it builds the serving checkpoint if needed, then
runs the workload in a fresh child process with ``PYTHONHASHSEED=0`` and one
BLAS thread, and passes the child's output and exit code through.  The
workload process thus waits for no child but its own, so its peak RSS and
its children's peak never include checkpoint training.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy is imported anywhere in this process;
# children inherit it through harness.pinned_env().
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402

import harness  # noqa: E402

WORKLOADS = ("annotate_local", "serve_http", "chip_eco", "train_link")
# Set in the workload process the launcher starts.
WORKER = "PERFBENCH_WORKER"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for smoke tests")
    return parser.parse_args(argv)


def launch(argv) -> int:
    """Build the checkpoint, then run the workload in its own process."""
    harness.checkpoint_path()
    env = dict(harness.pinned_env(), **{WORKER: "1"})
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                          env=env, check=False).returncode


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {harness.SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if os.environ.get(WORKER) != "1":
        return launch(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(harness.SRC))
    os.environ["PYTHONPATH"] = harness.pinned_env()["PYTHONPATH"]
    print(json.dumps({"env": harness.environment()}), flush=True)

    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, args.seconds, bool(args.trace), args.size)

    metrics, idle = {}, []
    for entry in declared_metrics(bool(args.trace)):
        value = outcome.metrics.get(entry["name"])
        if value is None:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {entry['name']}")
            # A layer this workload never calls did no work.
            value = 0.0
            idle.append(entry["name"])
        if not math.isfinite(value):
            raise RuntimeError(f"{entry['name']} is {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    notes = dict(outcome.notes, failures=outcome.failures)
    if idle:
        notes["layers_not_exercised"] = idle
    print(json.dumps({"workload": args.workload, "seed": args.seed, "notes": notes}),
          flush=True)
    print(json.dumps({"correct": outcome.failed == 0 and outcome.attempted > 0,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}), flush=True)
    return 0 if outcome.failed == 0 and outcome.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())

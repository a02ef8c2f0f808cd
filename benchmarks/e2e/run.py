#!/usr/bin/env python3
"""The repo's wall-clock end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --repeat 5 --json out/A.json
    python3 benchmarks/e2e/run.py --workload adhoc_join_30 --seed 13 --trace 1
    python3 benchmarks/e2e/run.py --regen-golden

With ``--workload`` the run happens in this process, prints every metric
as ``workload metric value unit`` and ends with one JSON line (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Without it every workload runs in its own subprocess, with
the traced pass, and the records go to ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import groupby
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
try:
    import repro  # noqa: F401
except ImportError:  # not installed and no PYTHONPATH: use the checkout's src/
    sys.path.insert(1, str(HERE.parent.parent / "src"))

from e2ebench import protocol  # noqa: E402
from e2ebench.metrics import (  # noqa: E402
    DRIVER_END_TO_END,
    DRIVER_UNBOUNDED,
    END_TO_END,
    PER_LAYER,
)
from e2ebench.workloads import WORKLOADS  # noqa: E402


def print_record(record: dict) -> None:
    """Every metric by name, with its unit."""
    name = record["workload"]
    samples, passes = record["samples"], record["passes"]
    for metric, value in record["end_to_end"].items():
        unit = END_TO_END[metric][0]
        if metric.startswith("read_"):
            unit += f"  (over {samples['read']} reads pooled from {passes} passes)"
        elif metric.startswith("write_"):
            unit += f"  (over {samples['write']} writes pooled from {passes} passes)"
        elif metric in ("setup_s", "ops_per_s"):
            unit += f"  (median of {passes} passes)"
        print(f"{name} {metric} {value:.6g} {unit}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name} {metric} {value:.6g} {PER_LAYER[metric][0]}")
    for layer, share in record.get("layer_shares", {}).items():
        if share:
            print(f"{name} share.{layer} {100 * share:.1f} %")
    print(
        f"{name} checked {record['attempted']} ops against the {record['checked_against']}: "
        f"{record['failed']} failed"
    )


def contract_line(record: dict, trace: bool) -> str:
    """The single JSON object the driver reads from the last line."""
    if trace:
        metrics = {
            metric: {"value": record["per_layer"][metric], "unit": unit}
            for metric, (unit, _better) in PER_LAYER.items()
        }
        for metric in DRIVER_UNBOUNDED:  # 0 where the workload has no write
            metrics[metric] = {
                "value": record["end_to_end"].get(metric, 0.0),
                "unit": END_TO_END[metric][0],
            }
    else:
        metrics = {
            metric: {
                "value": record["end_to_end"][metric],
                "unit": END_TO_END[metric][0],
            }
            for metric in DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def run_suite(seed: int, seconds: float, names: list[str]) -> list[dict]:
    """Each workload in its own interpreter, traced; returns the records."""
    protocol.OUT_DIR.mkdir(exist_ok=True)
    records = []
    for name in names:
        path = protocol.OUT_DIR / f"{name}.seed{seed}.last.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
             "--json", str(path)],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
        print_record(records[-1])
    return records


def print_repeats(runs: list[list[dict]]) -> None:
    """min / q1 / median / q3 / max of every end-to-end metric over the runs."""
    print(f"\n{len(runs)} runs: workload metric min q1 median q3 max unit")
    for position, first in enumerate(runs[0]):
        for metric in first["end_to_end"]:
            values = sorted(run[position]["end_to_end"][metric] for run in runs)
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            print(
                f"{first['workload']} {metric} {values[0]:.6g} {q1:.6g} "
                f"{median:.6g} {q3:.6g} {values[-1]:.6g} {END_TO_END[metric][0]}"
            )


def regen_golden(names: list[str]) -> None:
    """Recompute the committed fingerprints from the slow independent oracles."""
    protocol.GOLDEN_DIR.mkdir(exist_ok=True)
    protocol.OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        for seed in protocol.GOLDEN_SEEDS:
            started = time.perf_counter()
            inputs = workload.generate(seed)
            with tempfile.TemporaryDirectory(dir=protocol.OUT_DIR) as workdir:
                reference = workload.reference(inputs, Path(workdir) / "world")
            if reference != workload.expected(inputs):
                raise SystemExit(
                    f"{name} seed {seed}: the run-time oracle disagrees with the "
                    "independent reference; not writing a golden file"
                )
            path = protocol.GOLDEN_DIR / f"{name}.seed{seed}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({
                    "workload": name, "seed": seed, "ops": len(inputs.ops),
                    "ops_digest": inputs.ops_digest(),
                    # run-length encoded: consecutive ops mostly agree
                    "fingerprints": [
                        [value, len(list(run))] for value, run in groupby(reference)
                    ],
                }, handle)
                handle.write("\n")
            print(f"{path.name}: {len(reference)} ops in {time.perf_counter() - started:.1f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=protocol.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=protocol.RUN_SECONDS,
                        help="scales the ops per pass; the op counts are sized for %(default)s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="write the record(s) here")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.regen_golden:
        regen_golden(names)
        return 0
    if args.workload and args.repeat == 1:
        record = protocol.run_workload(
            args.workload, args.seed, args.seconds, trace=bool(args.trace)
        )
        print_record(record)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
        print(contract_line(record, bool(args.trace)))
        return 0

    runs = [run_suite(args.seed, args.seconds, names) for _ in range(args.repeat)]
    if args.repeat > 1:
        print_repeats(runs)
    out = args.json or str(
        protocol.OUT_DIR / f"run-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
    print(f"records written to {out}")
    return 0 if all(record["correct"] for run in runs for record in run) else 1


if __name__ == "__main__":
    sys.exit(main())

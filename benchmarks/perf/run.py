#!/usr/bin/env python3
"""Real-time performance benchmark of the simulator, end to end and per layer.

Runs each workload named in ``BENCHMARK.json`` in a fresh child process,
one at a time, checks the simulator's outputs, and prints one
``workload metric value unit`` line per metric followed by one JSON object
as the last line of standard output::

    python3 benchmarks/perf/run.py                       # all workloads, untraced
    python3 benchmarks/perf/run.py --workload smp_spin --seed 3
    python3 benchmarks/perf/run.py --workload guest_mix --trace 1

``--trace 0`` reports the end-to-end metrics, their times at the reference
host speed of ``gauge.py``; ``--trace 1`` reports the per-layer
metrics of a separate run under ``cProfile`` (and writes
``<workload>.layers.json`` and ``<workload>.pstats`` into ``--out``).  The
full result document goes to ``--json`` (default ``<out>/result.json``).
Exit status: 0 when every check passed, 1 when any failed, 2 when the
simulator sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: separate import-time probes per run; set-up time takes their median
IMPORT_SAMPLES = 7
#: how closely import time and the time inside set-up spans follow the
#: host-speed gauge (see ``Workload.sensitivity``), fit once like it
IMPORT_SENSITIVITY = 0.8
SETUP_SENSITIVITY = 0.8


def interquartile_mean(values) -> float:
    """Mean of the middle half of a non-empty sample (all of it below four)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def tail_mean(values) -> float:
    """Mean of the slowest tenth of a non-empty sample, at least one value."""
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, round(len(ordered) / 10)):])


def child_env() -> dict:
    """The parent's environment without REPRO_* switches, hash seed pinned."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(arguments) -> dict:
    """Run child.py to completion; its last stdout line is its result."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py")] + arguments,
        env=child_env(), stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(arguments)} exited with {completed.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, import_s: float) -> dict:
    """Every timing is a median over the run's units, each unit's times at
    the reference host speed (multiplied by its ``host_factor`` raised to
    the workload's ``sensitivity``, each op's by its own factor, each
    set-up span's by its own factor raised to ``SETUP_SENSITIVITY``).

    Op latencies are summarised by means over many ops, not by single
    order statistics: most workloads' ops differ from one another (48
    different boots), so a percentile would be one or two ops long and
    carry the host's noise at that moment.
    """
    def scaled(times, factors, sensitivity=result["sensitivity"]):
        return [seconds * factor ** sensitivity for seconds, factor in zip(times, factors)]

    walls = scaled(result["wall_s"], result["host_factor"])
    kips = [instructions / wall / 1e3 for instructions, wall in zip(result["instructions"], walls)]

    def per_op(summary) -> float:
        return statistics.median(summary(scaled(ops, op_factors)) for ops, op_factors
                                 in zip(result["ops_ms"], result["op_factors"]))

    return {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + statistics.median(
            sum(scaled(spans, factors, SETUP_SENSITIVITY))
            for spans, factors in zip(result["setup_s"], result["setup_factors"])),
        "guest_kips": statistics.median(kips),
        "op_ms_mid": per_op(interquartile_mean),
        "op_ms_tail": per_op(tail_mean),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement budget per workload; whole units are "
                             "run, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one unit, for the harness's own tests")
    parser.add_argument("--out", default=str(ROOT / ".perf_results"),
                        help="directory for traces and the result document")
    parser.add_argument("--json", default=None, help="result document path")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated harness still stops and waits for its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(args.out, exist_ok=True)

    imports = [run_child(["--import-only"]) for _ in range(IMPORT_SAMPLES)]
    import_s = statistics.median(probe["import_s"] * probe["host_factor"] ** IMPORT_SENSITIVITY
                                 for probe in imports)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    document = {"seed": args.seed, "trace": args.trace, "smoke": args.smoke,
                "import_s": import_s, "import_probes": imports, "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for name in args.workload or names:
        child_args = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", args.out]
        try:
            result = run_child(child_args + (["--smoke"] if args.smoke else []))
        except RuntimeError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            result = {"attempted": 1, "failed": 1, "failures": [str(error)]}
        values = {}
        if "wall_s" in result:
            values = result["per_layer"] if args.trace else end_to_end(result, import_s)
        result["metrics"] = {metric: values[metric] for metric in units if metric in values}
        document["workloads"][name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        for failure in result["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        prefix = "" if len(args.workload or names) == 1 else f"{name}."
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} {value!r} {units[metric]}")
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}

    with open(args.json or os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process; prints its measurements as one JSON line.

``run.py`` starts this script once per workload, with ``src`` on
``PYTHONPATH``, ``PYTHONHASHSEED=0`` and every ``REPRO_*`` variable removed,
and reads the last line of its standard output.  Untraced, it runs as many
whole units as fit ``--seconds`` (at least one; exactly one with
``--smoke``), each under the host-speed gauge of ``gauge.py``, and reports
their raw times with the host factor of each unit, op and set-up span and
the workload's ``sensitivity`` to it.  With
``--trace 1`` it runs one untraced unit and then one unit under
``cProfile`` with a dispatch counter attached, and writes
``<workload>.layers.json`` and ``<workload>.pstats`` into ``--out``.

Every run times the imports a workload process makes, gauging the host
while they run; ``--import-only`` reports that and exits, and the parent
starts several of these to measure import time.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback
from collections import Counter

from gauge import HostGauge

#: expected sha256 of each workload's modeled outputs, per input size
EXPECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expect.json")
#: gauge interval while the imports (~0.2 s) are timed, for about ten passes
IMPORT_INTERVAL_S = 0.02
#: raw counter sums copied into the exact counters unchanged
_PLAIN_COUNTERS = (
    "vcml.simulate_calls", "vcml.syncs", "fabric.transports", "iss.blocks_entered",
    "kvm.runs", "kvm.mmio_exits", "kvm.wfi_blocks", "kvm.intr_exits",
    "core.watchdog_fired", "core.kicks_filtered", "models.gic_acks",
    "models.timer_expirations", "guest.instructions", "guest.modeled_wall_ns",
    "snapshot.trace_entries", "telemetry.series", "flight.journal_events",
    "divergence.windows",
)
#: per-layer values timed from outside on the untraced unit (0 where absent)
_TIMED_EXTRAS = ("snapshot.capture_s", "snapshot.save_s", "snapshot.load_s",
                 "snapshot.fork_s", "observer_tax", "gc_settle_s")


def exact_counters(counts: Counter, extra: dict) -> dict:
    """Counters that repeat exactly from run to run, ratios derived."""
    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    exact = {name: counts[name] for name in _PLAIN_COUNTERS}
    exact["vcml.router_decode_hit_ratio"] = ratio("vcml.decode_hits", "vcml.decode_lookups")
    exact["tlm.pool_reuse_ratio"] = ratio("tlm.pool_reuses", "tlm.pool_acquires")
    exact["arch.tlb_hit_ratio"] = ratio("arch.tlb_hits", "arch.tlb_lookups")
    transfers = counts["fabric.dmi_hits"] + counts["fabric.transports"]
    exact["fabric.dmi_hit_ratio"] = counts["fabric.dmi_hits"] / transfers if transfers else 0.0
    exact["snapshot.rsnap_kb"] = extra.get("snapshot.rsnap_kb", 0.0)
    if "systemc.dispatches" in counts:
        exact["systemc.dispatches"] = counts["systemc.dispatches"]
    return exact


def run_unit(workload, traced: bool, gauge: HostGauge) -> dict:
    """Run one unit of ``workload``; exceptions count as a failed check.

    An untraced unit runs under ``gauge`` and times itself on its clock; a
    traced one runs without it, so the profile holds no gauge passes.
    """
    from probe import Probe
    from repro.systemc.kernel import Kernel

    clock = time.perf_counter if traced else gauge.clock
    sampling = contextlib.nullcontext() if traced else gauge.sampling()
    probe = Probe(clock)
    profiler = cProfile.Profile() if traced else None
    handle = None
    if traced:
        def count_dispatch(_kind, _time_ps, _name):
            probe.counters["systemc.dispatches"] += 1
        handle = Kernel.add_trace_hook(count_dispatch, Kernel.TRACE_PRIORITY_OBSERVER)
    # Long-lived objects (modules, inputs) leave the collector's view, so
    # the collections Probe.settle() runs between ops stay cheap.
    gc.collect()
    gc.freeze()
    start = clock()
    completed = False
    try:
        if profiler is not None:
            profiler.enable()
        with sampling, probe.span(workload.name):
            workload.unit(probe)
        completed = True
    except Exception:  # reported as a failed unit, never as a crash
        traceback.print_exc()
    finally:
        if profiler is not None:
            profiler.disable()
        if handle is not None:
            Kernel.remove_trace_hook(handle)
        gc.unfreeze()
    end = clock()
    probe.check("unit completed", completed)
    samples = None if traced else gauge.take_samples()

    def factor_during(span_start: float, span_end: float) -> float:
        return 1.0 if traced else gauge.factor_during(samples, span_start, span_end)

    return {
        "probe": probe,
        "profiler": profiler,
        "wall_s": end - start,
        "host_factor": factor_during(start, end),
        "op_factors": [factor_during(op.start, op.end) for op in probe.ops],
        "setup_factors": [factor_during(span.start, span.end) for span in probe.setup],
        "modeled_sha256": hashlib.sha256(json.dumps(probe.modeled).encode()).hexdigest(),
    }


def check_modeled(workload, unit: dict, expect: dict, size: str) -> None:
    """Seed-independent workloads always, seeded ones at seed 0."""
    if workload.seeded and workload.seed != 0:
        return
    expected = expect.get(size, {}).get(workload.name)
    unit["probe"].check("modeled outputs match expect.json",
                        unit["modeled_sha256"] == expected)


def write_trace(out: str, workload, traced: dict, untraced: dict, per_layer: dict) -> None:
    from layers import LayerMapper, layer_totals
    import repro

    stats = pstats.Stats(traced["profiler"])
    stats.dump_stats(os.path.join(out, f"{workload.name}.pstats"))
    totals = layer_totals(stats, LayerMapper(os.path.dirname(repro.__file__)))
    for layer, entry in totals.items():
        per_layer[f"{layer}.self_s"] = entry["self_s"]
        per_layer[f"{layer}.calls"] = entry["calls"]
    probe = traced["probe"]
    origin = probe.spans[0].start
    document = {
        "workload": workload.name,
        "seed": workload.seed,
        "smoke": workload.smoke,
        "total_s": stats.total_tt,
        "layers": totals,
        "metrics": per_layer,
        "spans": [span.to_json(origin) for span in probe.spans],
        "untraced_spans": [span.to_json(untraced["probe"].spans[0].start)
                           for span in untraced["probe"].spans],
    }
    with open(os.path.join(out, f"{workload.name}.layers.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    gauge = HostGauge()
    started = gauge.clock()
    with gauge.sampling(IMPORT_INTERVAL_S):
        from workloads import WORKLOADS
    import_s = gauge.clock() - started
    import_factor = gauge.factor(gauge.take_samples())
    if args.import_only:
        print(json.dumps({"import_s": import_s, "host_factor": import_factor}))
        return 0

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.out)
    size = "smoke" if args.smoke else "full"
    with open(EXPECT, encoding="utf-8") as handle:
        expect = json.load(handle)

    units = [run_unit(workload, False, gauge)]
    # Later units add to the process's peak memory, so it is read here.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        units.append(run_unit(workload, True, gauge))
    elif not args.smoke:
        # Counted in reference seconds, so a busy host runs no fewer units.
        reference_s = units[0]["wall_s"] * units[0]["host_factor"] ** workload.sensitivity
        wanted = max(1, round(args.seconds / reference_s))
        while len(units) < wanted and units[-1]["probe"].checks["unit completed"]:
            units.append(run_unit(workload, False, gauge))
    for unit in units:
        check_modeled(workload, unit, expect, size)

    checks = [(name, passed) for unit in units for name, passed in unit["probe"].checks.items()]
    last = units[-1]["probe"]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "attempted": len(checks),
        "failed": sum(1 for _name, passed in checks if not passed),
        "failures": sorted({name for name, passed in checks if not passed}),
        "units": len(units),
        "wall_s": [unit["wall_s"] for unit in units],
        "host_factor": [unit["host_factor"] for unit in units],
        "sensitivity": workload.sensitivity,
        "setup_s": [[span.seconds for span in unit["probe"].setup] for unit in units],
        "setup_factors": [unit["setup_factors"] for unit in units],
        "instructions": [unit["probe"].counters["guest.instructions"] for unit in units],
        "ops_ms": [[op.seconds * 1e3 for op in unit["probe"].ops] for unit in units],
        "op_factors": [unit["op_factors"] for unit in units],
        "import_s": import_s,
        "import_factor": import_factor,
        "peak_rss_mb": peak_rss_mb,
        "modeled_sha256": units[0]["modeled_sha256"],
        "counters": exact_counters(last.counters, last.extra),
    }
    if args.trace:
        untraced, traced = units
        per_layer = dict(result["counters"])
        per_layer.update({name: untraced["probe"].extra.get(name, 0.0) for name in _TIMED_EXTRAS})
        per_layer["trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
        if traced["probe"].checks["unit completed"]:
            write_trace(args.out, workload, traced, untraced, per_layer)
        result["per_layer"] = per_layer
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

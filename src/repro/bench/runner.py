"""Command-line entry point: ``repro-bench`` / ``python -m repro.bench``.

Runs the figure experiments and ablations, prints each result table with
its paper-claim checks, and can emit markdown for EXPERIMENTS.md or one
JSON document for machines (``--json``).  ``--ledger-dir`` folds every
experiment's kernel dispatch stream into a :mod:`repro.divergence` window
ledger and writes ``<experiment>.ledger.json`` sidecars — compare two
bench runs with ``python -m repro.divergence compare``.  ``--obs-dir``
attaches the :mod:`repro.obs` attribution engine and writes per-experiment
phase-attribution reports plus window snapshot streams.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List

from ..host.wallclock import elapsed_since, wall_clock
from . import ablations, fig5, fig6, fig7  # noqa: F401  (register experiments)
from .experiment import all_experiment_ids, get_experiment
from .reporting import render_markdown, render_result, result_json


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures on the simulated platforms.",
    )
    parser.add_argument("experiments", nargs="*", default=[],
                        help=f"experiment ids (default: all of {all_experiment_ids()})")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="workload scale factor; 1.0 = paper-sized runs "
                             "(default 0.02 for a fast pass)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit markdown sections instead of tables")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document (rows, checks, and the "
                             "determinism-ledger root digest when "
                             "--ledger-dir is active) instead of tables")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="collect repro.telemetry metrics for every "
                             "platform each experiment builds and write a "
                             "<experiment>.metrics.json sidecar into DIR")
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="attach the repro.flight recorder + guest "
                             "profiler to every platform each experiment "
                             "builds and write <experiment>.journal.jsonl, "
                             ".profile.folded and .profile.json sidecars "
                             "into DIR")
    parser.add_argument("--profile-interval", type=int, default=10_000,
                        metavar="CYCLES",
                        help="guest profiler sample interval in modeled "
                             "cycles (default 10000)")
    parser.add_argument("--ledger-dir", default=None, metavar="DIR",
                        help="fold each experiment's dispatch stream into a "
                             "repro.divergence window ledger and write a "
                             "<experiment>.ledger.json sidecar into DIR")
    parser.add_argument("--ledger-window-us", type=float, default=1000.0,
                        metavar="US",
                        help="ledger window in simulated microseconds "
                             "(default 1000)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="attach the repro.obs attribution engine to "
                             "every platform each experiment builds and "
                             "write <experiment>.obs.json (per-platform "
                             "phase attribution) and <experiment>.obs.jsonl "
                             "(window snapshot stream) sidecars into DIR")
    parser.add_argument("--snapshot-at", type=float, default=None, metavar="MS",
                        help="boot the Linux workload to MS simulated "
                             "milliseconds, capture a repro.snapshot and "
                             "write it to --snapshot-out (skips the normal "
                             "experiment run)")
    parser.add_argument("--snapshot-out", default=None, metavar="FILE",
                        help="output .rsnap path for --snapshot-at")
    parser.add_argument("--snapshot-kind", default="aoa",
                        choices=("aoa", "avp64"),
                        help="platform kind for --snapshot-at (default aoa)")
    parser.add_argument("--snapshot-cores", type=int, default=4, metavar="N",
                        help="core count for --snapshot-at (default 4)")
    parser.add_argument("--snapshot-quantum-us", type=float, default=100.0,
                        metavar="US",
                        help="quantum for --snapshot-at (default 100)")
    parser.add_argument("--snapshot-parallel", action="store_true",
                        help="use the parallel quantum scheme for "
                             "--snapshot-at")
    parser.add_argument("--from-snapshot", default=None, metavar="FILE",
                        help="resume a .rsnap written by --snapshot-at: fork "
                             "one copy-on-write child per --matrix entry and "
                             "run each to its total simulated duration "
                             "(skips the normal experiment run)")
    parser.add_argument("--matrix", default=None, metavar="MS,MS,...",
                        help="comma-separated total durations in simulated "
                             "ms for --from-snapshot (each must lie beyond "
                             "the snapshot point)")
    parser.add_argument("--verify-cold", action="store_true",
                        help="with --from-snapshot: also run every matrix "
                             "entry cold from construction and require the "
                             "DET001 dispatch digests to match bit-for-bit")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in all_experiment_ids():
            experiment = get_experiment(experiment_id)
            print(f"{experiment_id:20s} {experiment.title}")
        return 0
    if args.markdown and args.json:
        parser.error("--markdown and --json are mutually exclusive")

    for directory in (args.telemetry_dir, args.profile_dir, args.ledger_dir,
                      args.obs_dir):
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    if args.snapshot_at is not None or args.from_snapshot is not None:
        from .snapshot_cli import run_matrix, snapshot_boot
        if args.snapshot_at is not None and args.from_snapshot is not None:
            parser.error("--snapshot-at and --from-snapshot are mutually "
                         "exclusive")
        if args.snapshot_at is not None:
            if args.snapshot_out is None:
                parser.error("--snapshot-at requires --snapshot-out")
            return snapshot_boot(args.snapshot_out, args.snapshot_at,
                                 args.snapshot_kind, args.snapshot_cores,
                                 args.scale, args.snapshot_quantum_us,
                                 args.snapshot_parallel, args.json)
        if args.matrix is None:
            parser.error("--from-snapshot requires --matrix")
        matrix = [float(entry) for entry in args.matrix.split(",") if entry]
        if len(matrix) < 1:
            parser.error("--matrix needs at least one duration")
        failures = run_matrix(args.from_snapshot, matrix, args.verify_cold,
                              args.json)
        return 1 if failures else 0

    ids = args.experiments or all_experiment_ids()
    failures = 0
    json_results = []
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        started = wall_clock()
        if args.telemetry_dir is not None:
            from ..telemetry import collecting, write_metrics_json
            scope = collecting()
        else:
            scope = contextlib.nullcontext()
        if args.profile_dir is not None:
            from ..flight import recording
            flight_scope = recording(profile_interval=args.profile_interval)
        else:
            flight_scope = contextlib.nullcontext()
        if args.ledger_dir is not None:
            from ..divergence import WindowLedger
            ledger_scope = WindowLedger(
                int(args.ledger_window_us * 1_000_000),
                meta={"experiment": experiment_id, "scale": args.scale})
        else:
            ledger_scope = contextlib.nullcontext()
        if args.obs_dir is not None:
            from ..obs import JsonlSink, observing
            obs_scope = observing([JsonlSink(os.path.join(
                args.obs_dir, f"{experiment_id}.obs.jsonl"))])
        else:
            obs_scope = contextlib.nullcontext()
        with scope as telemetry, flight_scope as flight, \
                ledger_scope as ledger, obs_scope as obs:
            result = experiment.run(scale=args.scale)
            if obs is not None:
                # Summaries must be taken inside the scope: exit detaches
                # and drops per-platform state.
                obs.finalize()
                obs_summaries = [summary.to_json() for summary in
                                 obs.summaries().values()]
                obs_stream_stats = obs.stream_stats()
        extra = {}
        if args.ledger_dir is not None:
            run_ledger = ledger.ledger()
            sidecar = os.path.join(args.ledger_dir,
                                   f"{experiment_id}.ledger.json")
            run_ledger.save(sidecar)
            extra["root_digest"] = run_ledger.root_digest
            extra["ledger"] = sidecar
            if not args.json:
                print(f"ledger sidecar: {sidecar} "
                      f"({len(run_ledger.windows)} windows, "
                      f"root {run_ledger.root_digest[:16]}…)")
        if args.telemetry_dir is not None:
            sidecar = os.path.join(args.telemetry_dir,
                                   f"{experiment_id}.metrics.json")
            write_metrics_json(telemetry.registry, sidecar)
            extra["metrics"] = sidecar
            if not args.json:
                print(f"telemetry sidecar: {sidecar} "
                      f"({len(telemetry.registry)} series)")
        if args.obs_dir is not None:
            inconsistent = sum(1 for summary in obs_summaries
                               if not summary.get("consistent"))
            report = {
                "schema": "repro.obs.report/1",
                "experiment": experiment_id,
                "scale": args.scale,
                "summaries": obs_summaries,
                "stream": obs_stream_stats,
            }
            sidecar = os.path.join(args.obs_dir, f"{experiment_id}.obs.json")
            with open(sidecar, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            extra["obs"] = sidecar
            if not args.json:
                print(f"obs sidecar: {sidecar} "
                      f"({len(obs_summaries)} platforms, "
                      f"{inconsistent} inconsistent)")
            failures += inconsistent
        if args.profile_dir is not None:
            journal = os.path.join(args.profile_dir,
                                   f"{experiment_id}.journal.jsonl")
            events = flight.write_journal(journal)
            extra["journal"] = journal
            message = f"flight sidecars: {journal} ({events} events)"
            if flight.profiler is not None:
                folded = os.path.join(args.profile_dir,
                                      f"{experiment_id}.profile.folded")
                stacks = flight.profiler.write_folded(folded)
                flight.profiler.write_json(os.path.join(
                    args.profile_dir, f"{experiment_id}.profile.json"))
                message += f", {folded} ({stacks} stacks)"
            if not args.json:
                print(message)
        elapsed = elapsed_since(started)
        if args.json:
            json_results.append(result_json(result, wall_s=round(elapsed, 3),
                                            **extra))
        elif args.markdown:
            print(render_markdown(result))
        else:
            print(render_result(result))
            print(f"(ran in {elapsed:.1f} s at scale {args.scale})")
            print()
        failures += sum(1 for check in result.checks if not check["passed"])
    if args.json:
        print(json.dumps({"scale": args.scale, "results": json_results,
                          "failures": failures}, indent=2, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

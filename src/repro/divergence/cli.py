"""``python -m repro.divergence`` — capture, compare, selfcheck.

Subcommands:

* ``capture SCRIPT -o LEDGER`` — execute a scenario script (same contract
  as ``repro.analysis --determinism-run``: a self-contained run) under a
  :class:`~repro.divergence.WindowLedger` and save the resulting ledger
  file.  Run it on two machines / branches / configurations, then:
* ``compare A B`` — bisect two ledger files to the first divergent
  (window, lane).  Exit 0 when identical, 1 on divergence, 2 on bad
  input (unreadable file, mismatched window sizes).
* ``selfcheck`` — the built-in A/B scenario: one small multicore
  Dhrystone run on the ``aoa`` platform, cold from construction vs the
  same run resumed from a :mod:`repro.snapshot` taken halfway through.
  The resumed leg replays the snapshot's dispatch-trace prefix and then
  runs live, so the two must produce bit-identical dispatch streams; on
  mismatch the divergence is zoom-localized and (with ``--bundle-dir``)
  packaged as a divergence bundle.  This is the CI determinism canary.

``divergence/`` is a simulation package, so this module reports through
``sys.stdout.write`` rather than ``print`` (RPR006); everything a script
prints during ``capture``/``selfcheck`` is redirected to stderr, exactly
like the analysis runners.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path
from typing import List, Optional

from ..systemc.kernel import DEFAULT_WINDOW
from .bisect import bisect
from .ledger import RunLedger, WindowLedger
from .zoom import localize_divergence


@contextlib.contextmanager
def script_argv(path: str):
    """Run a script with its own ``sys.argv`` (argparse in examples would
    otherwise choke on the caller's flags)."""
    saved = sys.argv
    sys.argv = [str(path)]
    try:
        yield
    finally:
        sys.argv = saved


def _out(text: str) -> None:
    sys.stdout.write(text + "\n")


def _window_ps(args) -> int:
    if args.window_us is None:
        return DEFAULT_WINDOW.picoseconds
    return int(args.window_us * 1_000_000)


def _parse_meta(pairs: List[str]) -> dict:
    meta = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--meta wants KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        meta[key] = value
    return meta


def _load(path: str) -> RunLedger:
    try:
        return RunLedger.load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load ledger {path}: {exc}")


def _cmd_capture(args) -> int:
    script = Path(args.script)
    if not script.is_file():
        raise SystemExit(f"no such script: {script}")
    ledger = WindowLedger(_window_ps(args), meta=_parse_meta(args.meta))
    ledger.attach()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as captured, \
                script_argv(script):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        run = ledger.detach()
        if captured.getvalue():
            sys.stderr.write(captured.getvalue())
    run.save(args.output)
    _out(f"ledger written: {args.output} ({len(run.windows)} windows, "
         f"{run.entries} dispatches, root {run.root_digest[:16]}…)")
    return 0


def _cmd_compare(args) -> int:
    ledger_a = _load(args.ledger_a)
    ledger_b = _load(args.ledger_b)
    try:
        comparison = bisect(ledger_a, ledger_b)
    except ValueError as exc:
        raise SystemExit(str(exc))
    bundle_path = None
    if not comparison.identical and args.bundle_dir is not None:
        from .bundle import write_divergence_bundle
        bundle_path = write_divergence_bundle(
            args.bundle_dir, comparison, ledger_a, ledger_b,
            labels=(args.ledger_a, args.ledger_b))
    if args.json:
        doc = comparison.to_json()
        doc["bundle"] = bundle_path
        _out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _out(comparison.describe())
        if bundle_path is not None:
            _out(f"divergence bundle: {bundle_path}")
    return 0 if comparison.identical else 1


def _cmd_selfcheck(args) -> int:
    # Deferred: the bench stack pulls the full platform; `compare` on two
    # ledger files must not need it.
    from ..bench.measure import make_config, run_workload
    from ..snapshot import Snapshot, TraceRecorder
    from ..systemc.time import SimTime
    from ..vp.platform import build_platform
    from ..workloads.dhrystone import DhrystoneParams, dhrystone_software

    def config():
        return make_config(args.cores, args.quantum_us, parallel=False)

    def software():
        return dhrystone_software(args.cores, DhrystoneParams(args.iterations))

    def cold():
        run_workload("aoa", config(), software())

    limit = SimTime.seconds(10_000.0)     # run_workload's sim-time guard

    with contextlib.redirect_stdout(io.StringIO()) as captured:
        # The resumed leg's snapshot is taken outside both ledger scopes:
        # the same scenario, stopped at half its cold end time.
        end = build_platform("aoa", config(), software()).run(limit)
        vp = build_platform("aoa", config(), software())
        with TraceRecorder() as recorder:
            vp.run(SimTime(end.picoseconds // 2))
        snapshot = Snapshot.capture(vp, trace=recorder.entries)

        def resumed():
            snapshot.restore(software()).run(limit)

        report = localize_divergence(
            cold, resumed,
            window=_window_ps(args),
            meta_a={"leg": "cold"}, meta_b={"leg": "resumed"},
            bundle_dir=args.bundle_dir,
            labels=("cold", "resumed"))
    if captured.getvalue():
        sys.stderr.write(captured.getvalue())
    if args.json:
        doc = report.comparison.to_json()
        doc["bundle"] = report.bundle_path
        doc["event_diff"] = (report.event_diff.describe()
                             if report.event_diff is not None else None)
        _out(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _out("A/B selfcheck: cold vs snapshot-resumed, "
             f"{args.cores}-core dhrystone ({args.iterations} iterations, "
             f"{args.quantum_us}us quantum, snapshot @ "
             f"{snapshot.sim_time_ps // 1_000_000}us)")
        _out(report.describe())
    return 0 if report.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.divergence",
        description="Windowed determinism ledgers: capture, compare, bisect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="run a scenario script under a window ledger")
    capture.add_argument("script", help="scenario script (self-contained run)")
    capture.add_argument("-o", "--output", required=True,
                         help="ledger file to write")
    capture.add_argument("--window-us", type=float, default=None,
                         help="ledger window in simulated microseconds "
                         "(default: 1000)")
    capture.add_argument("--meta", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="annotate the ledger (repeatable)")
    capture.set_defaults(func=_cmd_capture)

    compare = sub.add_parser(
        "compare", help="bisect two ledger files to the first divergence")
    compare.add_argument("ledger_a")
    compare.add_argument("ledger_b")
    compare.add_argument("--json", action="store_true", help="JSON output")
    compare.add_argument("--bundle-dir", default=None,
                         help="write a divergence bundle here on mismatch")
    compare.set_defaults(func=_cmd_compare)

    selfcheck = sub.add_parser(
        "selfcheck", help="A/B canary: cold vs snapshot-resumed run")
    selfcheck.add_argument("--cores", type=int, default=2)
    selfcheck.add_argument("--iterations", type=int, default=20_000,
                           help="dhrystone iterations per core")
    selfcheck.add_argument("--quantum-us", type=float, default=100.0)
    selfcheck.add_argument("--window-us", type=float, default=1.0,
                           help="ledger window in simulated microseconds")
    selfcheck.add_argument("--json", action="store_true", help="JSON output")
    selfcheck.add_argument("--bundle-dir", default=None,
                           help="write a divergence bundle here on mismatch")
    selfcheck.set_defaults(func=_cmd_selfcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(f"repro.divergence: {exc.code}\n")
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

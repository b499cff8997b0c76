"""Console entry points for the observability layer.

``python -m repro.obs top`` — live (or replay) view of a snapshot stream::

    python -m repro.obs top run.obs.jsonl            # replay a finished run
    python -m repro.obs top run.obs.jsonl --follow   # tail a running one
    python -m repro.obs top --socket /tmp/obs.sock   # listen for a SocketSink

``python -m repro.obs report`` — pretty-print an attribution report file
written by ``python -m repro.bench --obs-dir``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attribution import PHASES
from .top import follow, iter_jsonl, render_top, serve_socket


def _cmd_top(args) -> int:
    if args.socket:
        frames = serve_socket(args.socket, max_frames=args.frames,
                              timeout_seconds=args.timeout)
    elif args.follow:
        frames = follow(args.stream, max_frames=args.frames)
    else:
        frames = iter_jsonl(args.stream)
    shown = 0
    for snapshot in frames:
        print(render_top(snapshot))
        shown += 1
        if args.frames is not None and not args.follow and not args.socket \
                and shown >= args.frames:
            break
    if not shown:
        print("(no snapshots)", file=sys.stderr)
        return 1
    return 0


def _cannot_load(path: str, exc: Exception) -> int:
    print(f"repro.obs: cannot load {path}: {exc}", file=sys.stderr)
    return 2


def _load_report(path: str) -> list:
    """The summaries of an attribution report; ValueError when malformed."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"report is a {type(data).__name__}, not an object")
    summaries = data.get("summaries", [])
    if not isinstance(summaries, list) or not all(
            isinstance(summary, dict) for summary in summaries):
        raise ValueError("summaries are not a list of objects")
    return summaries


def _cmd_report(args) -> int:
    try:
        summaries = _load_report(args.report)
    except (OSError, ValueError) as exc:
        return _cannot_load(args.report, exc)
    if not summaries:
        print("(no summaries in report)", file=sys.stderr)
        return 1
    for summary in summaries:
        print(f"--- {summary.get('platform', '?')} ---")
        lanes = summary.get("lanes", {})
        print(f"windows {summary.get('windows', 0)}  "
              f"wall {summary.get('wall_time_ns', 0.0) / 1e6:.3f} ms  "
              f"MIPS {summary.get('mips', 0.0):.0f}  "
              f"consistent {summary.get('consistent')}")
        for name, lane in sorted(lanes.items()):
            phases = lane.get("phases", {})
            cells = "  ".join(f"{p}={phases.get(p, 0.0) / 1e6:.3f}ms"
                              for p in PHASES if phases.get(p, 0.0) > 0.0)
            print(f"  {name:8s} util {lane.get('utilization', 0.0) * 100:5.1f}%"
                  f"  {cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="live view and attribution pretty-printer")
    commands = parser.add_subparsers(dest="command", required=True)

    top = commands.add_parser("top", help="render a snapshot stream")
    top.add_argument("stream", nargs="?", default=None,
                     help="JSONL stream file (from a JsonlSink / --obs-dir)")
    top.add_argument("--socket", default=None,
                     help="listen on this Unix socket for a SocketSink")
    top.add_argument("--follow", action="store_true",
                     help="tail the stream file as it is written")
    top.add_argument("--frames", type=int, default=None,
                     help="stop after this many snapshots")
    top.add_argument("--timeout", type=float, default=None,
                     help="socket accept/read timeout in seconds")
    top.set_defaults(handler=_cmd_top)

    report = commands.add_parser("report",
                                 help="pretty-print an attribution report")
    report.add_argument("report", help="<experiment>.obs.json file")
    report.set_defaults(handler=_cmd_report)

    args = parser.parse_args(argv)
    if args.command == "top" and not args.stream and not args.socket:
        parser.error("top needs a stream file or --socket")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

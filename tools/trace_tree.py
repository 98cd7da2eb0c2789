#!/usr/bin/env python
"""Reassemble and pretty-print the span tree of a JSON-lines trace.

``repro.obs`` writes trace files as a flat stream of one-line JSON
records — possibly interleaved by shard threads or by several
processes sharing the file, each line appended atomically (see
``repro/obs/trace.py``).  ``span`` records
carry ``trace_id`` / ``span_id`` / ``parent_id``; this tool groups
them by trace, rebuilds each causal tree and prints it indented with
wall times::

    PYTHONPATH=src python tools/trace_tree.py route.jsonl

    trace 4cf4ab12deadbeef
      batch.self_route  11.2ms
        executor.dispatch  10.9ms  (task=self_route items=64 shards=2)
          executor.shard  3.1ms  (shard=0)
            batch.self_route  2.8ms
          executor.shard  3.0ms  (shard=1)
            batch.self_route  2.7ms

Exit status is the validation verdict, so CI can smoke-test sharded
tracing: non-zero when any line fails to parse as JSON, any span
references a parent that never appears in the file, or (with
``--min-spans``) fewer spans than expected are present.  Non-span
events (``route_start`` / ``stage`` / ``deliver``) are counted and, when
stamped with a ``span_id``, attributed to their span.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

_SKIP_FIELDS = {"v", "seq", "ts", "ev", "name", "trace_id", "span_id",
                "parent_id", "start_ts", "seconds"}


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_fields(span: dict, event_counts: dict) -> str:
    parts = [f"{key}={value}" for key, value in sorted(span.items())
             if key not in _SKIP_FIELDS]
    events = event_counts.get(span.get("span_id"))
    if events:
        parts.append("events=" + ",".join(
            f"{ev}:{count}" for ev, count in sorted(events.items())))
    return f"  ({' '.join(parts)})" if parts else ""


def load_trace(path: str):
    """Parse ``path``; return ``(spans, other_events, errors)``."""
    spans, others, errors = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not valid JSON ({exc})")
                continue
            if record.get("ev") == "span":
                spans.append(record)
            else:
                others.append(record)
    return spans, others, errors


def validate(spans, errors) -> None:
    """Append orphan/duplicate findings to ``errors``."""
    ids = defaultdict(int)
    for span in spans:
        if not span.get("span_id"):
            errors.append(f"span {span.get('name')!r} has no span_id")
            continue
        ids[span["span_id"]] += 1
    for span_id, count in ids.items():
        if count > 1:
            errors.append(f"span_id {span_id} appears {count} times")
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in ids:
            errors.append(
                f"span {span.get('name')!r} ({span.get('span_id')}) "
                f"references missing parent {parent}"
            )


def print_trees(spans, others, out=sys.stdout) -> None:
    """Indented per-trace rendering, children in start order."""
    event_counts: dict = defaultdict(lambda: defaultdict(int))
    for record in others:
        if record.get("span_id"):
            event_counts[record["span_id"]][record.get("ev", "?")] += 1

    by_trace = defaultdict(list)
    for span in spans:
        by_trace[span.get("trace_id", "?")].append(span)

    known = {span["span_id"] for span in spans if span.get("span_id")}
    for trace_id in sorted(by_trace):
        members = sorted(by_trace[trace_id],
                         key=lambda s: s.get("start_ts", 0.0))
        children = defaultdict(list)
        roots = []
        for span in members:
            parent = span.get("parent_id")
            if parent is None or parent not in known:
                roots.append(span)
            else:
                children[parent].append(span)
        print(f"trace {trace_id}", file=out)

        def walk(span, depth):
            seconds = span.get("seconds", 0.0)
            print(f"{'  ' * depth}{span.get('name', '?')}  "
                  f"{_fmt_seconds(seconds)}"
                  f"{_fmt_fields(span, event_counts)}", file=out)
            for child in children.get(span.get("span_id"), []):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rebuild and validate the span tree of a "
                    "repro.obs JSON-lines trace file"
    )
    parser.add_argument("trace", help="path to the .jsonl trace")
    parser.add_argument("--min-spans", type=int, default=0,
                        help="fail unless at least this many span "
                             "events are present")
    parser.add_argument("--max-trees", type=int, default=None,
                        help="fail when the file holds more than this "
                             "many distinct trace ids (e.g. 1 to "
                             "assert a serving session reassembles "
                             "into one tree)")
    parser.add_argument("--quiet", action="store_true",
                        help="validate only, print nothing but errors")
    args = parser.parse_args(argv)

    spans, others, errors = load_trace(args.trace)
    validate(spans, errors)
    if len(spans) < args.min_spans:
        errors.append(f"expected >= {args.min_spans} spans, "
                      f"found {len(spans)}")
    if args.max_trees is not None:
        trace_ids = {span.get("trace_id") for span in spans}
        if len(trace_ids) > args.max_trees:
            errors.append(
                f"expected <= {args.max_trees} trace tree(s), found "
                f"{len(trace_ids)}: {', '.join(sorted(map(str, trace_ids)))}"
            )

    if not args.quiet:
        print_trees(spans, others)
        print(f"{len(spans)} spans, {len(others)} other events, "
              f"{len(errors)} errors")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validator for --trace output (Chrome trace-event JSON).

`omn_design --trace out.json` and every bench's `--trace FILE` write the
trace-event "JSON Object Format".  CI's trace-smoke job runs this
checker over traced smoke runs so a refactor that breaks span pairing
or event shape fails loudly instead of producing a file chrome://tracing
quietly mis-renders::

    python3 tools/trace_check.py out.json
    python3 tools/trace_check.py out.json --expect-pids 0 \\
        --expect-span lp.solve

Checks:
  - the file is one JSON object with a traceEvents list,
  - every event carries name/ph/pid/tid (+ts except metadata), with the
    shapes the exporter emits: instants are thread-scoped ("s":"t"),
    counter samples carry args.value, metadata events name the process,
  - per (pid, tid) lane: "B"/"E" events pair up LIFO with matching
    names and nothing is left open, and timestamps never go backwards
    (each lane is one thread's buffer, recorded in order),
  - --expect-pids: each listed pid is present AND carries at least one
    span,
  - --expect-span NAME: some "B" event has exactly that name.

Exit codes: 0 pass, 1 malformed/failed expectation, 2 usage error.
"""

import json
import sys

VALID_PH = ("B", "E", "i", "C", "M")


def fail(message):
    print("trace_check: FAIL: %s" % message)
    return 1


def check_event_shape(event, at):
    """Returns a list of problems with one event's fields."""
    problems = []
    where = "event[%d]" % at
    if not isinstance(event, dict):
        return ["%s: not an object" % where]
    name = event.get("name")
    ph = event.get("ph")
    if not isinstance(name, str) or not name:
        problems.append("%s: missing or empty name" % where)
    if ph not in VALID_PH:
        problems.append("%s: bad ph %r" % (where, ph))
        return problems
    for key in ("pid", "tid"):
        if not isinstance(event.get(key), int):
            problems.append("%s (%s): missing integer %s" % (where, name, key))
    if ph != "M" and not isinstance(event.get("ts"), int):
        problems.append("%s (%s): missing integer ts" % (where, name))
    if ph == "i" and event.get("s") != "t":
        problems.append("%s (%s): instant without thread scope" % (where, name))
    if ph == "C" and not isinstance(
        event.get("args", {}).get("value"), (int, float)
    ):
        problems.append("%s (%s): counter without args.value" % (where, name))
    if ph == "M":
        if event.get("name") != "process_name":
            problems.append("%s: unexpected metadata %r" % (where, name))
        elif not event.get("args", {}).get("name"):
            problems.append("%s: process_name without args.name" % where)
    return problems


def check(path, expect_pids, expect_spans):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        return fail("%s: %s" % (path, error))
    if not isinstance(data, dict) or not isinstance(
        data.get("traceEvents"), list
    ):
        return fail("%s: no traceEvents list" % path)

    problems = []
    stacks = {}  # (pid, tid) -> list of open span names
    last_ts = {}  # (pid, tid) -> most recent ts
    span_pids = set()
    seen_pids = set()
    span_names = set()
    spans = 0
    for at, event in enumerate(data["traceEvents"]):
        problems.extend(check_event_shape(event, at))
        if not isinstance(event, dict):
            continue
        ph = event.get("ph")
        name = event.get("name")
        pid = event.get("pid")
        tid = event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            continue
        seen_pids.add(pid)
        lane = (pid, tid)
        ts = event.get("ts")
        if ph != "M" and isinstance(ts, int):
            if ts < last_ts.get(lane, ts):
                problems.append(
                    "event[%d] (%s): ts %d precedes %d in lane pid=%d tid=%d"
                    % (at, name, ts, last_ts[lane], pid, tid)
                )
            last_ts[lane] = max(ts, last_ts.get(lane, ts))
        if ph == "B":
            stacks.setdefault(lane, []).append(name)
            span_pids.add(pid)
            span_names.add(name)
            spans += 1
        elif ph == "E":
            stack = stacks.get(lane, [])
            if not stack:
                problems.append(
                    "event[%d] (%s): E without open span in lane "
                    "pid=%d tid=%d" % (at, name, pid, tid)
                )
            elif stack[-1] != name:
                problems.append(
                    "event[%d]: E %r closes open span %r in lane "
                    "pid=%d tid=%d" % (at, name, stack[-1], pid, tid)
                )
            else:
                stack.pop()
    for (pid, tid), stack in sorted(stacks.items()):
        for name in stack:
            problems.append(
                "span %r left open in lane pid=%d tid=%d" % (name, pid, tid)
            )

    for pid in expect_pids:
        if pid not in seen_pids:
            problems.append("expected pid %d has no lane" % pid)
        elif pid not in span_pids:
            problems.append("expected pid %d has a lane but no spans" % pid)
    for name in expect_spans:
        if name not in span_names:
            problems.append("expected span %r never begins" % name)

    if problems:
        for problem in problems:
            print("trace_check:   %s" % problem)
        return fail("%s: %d problem(s)" % (path, len(problems)))
    print(
        "trace_check: OK %s: %d events, %d spans, pids %s"
        % (path, len(data["traceEvents"]), spans, sorted(seen_pids))
    )
    return 0


def main(argv):
    args = list(argv[1:])
    expect_pids = []
    expect_spans = []
    usage = (
        "usage: trace_check.py <trace.json> [--expect-pids 0,1,2] "
        "[--expect-span NAME]..."
    )
    while "--expect-pids" in args:
        at = args.index("--expect-pids")
        try:
            expect_pids = [int(p) for p in args[at + 1].split(",") if p]
        except (IndexError, ValueError):
            print(usage)
            return 2
        del args[at : at + 2]
    while "--expect-span" in args:
        at = args.index("--expect-span")
        if at + 1 >= len(args):
            print(usage)
            return 2
        expect_spans.append(args[at + 1])
        del args[at : at + 2]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0])
        print(usage)
        return 2
    return check(args[0], expect_pids, expect_spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

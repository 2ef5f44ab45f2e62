#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload plan|rounding|serve-churn \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/ (a CMake project
that compiles the omn libraries from ../src) in Release, runs the
omn_perfbench measuring program, checks its outputs, and prints every
metric by name with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, from a run that also repeats the workload
with a span around every layer call.  Exit codes: 0 success, 1 an output
check failed, 2 usage or environment error, 3 build failure.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("plan", "rounding", "serve-churn")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = root / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        fail(2, "cannot read %s: %s" % (path, error))
    errors = metrics.spec_errors(spec)
    if errors:
        fail(2, "BENCHMARK.json: " + "; ".join(errors))
    return spec


def build(root, build_root):
    """Configures (once) and builds omn_perfbench; returns its path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(2, "%s is not a checkout of the repository (no CMakeLists.txt/src)" % root)
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(
        ["cmake", "--build", str(build_dir), "--target", "omn_perfbench", "-j", jobs]
    )
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                fail(3, "build failed (%s):\n%s" % (log, "\n".join(tail)))
    return build_dir / "omn_perfbench"


def measure(binary, args, out_dir):
    raw_path = out_dir / ("%s-%d-%d.raw.json" % (args.workload, args.seed, args.trace))
    trace_path = out_dir / ("%s-%d.trace.json" % (args.workload, args.seed))
    scratch = out_dir / ("scratch-%s-%d" % (args.workload, os.getpid()))
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(raw_path),
        "--scratch", str(scratch),
    ]
    if args.trace:
        command += ["--trace-file", str(trace_path)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "omn_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()
    if result.returncode not in (0, 1) or not raw_path.is_file():
        fail(2, "omn_perfbench failed with exit code %d" % result.returncode)
    return json.loads(raw_path.read_text()), trace_path


def check_trace(root, trace_path):
    """Runs tools/trace_check.py on the trace; returns (ok, detail)."""
    checker = root / "tools" / "trace_check.py"
    result = subprocess.run(
        [sys.executable, str(checker), str(trace_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return result.returncode == 0, result.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    spec = load_spec(root)
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    binary = build(root, build_root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    raw, trace_path = measure(binary, args, out_dir)

    meta = raw["meta"]
    print(
        "# workload=%s seed=%s trace=%d nproc=%s threads=%s compiler=%s build=%s"
        % (args.workload, meta["seed"], args.trace, meta["nproc"], meta["threads"],
           meta["compiler"], meta["build_type"])
    )
    checks = list(raw["checks"])
    untraced = raw["untraced"]
    e2e = metrics.end_to_end(untraced)
    units = {m["name"]: m["unit"] for k in ("end_to_end", "per_layer") for m in spec[k]}

    if args.trace:
        ok, detail = check_trace(root, trace_path)
        checks.append({"name": "tools/trace_check.py", "ok": ok, "detail": detail})
        trace = json.loads(trace_path.read_text())
        self_us, coverage = metrics.layer_spans(trace, raw["traced_window_us"])
        checks.append(
            {"name": "layer spans cover >= 90% of the traced wall time",
             "ok": coverage >= 0.9, "detail": "%.4f" % coverage}
        )
        names = [m["name"] for m in spec["per_layer"]]
        values = metrics.per_layer(
            names, raw["layers"], self_us, coverage, raw["traced"]["designs"],
            e2e, metrics.end_to_end(raw["traced"]),
        )
        for name in names:
            print("%s = %.6g %s" % (name, values[name], units[name]))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {name: e2e[name][0] for name in names}
        for name in names:
            print("%s = %.6g %s  (%s)" % (name, values[name], units[name], e2e[name][1]))

    attempted, failed = untraced["attempted"], untraced["failed"]
    if args.trace:
        attempted += raw["traced"]["attempted"]
        failed += raw["traced"]["failed"]
    print("failed_frac = %.6g  (%d of %d operations)"
          % (metrics.failed_frac(failed, attempted), failed, attempted))
    for check in checks:
        print("check %s: %s%s" % ("ok" if check["ok"] else "FAILED", check["name"],
                                  " (%s)" % check["detail"] if check["detail"] else ""))
    correct = failed == 0 and all(c["ok"] for c in checks)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    with open(out_dir / "results.jsonl", "a") as log:
        log.write(json.dumps({"meta": meta, "wall_s": time.monotonic() - started,
                              "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

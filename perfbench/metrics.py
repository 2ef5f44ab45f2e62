"""Statistics, naming rules and trace analysis of the repository benchmark.

Everything here is a pure function of the raw record omn_perfbench writes
(or of a Chrome trace file), so perfbench/test_metrics.py can pin each
rule without building anything.
"""

import math
import re

# Metric names: a letter or digit, then letters, digits, '_', '.', '-';
# at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

# The tail a timing is reported at: the nominal percentile, lowered until
# at least TAIL_BEYOND samples lie beyond it.
TAIL_NOMINAL = 0.95
TAIL_BEYOND = 10

# Spans the benchmark records around each layer call are named
# "layer:<metric prefix>"; spans the library records itself are not.
LAYER_PREFIX = "layer:"


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_rank(count, nominal=TAIL_NOMINAL, beyond=TAIL_BEYOND):
    """1-based rank of the reported tail sample, or None.

    The nearest-rank nominal percentile, lowered so that at least `beyond`
    samples rank above it.  None when there are not more than `beyond`
    samples: no percentile then has enough samples beyond it.
    """
    if count <= beyond:
        return None
    return min(int(math.ceil(nominal * count)), count - beyond)


def tail(values, nominal=TAIL_NOMINAL, beyond=TAIL_BEYOND):
    """(value, rank, sample count) of the reported tail."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), nominal, beyond)
    if rank is None:
        raise ValueError(
            "%d samples: a tail needs more than %d" % (len(ordered), beyond)
        )
    return ordered[rank - 1], rank, len(ordered)


def failed_frac(failed, attempted):
    """Share of attempted operations that failed."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed %d of %d attempted" % (failed, attempted))
    return failed / attempted


def name_errors(names, cap, kind):
    """Problems with a list of metric names: grammar, duplicates, cap."""
    errors = []
    if not 1 <= len(names) <= cap:
        errors.append("%s: %d metrics (1 to %d allowed)" % (kind, len(names), cap))
    seen = set()
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append("%s: bad metric name %r" % (kind, name))
        elif name in seen:
            errors.append("%s: duplicate metric name %r" % (kind, name))
        seen.add(name)
    return errors


def spec_errors(spec):
    """Problems with a BENCHMARK.json document's metric lists."""
    errors = []
    for kind, cap in (("end_to_end", MAX_END_TO_END), ("per_layer", MAX_PER_LAYER)):
        entries = spec.get(kind, [])
        errors += name_errors([e.get("name") for e in entries], cap, kind)
        for entry in entries:
            if not UNIT_RE.match(str(entry.get("unit", ""))):
                errors.append("%s: bad unit for %r" % (kind, entry.get("name")))
            if entry.get("better") not in ("lower", "higher"):
                errors.append("%s: bad direction for %r" % (kind, entry.get("name")))
    all_names = [e.get("name") for k in ("end_to_end", "per_layer") for e in spec.get(k, [])]
    if len(set(all_names)) != len(all_names):
        errors.append("a metric name is used twice")
    return errors


# ---- end-to-end metrics -----------------------------------------------------


def end_to_end(phase):
    """Every end-to-end metric of one phase: name -> (value, note).

    The same definitions serve every workload; what a design, an ack, a
    read and a resume are on each workload is in perfbench/README.md.
    """
    wall = phase["timed_wall_s"]
    if wall <= 0:
        raise ValueError("empty timed loop")
    tail_value, tail_at, tail_n = tail(phase["ack_ms"])
    return {
        "setup_s": (
            median(phase["setup_s"]),
            "median of %d set-ups" % len(phase["setup_s"]),
        ),
        "designs_per_s": (
            phase["designs"] / wall,
            "%d designs in %.2f s" % (phase["designs"], wall),
        ),
        "design_p50_ms": (
            median(phase["design_ms"]),
            "p50 of %d designs" % len(phase["design_ms"]),
        ),
        "ack_p50_ms": (
            median(phase["ack_ms"]),
            "p50 of %d acks" % len(phase["ack_ms"]),
        ),
        "ack_p95_ms": (
            tail_value,
            "p%.1f of %d acks, %d beyond"
            % (100.0 * tail_at / tail_n, tail_n, tail_n - tail_at),
        ),
        "read_p50_us": (
            median(phase["read_us"]),
            "p50 of %d reads" % len(phase["read_us"]),
        ),
        "events_per_s": (
            phase["events"] / wall,
            "%d events in %.2f s" % (phase["events"], wall),
        ),
        "resume_s": (
            median(phase["resume_s"]),
            "median of %d resumes" % len(phase["resume_s"]),
        ),
        "cost_ratio": (
            phase["cost_ratio_sum"] / phase["cost_ratio_count"],
            "mean over %d designs" % phase["cost_ratio_count"],
        ),
        "demand_met_frac": (
            phase["sinks_met"] / phase["sinks_total"],
            "%d of %d sinks" % (phase["sinks_met"], phase["sinks_total"]),
        ),
    }


# ---- trace analysis ---------------------------------------------------------


def _union_length(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_spans(trace, window=None):
    """Self time per layer span and the window's span coverage.

    A layer span's self time is its duration minus the part covered by
    layer spans nested in it; library spans inside a layer span count as
    that layer's time.  Only spans that begin inside `window` (start, end
    in trace microseconds) count.  Returns (self_us by layer name without
    the prefix, covered share of the window), coverage being the union of
    outermost layer spans over every thread, clipped to the window.
    """
    lanes = {}
    for event in trace["traceEvents"]:
        if event.get("ph") in ("B", "E"):
            lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    lo, hi = window if window else (-math.inf, math.inf)
    self_us = {}
    outermost = []
    for events in lanes.values():
        stack = []  # [name, start, layer?, child layer time]
        for event in events:
            if event["ph"] == "B":
                name = event["name"]
                stack.append([name, event["ts"], name.startswith(LAYER_PREFIX), 0])
                continue
            name, start, is_layer, children = stack.pop()
            if not is_layer:
                continue
            duration = event["ts"] - start
            parent = next((s for s in reversed(stack) if s[2]), None)
            if parent is not None:
                parent[3] += duration
            if not lo <= start <= hi:
                continue
            layer = name[len(LAYER_PREFIX):]
            self_us[layer] = self_us.get(layer, 0) + duration - children
            if parent is None:
                outermost.append((max(start, lo), min(event["ts"], hi)))
    coverage = None
    if window:
        coverage = _union_length(outermost) / max(1, hi - lo)
    return self_us, coverage


# ---- per-layer metrics ------------------------------------------------------

EVENT_KINDS = ("capacity-set", "edge-fail", "edge-restore", "node-add", "node-remove")
SELF_SUFFIX = ".self_ms"
OVERHEAD_PREFIX = "obs.overhead."


def per_layer(names, layers, self_us, coverage, designs, untraced, traced):
    """Every per-layer metric in `names`: name -> value.

    `layers` holds omn_perfbench's raw per-layer samples; a quantity a
    workload never exercises reads 0.  Timings are medians per call,
    work counts are means per call, outcome counts are run totals.
    `self_us` and `coverage` come from layer_spans(); self time is
    reported per traced design.  `untraced` and `traced` are the two
    phases' end_to_end() results (tracing overhead = traced - untraced).
    """

    def samples(key):
        return layers.get(key, [])

    def p50(key):
        return median(samples(key)) if samples(key) else 0.0

    def mean(key):
        values = samples(key)
        return sum(values) / len(values) if values else 0.0

    def total(key):
        return float(sum(samples(key)))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "lp.solve_ms": p50("lp.solve_ms"),
        "lp.pivots": mean("lp.pivots"),
        "lp.phase1_pivots": mean("lp.phase1_pivots"),
        "lp.refactorizations": mean("lp.refactorizations"),
        "lp.us_per_pivot": ratio(1e3 * total("lp.solve_ms"), total("lp.pivots")),
        "lp.warm_offered": total("lp.warm_offered"),
        "lp.warm_accepted": total("lp.warm_accepted"),
        "lp.warm_accept_ratio": ratio(
            total("lp.warm_accepted"), total("lp.warm_offered")
        ),
        "core.lp_cache.lookups": total("core.lp_cache.lookups"),
        "core.lp_cache.hit_ratio": ratio(
            total("core.lp_cache.hits"), total("core.lp_cache.lookups")
        ),
        "core.lp_builder.ms": p50("core.lp_builder.ms"),
        "core.lp_builder.nnz": mean("core.lp_builder.nnz"),
        "core.rounding.ms": p50("core.rounding.ms"),
        "core.gap.build_ms": p50("core.gap.build_ms"),
        "flow.min_cost_flow_ms": p50("flow.min_cost_flow_ms"),
        "core.gap.flow_units": mean("core.gap.flow_units"),
        "core.color_rounding.ms": p50("core.color_rounding.ms"),
        "core.evaluator.ms": p50("core.evaluator.ms"),
        "core.designer.rounding_wall_ms": p50("core.designer.rounding_wall_ms"),
        "util.pool.efficiency": ratio(
            p50("util.pool.serial_ms"),
            total("util.pool.threads") * p50("util.pool.parallel_ms"),
        ),
        "core.design_state.apply_us": p50("core.design_state.apply_us"),
        "serve.event.parse_us": p50("serve.event.parse_us"),
        "serve.session.read_us.query": p50("serve.session.read_us.query"),
        "serve.session.read_us.stats": p50("serve.session.read_us.stats"),
        "serve.journal.append_us": p50("serve.journal.append_us"),
        "serve.journal.bytes": total("serve.journal.bytes"),
        "serve.journal.load_ms": p50("serve.journal.load_ms"),
        "serve.resume.replay_ms": p50("serve.resume.replay_ms"),
        "topo.generate_ms": p50("topo.generate_ms"),
        "net.serialize.ms": p50("net.serialize.ms"),
        "obs.span_coverage": coverage,
        "obs.harness_self_frac": 1.0 - coverage,
    }
    for kind in EVENT_KINDS:
        offered = total("lp.warm_offered." + kind)
        accepted = total("lp.warm_accepted." + kind)
        values["lp.warm_offered." + kind] = offered
        values["lp.warm_accepted." + kind] = accepted
        values["lp.warm_accept_ratio." + kind] = ratio(accepted, offered)
        values["core.lp_cache.hits." + kind] = total("core.lp_cache.hits." + kind)
        values["core.design_state.redesigns." + kind] = total(
            "core.design_state.redesigns." + kind
        )
        values["core.design_state.redesign_ms." + kind] = p50(
            "core.design_state.redesign_ms." + kind
        )
    out = {}
    for name in names:
        if name.endswith(SELF_SUFFIX):
            layer = name[: -len(SELF_SUFFIX)]
            out[name] = self_us.get(layer, 0) / 1e3 / max(1, designs)
        elif name.startswith(OVERHEAD_PREFIX):
            metric = name[len(OVERHEAD_PREFIX):]
            out[name] = traced[metric][0] - untraced[metric][0]
        elif name in values:
            out[name] = values[name]
        else:
            raise KeyError("no rule computes per-layer metric %r" % name)
    return out

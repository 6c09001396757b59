"""Span tracing for the served-path benchmark.

The tracer wraps public functions of the library from the outside: it
replaces a class attribute or a module-level name with a wrapper that
records one span per call.  A span holds its name, its parent span, the
id of the push it belongs to (``stream#seq``, the same on both sides of
the wire), and wall (``perf_counter``) and thread-CPU (``thread_time``)
readings at both ends.  Spans nest on a stack, so only synchronous calls
are wrapped: a coroutine that yields would let another task's spans
land inside it.  Spans stay in memory and are written to a JSON file
when the process ends (:meth:`Tracer.dump`).

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so wall readings from
the server and the load generator share one time line, and a server
span can be placed inside the load generator's measured interval.

Each traced process has one implicit root: the span covering the whole
measured interval.  Its self time is the process's CPU inside the
interval that no wrapped call covers -- the asyncio loop, frame
handlers and transports in the server (reported as ``service``), the
client SDK and the load loop in the generator (reported as ``client``).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: (span name, owner, attribute) for every function wrapped in the
#: server.  ``owner`` is ``module`` or ``module:Class``.  Module-level
#: functions are wrapped in ``repro.core.scanner``, the namespace the
#: scan loop resolves them from at call time.
SERVER_TARGETS = (
    ("hub.push", "repro.hub:StreamHub", "push"),
    ("hub.checkpoint", "repro.hub:StreamHub", "checkpoint"),
    ("hub.finish", "repro.hub:StreamHub", "finish"),
    ("pipeline.feed", "repro.pipeline:ProtectionSession", "feed"),
    ("pipeline.feed", "repro.pipeline:DetectionSession", "feed"),
    ("pipeline.finish", "repro.pipeline:ProtectionSession", "finish"),
    ("pipeline.finish", "repro.pipeline:DetectionSession", "finish"),
    ("pipeline.to_state", "repro.pipeline:ProtectionSession", "to_state"),
    ("pipeline.to_state", "repro.pipeline:DetectionSession", "to_state"),
    ("extremes.zigzag", "repro.core.scanner", "zigzag_pivots"),
    ("extremes.subset", "repro.core.scanner", "characteristic_subset"),
    ("selection.select", "repro.core.scanner", "select_watermark_bit"),
    ("labels.preview", "repro.core.labels:StreamingLabeler", "preview"),
    ("labels.push", "repro.core.labels:StreamingLabeler", "push"),
    ("quantize.quantize_list", "repro.core.quantize:Quantizer",
     "quantize_list"),
    ("quantize.average_key_array", "repro.core.quantize:Quantizer",
     "average_key_array"),
    ("encoding.embed", "repro.core.encoding_multihash:MultihashEncoding",
     "embed"),
    ("encoding.detect", "repro.core.encoding_multihash:MultihashEncoding",
     "detect"),
    ("encoding.embed", "repro.core.encoding_initial:InitialEncoding",
     "embed"),
    ("encoding.detect", "repro.core.encoding_initial:InitialEncoding",
     "detect"),
    ("stores.save", "repro.stores:CheckpointStore", "save"),
    ("protocol.encode", "repro.server.protocol:JsonFrameCodec", "encode"),
    ("protocol.encode", "repro.server.protocol:BinaryFrameCodec", "encode"),
    ("protocol.decode", "repro.server.protocol:JsonFrameCodec", "decode"),
    ("protocol.decode", "repro.server.protocol:BinaryFrameCodec", "decode"),
)

#: The load generator runs only the frame codec synchronously; its feed
#: calls are coroutines, timed by the load loop instead.
CLIENT_TARGETS = tuple(target for target in SERVER_TARGETS
                       if target[0].startswith("protocol."))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _frame_push_id(frame) -> str:
    """``stream#seq`` for push frames and their results, else empty."""
    if isinstance(frame, dict) and frame.get("type") in ("push", "result") \
            and "seq" in frame:
        return f"{frame.get('stream_id')}#{frame['seq']}"
    return ""


class Tracer:
    """In-memory span recorder with stack-based parenting."""

    def __init__(self) -> None:
        #: One list per span, in start order:
        #: [name, parent index, push id, wall0, wall1, cpu0, cpu1].
        #: A parent always precedes its children.
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self._push_counts: "dict[str, int]" = defaultdict(int)
        self._installed: "list[tuple[object, str, object]]" = []

    # -- installation ----------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(name, owner, attribute)`` target."""
        for name, owner, attribute in targets:
            holder = _resolve(owner)
            original = (holder.__dict__[attribute] if isinstance(holder, type)
                        else getattr(holder, attribute))
            self._installed.append((holder, attribute, original))
            setattr(holder, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            holder, attribute, original = self._installed.pop()
            setattr(holder, attribute, original)

    def _entry_push_id(self, name: str, args) -> str:
        """The push id a span is born with (children inherit it)."""
        if name == "hub.push":
            stream_id = args[1]
            seq = self._push_counts[stream_id]
            self._push_counts[stream_id] = seq + 1
            return f"{stream_id}#{seq}"
        if name in ("hub.checkpoint", "hub.finish"):
            stream_id = args[1]
            return f"{stream_id}#{self._push_counts[stream_id] - 1}"
        if name == "protocol.encode":
            return _frame_push_id(args[1])
        stack = self._stack
        return self.spans[stack[-1]][2] if stack else ""

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        cpu = time.thread_time
        entry_push_id = self._entry_push_id

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1,
                    entry_push_id(name, args), 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[3] = perf()
            span[5] = cpu()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span[6] = cpu()
                span[4] = perf()
                stack.pop()
                if name == "protocol.decode":
                    span[2] = _frame_push_id(result)

        traced.__wrapped__ = original
        return traced

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def load_spans(path: str) -> list:
    """Read the spans written by :meth:`Tracer.dump`."""
    with open(path) as handle:
        return json.load(handle)["spans"]


_EMPTY_ROW = {"calls": 0, "cpu": 0.0, "cpu_self": 0.0, "wall": 0.0}


def summarize(spans: list, start: float, end: float) -> dict:
    """Per-name call counts, CPU and self CPU, and wall seconds.

    Only spans whose root lies inside the wall interval ``[start,
    end]`` count.  ``roots_cpu`` is the CPU of those roots;
    ``thread_cpu`` estimates the traced thread's CPU over the interval
    from the first root's start to the last root's end (used for the
    server, whose thread clock the load generator cannot read).
    """
    root_of = [0] * len(spans)
    inside = [False] * len(spans)
    child_cpu = [0.0] * len(spans)
    first_cpu = last_cpu = None
    roots_cpu = 0.0
    for index, (_, parent, _, wall0, wall1, cpu0, cpu1) in enumerate(spans):
        if parent < 0:
            root_of[index] = index
            inside[index] = start <= wall0 and wall1 <= end
            if inside[index]:
                roots_cpu += cpu1 - cpu0
                if first_cpu is None:
                    first_cpu = cpu0
                last_cpu = cpu1
        else:
            root_of[index] = root_of[parent]
            inside[index] = inside[root_of[index]]
            child_cpu[parent] += cpu1 - cpu0
    by_name: "dict[str, dict]" = {}
    for index, (name, _, _, wall0, wall1, cpu0, cpu1) in enumerate(spans):
        if not inside[index]:
            continue
        row = by_name.setdefault(name, dict(_EMPTY_ROW))
        row["calls"] += 1
        row["cpu"] += cpu1 - cpu0
        row["cpu_self"] += cpu1 - cpu0 - child_cpu[index]
        row["wall"] += wall1 - wall0
    return {
        "by_name": by_name,
        "roots_cpu": roots_cpu,
        "thread_cpu": (last_cpu - first_cpu) if first_cpu is not None
        else 0.0,
    }


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------
def registry_value(status: dict, section: str, name: str):
    """A STATUS registry instrument by name, summed over its labels.

    Histograms return the first matching snapshot (a dict), or ``{}``.
    """
    values = status.get("metrics", {}).get(section, {})
    found = [value for key, value in values.items()
             if key == name or key.startswith(name + "{")]
    if section == "histograms":
        return found[0] if found else {}
    return sum(value or 0 for value in found)


def count_metrics(workload, phase, gate) -> dict:
    """Count-based layer readings, available with tracing off.

    Read from the STATUS snapshot taken after the last push and before
    FLUSH, the client's ``wire_stats()``, the store directory and the
    gate's in-process oracle counters.  A layer the workload does not
    run reads 0.
    """
    status = phase.status
    encoding = {}
    for tenant in status.get("tenants", {}).values():
        encoding = tenant.get("encoding", {})
    embeds = encoding.get("embeds", 0)
    frames = sum(stats["frames_sent"] + stats["frames_received"]
                 for stats in phase.wire)
    wire_bytes = sum(stats["bytes_sent"] + stats["bytes_received"]
                     for stats in phase.wire)
    return {
        "encoding.search_iterations_per_embed": (
            registry_value(status, "gauges", "hub_search_iterations_total")
            / embeds if embeds else 0.0),
        "encoding.memo_hit_rate":
            encoding.get("pattern_memo_hit_rate") or 0.0,
        "encoding.embeds_per_selected": (
            gate.embedded / gate.selected
            if workload.kind == "embed" and gate.selected else 0.0),
        "selection.selected_per_major": (
            gate.selected / gate.majors if gate.majors else 0.0),
        "stores.bytes_per_save": (
            sum(phase.store_bytes) / len(phase.store_bytes)
            if phase.store_bytes else 0.0),
        "hub.push_us_p50": registry_value(
            status, "histograms", "hub_push_us").get("p50") or 0.0,
        "service.credit_stalls": registry_value(
            status, "counters", "server_credit_stalls_total"),
        "service.replay_buffer_chunks": registry_value(
            status, "gauges", "server_replay_buffer_chunks"),
        "protocol.bytes_per_item": wire_bytes / phase.items,
        "transports.frames_per_push": frames / phase.pushes,
    }


#: Unit of every per-layer metric, in the order they are reported.
LAYER_UNITS = {
    "encoding.embed_us_per_call": "us",
    "encoding.detect_us_per_call": "us",
    "encoding.search_iterations_per_embed": "count",
    "encoding.memo_hit_rate": "ratio",
    "encoding.embeds_per_selected": "ratio",
    "extremes.zigzag_us_per_item": "us",
    "extremes.subset_us_per_call": "us",
    "labels.us_per_extreme": "us",
    "selection.us_per_major": "us",
    "selection.selected_per_major": "ratio",
    "quantize.us_per_subset": "us",
    "pipeline.feed_self_us_per_item": "us",
    "pipeline.to_state_us": "us",
    "stores.save_us": "us",
    "stores.saves_per_push": "count",
    "stores.bytes_per_save": "bytes",
    "hub.push_us_p50": "us",
    "hub.checkpoint_self_us": "us",
    "service.self_us_per_push": "us",
    "service.credit_stalls": "count",
    "service.replay_buffer_chunks": "count",
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.bytes_per_item": "bytes",
    "transports.frames_per_push": "count",
    "client.wait_ms_per_push": "ms",
    "trace.other_share": "ratio",
    "trace.overhead": "ratio",
}


def layer_metrics(workload, phase, gate, server_spans: list,
                  client_spans: list, untraced) -> "tuple[dict, list[str]]":
    """Per-layer metrics and the self-time table of a traced phase.

    ``untraced`` is the untraced phase run just before, whose CPU per
    item is the base of ``trace.overhead``.  Span times are thread CPU
    unless named ``wall``; ``stores.save_us`` is wall time so that it
    includes the fsync wait.
    """
    start, end = phase.interval
    server = summarize(server_spans, start, end)
    client = summarize(client_spans, start, end)
    srv, cli = server["by_name"], client["by_name"]

    def row(table, name):
        return table.get(name, _EMPTY_ROW)

    def per(value, count):
        return value / count if count else 0.0

    def cpu_sum(table, *names):
        return sum(row(table, name)["cpu"] for name in names)

    items = phase.items
    embed, detect = row(srv, "encoding.embed"), row(srv, "encoding.detect")
    subset, select = row(srv, "extremes.subset"), row(srv, "selection.select")
    to_state, saves = row(srv, "pipeline.to_state"), row(srv, "stores.save")
    checkpoint = row(srv, "hub.checkpoint")
    hub_pushes = row(srv, "hub.push")["calls"]
    encodes = [row(table, "protocol.encode") for table in (srv, cli)]
    decodes = [row(table, "protocol.decode") for table in (srv, cli)]

    # One self-time row per layer (both processes together), plus the
    # two implicit process roots.  `other` is what the process clocks
    # saw and the traced thread's clock did not.
    layers: "dict[str, float]" = {}
    for table in (srv, cli):
        for name, values in table.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + values["cpu_self"]
    layers["service"] = server["thread_cpu"] - server["roots_cpu"]
    layers["client"] = phase.client_thread_cpu - client["roots_cpu"]
    total = phase.client_cpu + phase.server_cpu
    other = total - sum(layers.values())
    traced_us = 1e6 * total / items
    untraced_us = 1e6 * (untraced.client_cpu + untraced.server_cpu) \
        / untraced.items
    table = [f"{'layer':<10} {'self cpu s':>10} {'share':>7} "
             f"{'us/item':>9}"]
    for layer, seconds in [*sorted(layers.items(), key=lambda kv: -kv[1]),
                           ("other", other), ("total", total)]:
        table.append(f"{layer:<10} {seconds:>10.4f} {seconds / total:>7.1%}"
                     f" {1e6 * seconds / items:>9.3f}")
    table.append(f"layer rows account for {(total - other) / total:.1%} of "
                 "client process_time + server /proc stat CPU; "
                 f"trace.overhead {traced_us / untraced_us:.3f} (traced "
                 f"{traced_us:.3f} / untraced {untraced_us:.3f} us/item)")
    metrics = {
        "encoding.embed_us_per_call": 1e6 * per(embed["cpu"],
                                                embed["calls"]),
        "encoding.detect_us_per_call": 1e6 * per(detect["cpu"],
                                                 detect["calls"]),
        "extremes.zigzag_us_per_item":
            1e6 * row(srv, "extremes.zigzag")["cpu"] / items,
        "extremes.subset_us_per_call": 1e6 * per(subset["cpu"],
                                                 subset["calls"]),
        "labels.us_per_extreme": 1e6 * per(
            cpu_sum(srv, "labels.preview", "labels.push"), gate.majors),
        "selection.us_per_major": 1e6 * per(select["cpu"], select["calls"]),
        "quantize.us_per_subset": 1e6 * per(
            cpu_sum(srv, "quantize.quantize_list",
                    "quantize.average_key_array"),
            embed["calls"] + detect["calls"]),
        "pipeline.feed_self_us_per_item":
            1e6 * row(srv, "pipeline.feed")["cpu_self"] / items,
        "pipeline.to_state_us": 1e6 * per(to_state["cpu"],
                                          to_state["calls"]),
        "stores.save_us": 1e6 * per(saves["wall"], saves["calls"]),
        "stores.saves_per_push": per(saves["calls"], hub_pushes),
        "hub.checkpoint_self_us": 1e6 * per(checkpoint["cpu_self"],
                                            checkpoint["calls"]),
        "service.self_us_per_push": 1e6 * per(layers["service"], hub_pushes),
        "protocol.encode_us_per_frame": 1e6 * per(
            sum(r["cpu"] for r in encodes), sum(r["calls"] for r in encodes)),
        "protocol.decode_us_per_frame": 1e6 * per(
            sum(r["cpu"] for r in decodes), sum(r["calls"] for r in decodes)),
        "client.wait_ms_per_push": 1e3 * per(
            sum(phase.feeds) - phase.client_cpu, phase.pushes),
        "trace.other_share": other / total,
        "trace.overhead": traced_us / untraced_us,
        **count_metrics(workload, phase, gate),
    }
    return {name: (metrics[name], unit)
            for name, unit in LAYER_UNITS.items()}, table

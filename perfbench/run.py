"""Served-path benchmark: ``repro serve`` against a closed-loop generator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload embed_default --seed 7 \
        --seconds 10 --trace 0

Each run spawns ``repro serve`` from the checkout's ``src/`` as a
subprocess and drives it from this process: one asyncio thread, one
:class:`~repro.server.client.AsyncRemoteClient` per connection, at most
two connections, tcp + binary wire over loopback.  Load is closed loop:
a stream sends its next chunk only after its previous ``feed`` has
returned.  Inputs come from ``--seed`` alone (sensor generator seeds
and stream keys); the server receives only the generated values.

Every run, traced or not, ends with an exact-output gate computed from
the run's own inputs: the served embed output must equal in-process
``watermark_stream`` of the same values bit for bit, and served
detection must equal offline ``detect_watermark`` of the same
summarised input.  A mismatch prints the workload, seed and first
differing index and exits with code 1.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  README.md
beside this file describes the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Payload embedded in every stream; one bit fits the default phi=2.
WATERMARK = "1"
#: spawn -> ready -> open repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Items per generator call.  A stream is the concatenation of
#: fixed-size blocks, so it depends on the seed alone, not on how many
#: items a run consumes.
BLOCK = 1 << 16
TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "embed" or "detect"
    encoding: str
    push_items: int            # items per PUSH frame
    durable: bool              # directory store, checkpoint every push
    streams: int = 1           # embed streams, one connection each
    prefill_blocks: int = 0    # input blocks generated before timing
    court_streams: int = 0     # distinct detection inputs
    court_items: int = 0       # items per detection input before summary


WORKLOADS = {w.name: w for w in (
    Workload("embed_default", "embed", "multihash", 512, True,
             streams=2, prefill_blocks=4),
    Workload("embed_initial_durable", "embed", "initial", 512, True,
             streams=2, prefill_blocks=12),
    Workload("detect_bulk", "detect", "multihash", 4096, False,
             court_streams=4, court_items=1 << 16),
)}


class GateFailure(Exception):
    """A served output differs from the in-process oracle."""


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {SRC}; "
                         "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream_key(seed: int, label: str) -> bytes:
    return f"perfbench-{seed}-{label}".encode()


def concat(pieces):
    import numpy as np

    pieces = [piece for piece in pieces if piece.size]
    return (np.concatenate(pieces) if pieces
            else np.empty(0, dtype=np.float64))


def first_difference(served, expected) -> "int | None":
    """Index of the first item whose bits differ, else ``None``.

    A length mismatch reports the length of the shorter output.
    """
    import numpy as np

    served = np.ascontiguousarray(served, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    common = min(served.size, expected.size)
    differs = np.flatnonzero(served[:common].view(np.uint64)
                             != expected[:common].view(np.uint64))
    if differs.size:
        return int(differs[0])
    return common if served.size != expected.size else None


def fs_type(path: Path) -> str:
    """File-system type of the mount that holds ``path``."""
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            mount, mount_type = line.split()[1:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, mount_type
    return kind


def host_cpu_ticks() -> "tuple[int, int]":
    """(steal, total) ticks of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; it explains slow runs on a shared host.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def percentile(values: "list[float]", q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class SensorSource:
    """One embed stream's input, generated block by block."""

    def __init__(self, seed: int, label: str, prefill_blocks: int) -> None:
        from repro.streams import TemperatureSensorGenerator

        self.label = label
        self._generator = TemperatureSensorGenerator(
            seed=derived_seed(seed, label))
        self._blocks = [self._generator.generate(BLOCK)
                        for _ in range(prefill_blocks)]
        self.consumed = 0
        #: Wall and CPU seconds spent generating blocks inside the timed
        #: loop, once the prefill runs out; the run subtracts them.
        self.late_wall = 0.0
        self.late_cpu = 0.0

    def take(self, n: int):
        end = self.consumed + n
        while len(self._blocks) * BLOCK < end:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self._blocks.append(self._generator.generate(BLOCK))
            self.late_cpu += time.process_time() - cpu0
            self.late_wall += time.perf_counter() - wall0
        block, offset = divmod(self.consumed, BLOCK)
        if offset + n <= BLOCK:
            chunk = self._blocks[block][offset:offset + n]
        else:
            chunk = concat(self._blocks[block:block + 2])[offset:offset + n]
        self.consumed = end
        return chunk

    def fed(self):
        return concat(self._blocks)[:self.consumed]


@dataclass
class CourtInput:
    """One summarised marked stream and its offline detection."""

    key: bytes
    values: object
    expected: object           # DetectionResult of detect_watermark


def court_inputs(seed: int, workload: Workload) -> "list[CourtInput]":
    from repro import REGISTRY, detect_watermark, watermark_stream
    from repro.streams import TemperatureSensorGenerator

    summarize = REGISTRY.get("transform", "summarize")(degree=2)
    inputs = []
    for index in range(workload.court_streams):
        label = f"court{index}"
        key = stream_key(seed, label)
        clean = TemperatureSensorGenerator(
            seed=derived_seed(seed, label)).generate(workload.court_items)
        marked, _ = watermark_stream(clean, WATERMARK, key,
                                     encoding=workload.encoding)
        summary = summarize(marked)
        expected = detect_watermark(summary, len(WATERMARK), key,
                                    encoding=workload.encoding,
                                    transform_degree=2.0)
        inputs.append(CourtInput(key, summary, expected))
    return inputs


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """In the child: get SIGTERM when the benchmark process dies."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, workload: Workload, rundir: Path,
                 spans_path: "Path | None") -> None:
        serve_args = ["--host", "127.0.0.1", "--port", "0",
                      "--transport", "tcp", "--wire", "binary"]
        if workload.durable:
            serve_args += ["--store", str(rundir / "store"),
                           "--store-backend", "directory",
                           "--checkpoint-every", "1"]
        else:
            serve_args += ["--checkpoint-every", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path), *serve_args]
        self._log = open(rundir / "server.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, preexec_fn=_die_with_parent)
        self.host = self.port = None

    def wait_ready(self) -> None:
        """Read the ready line: one JSON object naming the bound port."""
        stdout = self.process.stdout
        deadline = time.monotonic() + TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            readable, _, _ = select.select([stdout], [], [],
                                           max(remaining, 0))
            if not readable:
                raise RuntimeError("repro serve sent no ready line")
            byte = os.read(stdout.fileno(), 1)
            if not byte:
                raise RuntimeError("repro serve exited before its ready "
                                   f"line; see {self._log.name}")
            line += byte
        serving = json.loads(line)["serving"]
        self.host, self.port = serving["host"], serving["port"]

    def cpu_seconds(self) -> float:
        """utime + stime from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.process.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=TIMEOUT)
        self.process.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# one measured phase
# ----------------------------------------------------------------------
@dataclass(repr=False)
class Phase:
    """What one measured phase observed.

    ``repr=False``: asyncio formats the result of the task that returns
    a phase, and a field-by-field repr of every output chunk takes
    seconds.
    """

    items: int = 0
    pushes: int = 0            # PUSH frames the feeds were split into
    feeds: "list[float]" = field(default_factory=list)  # feed wall seconds
    wall: float = 0.0
    client_cpu: float = 0.0
    client_thread_cpu: float = 0.0
    server_cpu: float = 0.0
    interval: "tuple[float, float]" = (0.0, 0.0)
    steal_share: float = 0.0   # host steal time / all CPU time, interval
    status: dict = field(default_factory=dict)   # STATUS before FLUSH
    wire: "list[dict]" = field(default_factory=list)
    store_bytes: "list[int]" = field(default_factory=list)
    server_rss_mb: float = 0.0
    client_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (label, SensorSource, output pieces) per embed stream.
    embed_outputs: "list[tuple]" = field(default_factory=list)
    #: (job, CourtInput, passed-through pieces, DetectionResult).
    detect_results: "list[tuple]" = field(default_factory=list)


async def open_court(workload: Workload, client, court, job: int):
    entry = court[job % len(court)]
    return await client.detect(f"court{job}", len(WATERMARK), entry.key,
                               encoding=workload.encoding,
                               transform_degree=2.0)


async def open_streams(workload: Workload, server: Server, seed: int,
                       inputs) -> "tuple[list, list]":
    from repro.server.client import AsyncRemoteClient

    clients, sessions = [], []
    for index in range(workload.streams):
        client = AsyncRemoteClient(server.host, server.port,
                                   push_items=workload.push_items,
                                   transport="tcp", wire="binary")
        await client.connect()
        clients.append(client)
        if workload.kind == "embed":
            label = inputs[index].label
            sessions.append(await client.protect(
                label, WATERMARK, stream_key(seed, label),
                encoding=workload.encoding))
        else:
            sessions.append(await open_court(workload, client, inputs, 0))
    return clients, sessions


async def embed_loop(workload, phase, clients, sessions, sources,
                     deadline, store: "Path | None") -> None:
    perf = time.perf_counter

    async def stream(session, source, pieces) -> None:
        while perf() < deadline:
            chunk = source.take(workload.push_items)
            started = perf()
            pieces.append(await session.feed(chunk))
            phase.feeds.append(perf() - started)
            phase.attempted += 1

    outputs = [[] for _ in sessions]
    await asyncio.gather(*map(stream, sessions, sources, outputs))
    phase.status = await clients[0].status()
    phase.wire = [client.wire_stats() for client in clients]
    if store is not None:
        # Latest session and sidecar checkpoint files.
        phase.store_bytes = [path.stat().st_size
                             for path in store.rglob("*.json")]
    tails = await asyncio.gather(*(session.finish() for session in sessions))
    phase.attempted += 1 + len(sessions)
    for source, pieces, tail in zip(sources, outputs, tails):
        pieces.append(tail)
        phase.embed_outputs.append((source.label, source, pieces))
    phase.items = sum(source.consumed for source in sources)
    phase.pushes = len(phase.feeds)


async def detect_loop(workload, phase, clients, sessions, court,
                      deadline) -> None:
    perf = time.perf_counter
    client, session = clients[0], sessions[0]
    job = 0
    while True:
        entry = court[job % len(court)]
        started = perf()
        pieces = [await session.feed(entry.values)]
        phase.feeds.append(perf() - started)
        last = perf() >= deadline
        if last:
            phase.status = await client.status()
            phase.wire = [client.wire_stats()]
        pieces.append(await session.finish())
        phase.attempted += 3 if last else 2
        phase.items += entry.values.size
        phase.pushes += -(-entry.values.size // workload.push_items)
        phase.detect_results.append((job, entry, pieces, session.result()))
        if last:
            return
        job += 1
        session = await open_court(workload, client, court, job)
        phase.attempted += 1


async def measure(workload: Workload, seed: int, seconds: float,
                  rundir: Path, inputs, setup_repeats: int,
                  spans_path: "Path | None" = None,
                  tracer=None) -> "tuple[Phase, list[float]]":
    """Set up ``setup_repeats`` times; measure on the last set-up."""
    setups = []
    for attempt in range(setup_repeats):
        last = attempt == setup_repeats - 1
        shutil.rmtree(rundir / "store", ignore_errors=True)
        started = time.perf_counter()
        server = Server(workload, rundir, spans_path if last else None)
        try:
            server.wait_ready()
            clients, sessions = await open_streams(workload, server, seed,
                                                   inputs)
            setups.append(time.perf_counter() - started)
            if last:
                phase = Phase(attempted=len(sessions))
                await run_interval(workload, phase, clients, sessions,
                                   inputs, seconds, rundir, server, tracer)
                phase.server_rss_mb = server.peak_rss_mb()
                phase.client_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                phase.failed = sum(client.reconnects for client in clients)
            for client in clients:
                await client.close()
        finally:
            server.stop()
    phase.failed += tracing.registry_value(phase.status, "counters",
                                           "server_credit_stalls_total")
    return phase, setups


async def run_interval(workload, phase, clients, sessions, inputs, seconds,
                       rundir, server, tracer) -> None:
    """The measured interval: first PUSH sent to last FLUSH result."""
    perf = time.perf_counter
    if tracer is not None:
        tracer.install(tracing.CLIENT_TARGETS)
    try:
        steal0 = host_cpu_ticks()
        server_cpu0 = server.cpu_seconds()
        thread0 = time.thread_time()
        cpu0 = time.process_time()
        wall0 = perf()
        if workload.kind == "embed":
            await embed_loop(workload, phase, clients, sessions, inputs,
                             wall0 + seconds,
                             rundir / "store" if workload.durable else None)
        else:
            await detect_loop(workload, phase, clients, sessions, inputs,
                              wall0 + seconds)
        wall1 = perf()
        late_cpu = sum(getattr(source, "late_cpu", 0.0) for source in inputs)
        late_wall = sum(getattr(source, "late_wall", 0.0)
                        for source in inputs)
        phase.client_cpu = time.process_time() - cpu0 - late_cpu
        phase.client_thread_cpu = time.thread_time() - thread0 - late_cpu
        phase.server_cpu = server.cpu_seconds() - server_cpu0
        phase.wall = wall1 - wall0 - late_wall
        phase.interval = (wall0, wall1)
        steal1 = host_cpu_ticks()
        phase.steal_share = (steal1[0] - steal0[0]) / max(
            steal1[1] - steal0[1], 1)
    finally:
        if tracer is not None:
            tracer.uninstall()


# ----------------------------------------------------------------------
# the exact-output gate
# ----------------------------------------------------------------------
@dataclass
class GateReport:
    lines: "list[str]" = field(default_factory=list)
    embedded: int = 0
    majors: int = 0
    selected: int = 0
    votes: int = 0
    abs_bias: int = 0


def check_phase(workload: Workload, seed: int, phase: Phase) -> GateReport:
    """Compare every served output with its in-process oracle.

    Raises :class:`GateFailure` naming the workload, seed and first
    differing index on any mismatch.
    """
    from repro import REGISTRY, detect_watermark, watermark_stream

    summarize = REGISTRY.get("transform", "summarize")(degree=2)
    report = GateReport()
    where = f"workload {workload.name} seed {seed}"
    for label, source, pieces in phase.embed_outputs:
        fed, served = source.fed(), concat(pieces)
        key = stream_key(seed, label)
        expected, embed_report = watermark_stream(
            fed, WATERMARK, key, encoding=workload.encoding)
        index = first_difference(served, expected)
        if index is not None:
            raise GateFailure(
                f"{where}: stream {label} output differs from in-process "
                f"watermark_stream at index {index} (items_in {fed.size}, "
                f"items_out {served.size})")
        digest = hashlib.sha256(served.tobytes()).hexdigest()
        report.lines.append(f"gate {label}: items_in {fed.size} == "
                            f"items_out, sha256 {digest} == "
                            "watermark_stream")
        report.embedded += embed_report.embedded
        report.majors += embed_report.counters.majors
        report.selected += embed_report.counters.selected
        # Protection strength as a court sees it after a degree-2
        # summary; clean detection votes almost all one way and would
        # not show a weaker embedding.
        detected = detect_watermark(summarize(served), len(WATERMARK), key,
                                    encoding=workload.encoding,
                                    transform_degree=2.0)
        report.votes += detected.votes(0)
        report.abs_bias += abs(detected.bias(0))
    for job, entry, pieces, served in phase.detect_results:
        index = first_difference(concat(pieces), entry.values)
        if index is not None:
            raise GateFailure(
                f"{where}: court job {job} passed-through items differ "
                f"from its input at index {index}")
        expected = entry.expected
        for name, got, want in (
                ("summary", served.summary(), expected.summary()),
                ("buckets_true", list(served.buckets_true),
                 list(expected.buckets_true)),
                ("buckets_false", list(served.buckets_false),
                 list(expected.buckets_false)),
                ("abstentions", served.abstentions, expected.abstentions)):
            if got != want:
                raise GateFailure(
                    f"{where}: court job {job} {name} differs from "
                    f"offline detect_watermark: {got!r} != {want!r}")
        report.votes += served.votes(0)
        report.abs_bias += abs(served.bias(0))
        report.majors += served.counters.majors
        report.selected += served.counters.selected
    if phase.detect_results:
        report.lines.append(
            f"gate: {len(phase.detect_results)} court jobs == offline "
            "detect_watermark (summary, vote buckets, abstentions)")
    return report


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, phase: Phase, gate: GateReport,
               setups: "list[float]") -> dict:
    items = phase.items
    # The court's analogue of bits embedded: decisive votes found.
    found = gate.embedded if workload.kind == "embed" else gate.votes
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_us_per_item": (1e6 * (phase.client_cpu + phase.server_cpu)
                            / items, "us"),
        "server_peak_rss_mb": (phase.server_rss_mb, "MB"),
        "embedded_per_kitem": (1e3 * found / items, "count"),
        "vote_margin": (gate.abs_bias / gate.votes, "ratio"),
    }


def run_phase(workload: Workload, seed: int, seconds: float, rundir: Path,
              *, setup_repeats: int = 1, traced: bool = False):
    """Measure one phase and gate its outputs."""
    if workload.kind == "embed":
        inputs = [SensorSource(seed, f"sensor{index}",
                               workload.prefill_blocks)
                  for index in range(workload.streams)]
    else:
        inputs = court_inputs(seed, workload)
    spans_path = rundir / "server-spans.json" if traced else None
    tracer = tracing.Tracer() if traced else None
    phase, setups = asyncio.run(measure(
        workload, seed, seconds, rundir, inputs, setup_repeats,
        spans_path, tracer))
    gate = check_phase(workload, seed, phase)
    return phase, setups, gate, tracer, spans_path


def describe(workload: Workload, seed: int, phase: Phase, gate: GateReport,
             rundir: Path) -> "list[str]":
    store = (f"directory store on {fs_type(rundir)}" if workload.durable
             else "memory store, no checkpoints")
    return [f"workload {workload.name} seed {seed}: {phase.items} items "
            f"in {phase.wall:.3f} s, {phase.pushes} PUSH frames, "
            f"{len(phase.feeds)} feed calls; tcp + binary wire over "
            f"loopback on one host, {store}; host steal "
            f"{phase.steal_share:.1%} of CPU time", *gate.lines]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import_library()
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("run-*"):
        # Left behind by a run that was killed outright.
        if not Path(f"/proc/{stale.name[4:]}").exists():
            shutil.rmtree(stale, ignore_errors=True)
    rundir = WORK / f"run-{os.getpid()}"
    rundir.mkdir()
    try:
        if not trace:
            phase, setups, gate, _, _ = run_phase(
                workload, seed, seconds, rundir,
                setup_repeats=SETUP_REPEATS)
            lines = describe(workload, seed, phase, gate, rundir)
            # Printed but not in BENCHMARK.json (README.md says why).
            lines.append(
                f"wall clock: items_per_s = {phase.items / phase.wall:.6g}"
                f" 1/s, push_p50_ms = {1e3 * percentile(phase.feeds, 50):.6g}"
                f" ms, push_p95_ms = {1e3 * percentile(phase.feeds, 95):.6g}"
                f" ms ({len(phase.feeds)} feed calls); client_peak_rss_mb ="
                f" {phase.client_rss_mb:.6g} MB; error_rate = "
                f"{phase.failed / phase.attempted:.6g}")
            lines.append("counts (STATUS before FLUSH, wire_stats): " + ", ".join(
                f"{name} = {value:.6g}" for name, value in
                tracing.count_metrics(workload, phase, gate).items()))
            metrics = end_to_end(workload, phase, gate, setups)
            attempted, failed = phase.attempted, phase.failed
        else:
            # Untraced and traced halves on fresh servers; their ratio
            # is the tracing overhead.
            plain, _, _, _, _ = run_phase(workload, seed, seconds / 2,
                                          rundir)
            phase, _, gate, tracer, spans_path = run_phase(
                workload, seed, seconds / 2, rundir, traced=True)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copyfile(spans_path,
                            traces / f"{workload.name}-server.json")
            tracer.dump(traces / f"{workload.name}-client.json")
            metrics, table = tracing.layer_metrics(
                workload, phase, gate, tracing.load_spans(spans_path),
                tracer.spans, plain)
            lines = describe(workload, seed, phase, gate, rundir)
            lines.append(f"traced self time by layer ({workload.name}):")
            lines += ["  " + line for line in table]
            attempted = plain.attempted + phase.attempted
            failed = plain.failed + phase.failed
    except GateFailure as exc:
        print(f"perfbench: OUTPUT MISMATCH: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    lines += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Served-path benchmark of repro serve.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Unwind on SIGTERM too, so the server is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

"""One envelope per checkpoint: session state and replay buffer together.

The server saves each stream's session state, replay buffer, ack
watermark and key fingerprint in a single store envelope.  These tests
pin the consequences end to end:

* a torn write of that envelope (injected by the chaos store, which now
  covers all durable state), followed by a crash and ``--recover``,
  still resumes bit-identically and exactly once, because the session
  and its replay buffer fall back to the *same* older generation;
* a wrong-key resume after ``--recover`` is still refused;
* a store written by an older server — session envelopes without
  ``extra`` plus ``%meta/`` sidecars — still restores its sessions,
  warns once that the sidecars are ignored, and refuses loudly (never
  silently) a resume that needs outputs only a sidecar held.
"""

from __future__ import annotations

import asyncio
import logging
import time

import numpy as np
from test_server import KEY, PARAMS, ServerHarness, _params_dict

from repro import watermark_stream
from repro.chaos import FaultInjector, FaultPlan, StoreFaults
from repro.hub import StreamHub
from repro.server import protocol
from repro.server.client import RemoteClient
from repro.stores import DirectoryCheckpointStore
from repro.streams.generators import TemperatureSensorGenerator


async def _open_frames(host, port, stream_id, key, *, delivered=0,
                       pushes=(), flush=False):
    """Resume-open one stream over raw frames; return the frames read.

    After the OPEN result (and, on success, its credit grant) each of
    ``pushes`` is sent and its result read, then an optional FLUSH.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await protocol.write_frame(writer, {
            "type": "hello", "version": protocol.PROTOCOL_VERSION})
        await protocol.read_frame(reader)
        await protocol.write_frame(writer, {
            "type": "open", "stream_id": stream_id, "kind": "protection",
            "key": protocol.encode_key(key), "watermark": "1",
            "resume": True, "delivered": delivered,
            "params": _params_dict()})
        frames = [await protocol.read_frame(reader)]
        if frames[0]["type"] == "error":
            return frames
        await protocol.read_frame(reader)  # credit grant
        for seq, values in enumerate(pushes):
            await protocol.write_frame(writer, {
                "type": "push", "stream_id": stream_id, "seq": seq,
                "delivered": delivered,
                "values": protocol.encode_array(values)})
            frames.append(await protocol.read_frame(reader))
            delivered = frames[-1]["items_out"]
            await protocol.read_frame(reader)  # credit
        if flush:
            await protocol.write_frame(writer, {
                "type": "flush", "stream_id": stream_id,
                "delivered": delivered})
            frames.append(await protocol.read_frame(reader))
        return frames
    finally:
        writer.close()


def _wait_for(predicate, timeout=10.0):
    """Poll until ``predicate()`` holds: the server checkpoints each push
    *after* sending its result, so the client can be ahead of it."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _resume(host, port, stream_id, key, **kwargs):
    return asyncio.run(asyncio.wait_for(
        _open_frames(host, port, stream_id, key, **kwargs), 15))


class TestChaosCoversReplayBuffer:
    def test_torn_envelope_crash_recover_resume_exactly_once(self,
                                                              tmp_path):
        # A vanishing rate arms the chaos store wrapper; the test then
        # tears exactly one save by switching that store's rates.
        plan = FaultPlan(seed=13, store=StoreFaults(io_error_rate=1e-12))
        injector = FaultInjector(plan)
        server = ServerHarness(tmp_path, checkpoint_every=1, credits=3,
                               fault_injector=injector)
        host, port = server.start()
        values = TemperatureSensorGenerator(eta=60, seed=51).generate(4000)
        client = RemoteClient(host, port, reconnect_delay=0.1,
                              reconnect_attempts=80)
        try:
            session = client.protect("torn", "1", KEY, params=PARAMS)
            out = [session.feed(values[start:start + 500])
                   for start in range(0, 1500, 500)]
            hub = server.service.hub_for("default")
            _wait_for(lambda: hub.stats("torn")["checkpoints"] == 3)
            chaos_store = hub.store
            chaos_store._faults = StoreFaults(torn_write_rate=1.0)
            out.append(session.feed(values[1500:2000]))
            _wait_for(lambda: injector.events)
            # The disk then dies: the connection-release save of the
            # crashing server fails too, leaving the torn envelope.
            chaos_store._faults = StoreFaults(io_error_rate=1.0)
            server.crash()
            server.restart_recovered()
            frames = _resume(host, port, "torn", b"wrong-key")
            assert frames[0]["type"] == "error"
            assert "key mismatch" in frames[0]["message"]

            for start in range(2000, 4000, 500):
                out.append(session.feed(values[start:start + 500]))
            out.append(session.finish())
            assert client.reconnects >= 1
        finally:
            client.close()
            server.drain()
            server.stop()
        faults = [event["fault"] for event in injector.events]
        assert faults[0] == "torn-write"
        assert set(faults[1:]) <= {"io-error"}, faults
        # The torn latest was quarantined (by whichever life read it
        # first) and the previous generation restored: session and
        # replay buffer from the same save.
        recovered = server.service.hub_for("default").store.inner
        assert chaos_store.inner.fallbacks + recovered.fallbacks == 1
        marked = np.concatenate([piece for piece in out if piece.size])
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)


class TestLegacySidecarStore:
    def _legacy_store(self, root, values):
        """A store laid out by an older server: a session envelope
        without ``extra`` and the replay buffer in a %meta sidecar."""
        hub = StreamHub(store=DirectoryCheckpointStore(root / "default"))
        hub.protect("old", "1", KEY, params=PARAMS)
        released = hub.push("old", values)
        hub.checkpoint("old")
        DirectoryCheckpointStore(root / "%meta" / "default").save("old", {
            "acked": 0, "key_fp": None,
            "chunks": [[0, protocol.encode_array(released)]]})
        return released

    def test_recover_warns_restores_and_never_loses_silently(self, tmp_path,
                                                             caplog):
        values = TemperatureSensorGenerator(eta=60, seed=52).generate(3000)
        released = self._legacy_store(tmp_path / "server-store",
                                      values[:1500])
        assert released.size > 0
        server = ServerHarness(tmp_path, checkpoint_every=1, credits=3)
        with caplog.at_level(logging.WARNING,
                             logger="repro.server.service"):
            host, port = server.start(recover=True)
        try:
            warnings = [r.getMessage() for r in caplog.records
                        if "legacy %meta/" in r.getMessage()]
            assert len(warnings) == 1

            # The client lost the released outputs: only the ignored
            # sidecar held them, so the resume is refused loudly.
            frames = _resume(host, port, "old", KEY, delivered=0)
            assert frames[0]["type"] == "error"
            assert "no longer in the replay buffer" in frames[0]["message"]

            # A client that already holds them resumes normally.
            frames = _resume(host, port, "old", KEY,
                             delivered=int(released.size),
                             pushes=[values[1500:]], flush=True)
        finally:
            server.drain()
            server.stop()
        opened, pushed, flushed = frames
        assert opened["items_in"] == 1500
        assert opened["items_out"] == released.size
        assert "values" not in opened
        marked = np.concatenate([
            released, protocol.decode_array(pushed["values"]),
            protocol.decode_array(flushed["values"])])
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

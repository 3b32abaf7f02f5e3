"""Farm wire serialization: stats round-trips, frames, socket streams.

The remote campaign backends trust three serialized forms completely:
``FuzzStats.to_dict`` (final worker results), the corpus entry records
(seed transfer), and the epoch-result payload (barrier deltas).  A
silently-dropped field here would not crash anything — it would just
make a subprocess campaign quietly diverge from the inline
reference — so every round-trip is pinned property-style, generically
over the dataclass fields (a newly added counter is covered the day it
is added, or the wire test fails).
"""

from __future__ import annotations

import dataclasses
import io
import json
import socket
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.agent.protocol import ArgImm, Call, TestProgram  # noqa: E402
from repro.farm.wire import (  # noqa: E402
    MemoryFrameIO,
    PipeFrameIO,
    WorkerSpec,
    WorkerTransportError,
    decode_epoch_result,
    encode_epoch_result,
    frame_size,
)
from repro.fuzz.corpus import (  # noqa: E402
    CorpusEntry,
    entry_from_record,
    entry_to_record,
    program_hash,
)
from repro.fuzz.crash import KIND_PANIC, CrashReport  # noqa: E402
from repro.fuzz.stats import CampaignStats, FuzzStats  # noqa: E402

pytestmark = pytest.mark.property

counters = st.integers(min_value=0, max_value=2**40)

_SCALAR_FIELDS = [f.name for f in dataclasses.fields(FuzzStats)
                  if f.name != "series"]

fuzz_stats = st.builds(
    lambda values, series: _build_stats(values, series),
    values=st.lists(counters, min_size=len(_SCALAR_FIELDS),
                    max_size=len(_SCALAR_FIELDS)),
    series=st.lists(st.tuples(counters, counters), max_size=8))


def _build_stats(values, series) -> FuzzStats:
    stats = FuzzStats()
    for name, value in zip(_SCALAR_FIELDS, values):
        setattr(stats, name, value)
    for cycles, edges in series:
        stats.series.append((cycles, edges))
    return stats


class TestFuzzStatsRoundTrip:
    @given(stats=fuzz_stats)
    @settings(max_examples=100, deadline=None)
    def test_every_field_survives_the_wire(self, stats):
        # Through the dict AND through canonical JSON (what the frames
        # actually ship).
        wire = json.loads(json.dumps(stats.to_dict(), sort_keys=True))
        restored = FuzzStats.from_dict(wire)
        for field in dataclasses.fields(FuzzStats):
            assert getattr(restored, field.name) == \
                getattr(stats, field.name), field.name

    @given(stats=fuzz_stats)
    @settings(max_examples=100, deadline=None)
    def test_to_dict_is_field_complete(self, stats):
        # A field missing from to_dict would silently zero out on the
        # far side of a subprocess campaign.
        data = stats.to_dict()
        for field in dataclasses.fields(FuzzStats):
            assert field.name in data, field.name

    @given(stats=fuzz_stats, restore_invariant=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_semantic_projection_agrees_across_the_wire(
            self, stats, restore_invariant):
        wire = json.loads(json.dumps(stats.to_dict()))
        restored = FuzzStats.from_dict(wire)
        assert restored.semantic_dict(restore_invariant) == \
            stats.semantic_dict(restore_invariant)

    @given(stats_list=st.lists(fuzz_stats, max_size=3),
           values=st.lists(counters, min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_campaign_stats_round_trip(self, stats_list, values):
        campaign = CampaignStats(
            workers=stats_list, merged_edges=values[0],
            merged_unique_crashes=values[1],
            shared_corpus_size=values[2], sync_epochs=values[3],
            seeds_shared=values[4], seeds_imported=values[5],
            aborted_workers=values[6], resumed_from_epoch=values[7],
            interrupted=bool(values[0] % 2))
        wire = json.loads(json.dumps(campaign.to_dict()))
        assert CampaignStats.from_dict(wire).to_dict() == \
            campaign.to_dict()


def make_entry(value, edges, crashed=False):
    program = TestProgram(calls=[Call(1, (ArgImm(value),))])
    return CorpusEntry(program=program, new_edges=len(edges),
                       crashed=crashed, digest=program_hash(program),
                       edge_footprint=frozenset(edges))


entry_strategy = st.builds(
    make_entry,
    value=st.integers(min_value=0, max_value=1000),
    edges=st.sets(st.integers(min_value=0, max_value=2**31),
                  max_size=6),
    crashed=st.booleans())


class TestEpochResultRoundTrip:
    @given(entries=st.lists(entry_strategy, max_size=5),
           edges=st.sets(st.integers(min_value=0, max_value=2**31),
                         max_size=10),
           status=st.sampled_from(["live", "done", "aborted"]),
           cycles=counters)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, entries, edges, status, cycles):
        summary = {"edges": 3, "execs": 5, "crashes": 0,
                   "restores": 1, "snapshot_restores": 2,
                   "snapshot_fallbacks": 0}
        crashes = [CrashReport(os_name="freertos", kind=KIND_PANIC,
                               cause="panic-wire")]
        payload = json.loads(json.dumps(encode_epoch_result(
            status, entries, edges, crashes, summary, cycles)))
        (r_status, r_entries, r_edges, r_crashes, r_summary,
         r_cycles) = decode_epoch_result(payload)
        assert r_status == status
        assert r_edges == edges
        assert r_summary == summary
        assert r_cycles == cycles
        assert [c.signature() for c in r_crashes] == \
            [c.signature() for c in crashes]
        assert [(e.digest, e.new_edges, e.crashed, e.edge_footprint)
                for e in r_entries] == \
            [(e.digest, e.new_edges, e.crashed, e.edge_footprint)
             for e in entries]

    @given(entry=entry_strategy)
    @settings(max_examples=60, deadline=None)
    def test_corpus_entry_record_round_trip(self, entry):
        record = json.loads(json.dumps(entry_to_record(entry)))
        restored = entry_from_record(record)
        assert restored.digest == entry.digest
        assert restored.new_edges == entry.new_edges
        assert restored.crashed == entry.crashed
        assert restored.edge_footprint == entry.edge_footprint
        assert program_hash(restored.program) == entry.digest


class TestWorkerSpec:
    @given(index=st.integers(min_value=0, max_value=64),
           seed=counters, budget=counters, snapshots=st.booleans(),
           trace_dir=st.text(max_size=24), sample_interval=counters,
           campaign_seed=counters)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, index, seed, budget, snapshots, trace_dir,
                        sample_interval, campaign_seed):
        spec = WorkerSpec(target="freertos", index=index, seed=seed,
                          budget_cycles=budget, snapshots=snapshots,
                          name=f"eof-w{index}", trace_dir=trace_dir,
                          sample_interval=sample_interval,
                          campaign_seed=campaign_seed)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert WorkerSpec.from_dict(wire) == spec


class TestPipeFraming:
    def roundtrip(self, kind, payload):
        buffer = io.BytesIO()
        writer = PipeFrameIO(io.BytesIO(), buffer)
        sent = writer.send(kind, payload)
        assert sent == frame_size(kind, payload)
        reader = PipeFrameIO(io.BytesIO(buffer.getvalue()),
                             io.BytesIO())
        got_kind, got_payload = reader.recv()
        assert reader.last_frame_bytes == sent
        return got_kind, got_payload

    @given(kind=st.sampled_from(["hello", "epoch", "epoch_result",
                                 "deliver", "finish"]),
           payload=st.dictionaries(
               st.text(min_size=1, max_size=8),
               st.one_of(counters, st.text(max_size=16)),
               max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_frames_round_trip(self, kind, payload):
        assert self.roundtrip(kind, payload) == (kind, payload)

    def test_corrupt_frame_is_a_dead_worker(self):
        buffer = io.BytesIO()
        PipeFrameIO(io.BytesIO(), buffer).send("epoch", {"target": 5})
        raw = bytearray(buffer.getvalue())
        raw[-1] ^= 0xFF  # flip one payload byte -> CRC mismatch
        reader = PipeFrameIO(io.BytesIO(bytes(raw)), io.BytesIO())
        with pytest.raises(WorkerTransportError):
            reader.recv()

    def test_truncated_frame_is_a_dead_worker(self):
        buffer = io.BytesIO()
        PipeFrameIO(io.BytesIO(), buffer).send("epoch", {"target": 5})
        raw = buffer.getvalue()[:-3]
        reader = PipeFrameIO(io.BytesIO(raw), io.BytesIO())
        with pytest.raises(WorkerTransportError):
            reader.recv()


class TestMemoryFrames:
    """The inline backend's frame pair: pipe frames without a pipe."""

    @given(payload=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(counters, st.text(max_size=16)), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_dispatcher_answers_the_decoded_frame(self, payload):
        seen = []

        def answer(kind, message):
            seen.append((kind, message))
            return "epoch_result", message

        pair = MemoryFrameIO(answer)
        assert pair.send("epoch", payload) == frame_size("epoch", payload)
        assert seen == [("epoch", payload)]
        assert pair.recv() == ("epoch_result", payload)
        assert pair.last_frame_bytes == \
            frame_size("epoch_result", payload)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError,
                                       OSError])
    def test_dispatcher_exceptions_propagate_unchanged(self, error):
        def answer(kind, message):
            raise error("in the worker")

        with pytest.raises(error, match="in the worker"):
            MemoryFrameIO(answer).send("epoch", {"target": 5})

    def test_missing_reply_is_a_dead_worker(self):
        pair = MemoryFrameIO(lambda kind, message: None)
        pair.send("hello", {})
        with pytest.raises(WorkerTransportError):
            pair.recv()


class CountingReader:
    """A byte stream that counts the ``read`` calls made on it."""

    def __init__(self, raw):
        self.raw = raw
        self.reads = 0

    def read(self, count):
        self.reads += 1
        return self.raw.read(count)

    def close(self):
        self.raw.close()


def socket_io(sock, rfile=None):
    """PipeFrameIO over one end of a socket, reading unbuffered so a
    read returns whatever the socket holds (short reads included)."""
    return PipeFrameIO(rfile or sock.makefile("rb", buffering=0),
                       sock.makefile("wb"))


class TestSocketStream:
    """The one framing over a real socket instead of pipes."""

    def test_round_trip_across_short_reads(self):
        left, right = socket.socketpair()
        right.settimeout(10)  # a failed send fails the test, not hangs it
        with left, right:
            reader = CountingReader(right.makefile("rb", buffering=0))
            near, far = socket_io(left), socket_io(right, reader)
            # Far larger than a socket buffer, so the body cannot arrive
            # in one read and _read_exact must loop.
            payload = {"edges": list(range(300_000))}
            sent = []
            writer = threading.Thread(daemon=True, target=lambda: sent.append(
                near.send("epoch_result", payload)))
            writer.start()
            assert far.recv() == ("epoch_result", payload)
            writer.join(timeout=10)
            assert sent == [frame_size("epoch_result", payload)]
            assert far.last_frame_bytes == sent[0]
            assert reader.reads > 2  # header + body took several reads
            far.send("deliver", {"entries": []})
            assert near.recv() == ("deliver", {"entries": []})
            near.close()
            far.close()

    @pytest.mark.parametrize("sent_bytes", [0, 20])
    def test_closed_peer_is_a_dead_worker(self, sent_bytes):
        frame = io.BytesIO()
        PipeFrameIO(io.BytesIO(), frame).send("epoch", {"target": 5})
        left, right = socket.socketpair()
        with left:
            # The peer dies before its frame starts, or part-way through.
            right.sendall(frame.getvalue()[:sent_bytes])
            right.close()
            near = socket_io(left)
            with pytest.raises(WorkerTransportError):
                near.recv()
            with pytest.raises(WorkerTransportError):
                near.send("epoch", {"target": 5})
            near.close()

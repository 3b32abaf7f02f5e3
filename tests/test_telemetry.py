"""The campaign telemetry pipeline: deterministic time series, the
cycle-budget profiler, the flight recorder, schema versioning and the
renderers (Prometheus textfile / HTML timeline / ANSI dashboard)."""

import json
import os

import pytest

from repro.errors import RecoveryExhausted
from repro.farm import CampaignOptions, CampaignOrchestrator, WorkerSpec
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.targets import get_target
from repro.obs import (
    EVENT_SCHEMA_KEYS,
    EVENT_SCHEMA_MAJOR,
    FlightRecorder,
    Observability,
    RingBufferSink,
    TimeSeriesSampler,
)
from repro.obs.flight import flight_file_name, load_flight
from repro.obs.profile import (
    PROFILE_SCHEMA_MAJOR,
    aggregate_profiles,
    build_profile,
    load_profile,
    profile_table_rows,
    write_profile,
)
from repro.obs.render import render_dashboard, render_html, render_prom
from repro.obs.report import (
    SCHEMA_VERSION,
    SchemaVersionError,
    collect_run_data,
    load_run_data,
    write_run_artifacts,
)
from repro.obs.timeseries import (
    TS_SCHEMA_MAJOR,
    load_timeseries,
    merge_worker_series,
    write_timeseries,
)
from repro.spec.llmgen import generate_validated_specs

from conftest import cached_build

BUDGET = 300_000


def run_telemetry_engine(seed=2, budget=BUDGET, interval=20_000,
                         os_name="pokos", board="qemu-virt",
                         ts_path=None, flight_dir=None, **option_kwargs):
    """One observed engine run with a sampler (and optionally a flight
    recorder) riding along; returns (result, obs, engine)."""
    build = cached_build(os_name, board)
    spec = generate_validated_specs(build)
    obs = Observability(run_id=f"telemetry-{os_name}-seed{seed}")
    obs.attach(RingBufferSink())
    obs.sampler = TimeSeriesSampler(interval, path=ts_path)
    if flight_dir is not None:
        obs.attach_flight(FlightRecorder(str(flight_dir)))
    engine = EofEngine(build, spec,
                       EngineOptions(seed=seed, budget_cycles=budget,
                                     **option_kwargs),
                       obs=obs)
    result = engine.run()
    obs.sampler.close()
    return result, obs, engine


class TestTimeSeriesSampler:
    def test_samples_only_at_epoch_boundaries(self):
        sampler = TimeSeriesSampler(100)
        values = {"edges": 1}
        assert sampler.maybe_sample(99, lambda: values) == 0
        assert sampler.rows == []
        assert sampler.maybe_sample(100, lambda: values) == 1
        assert sampler.rows[0]["epoch"] == 1
        assert sampler.rows[0]["cycles"] == 100
        assert sampler.rows[0]["edges"] == 1

    def test_catch_up_records_one_row_per_crossed_epoch(self):
        sampler = TimeSeriesSampler(100)
        calls = []
        count = sampler.maybe_sample(350, lambda: calls.append(1) or
                                     {"edges": 7})
        assert count == 3
        assert [row["epoch"] for row in sampler.rows] == [1, 2, 3]
        assert [row["cycles"] for row in sampler.rows] == [100, 200, 300]
        # values_fn is invoked once per crossing, not once per epoch.
        assert len(calls) == 1
        assert sampler.next_cycles == 400

    def test_rows_carry_schema_major(self):
        sampler = TimeSeriesSampler(10)
        row = sampler.record(1, 10, {"edges": 0})
        assert row["v"] == TS_SCHEMA_MAJOR

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(0)

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "timeseries.jsonl")
        sampler = TimeSeriesSampler(50, path=path)
        sampler.maybe_sample(125, lambda: {"edges": 3, "programs": 2})
        sampler.close()
        rows = load_timeseries(path)
        assert rows == sampler.rows
        # Canonical separators: no spaces in the serialized lines.
        raw = open(path, encoding="utf-8").read()
        assert ": " not in raw and ", " not in raw

    def test_load_rejects_unknown_major(self, tmp_path):
        path = str(tmp_path / "timeseries.jsonl")
        write_timeseries(path, [{"v": TS_SCHEMA_MAJOR + 1, "epoch": 1,
                                 "cycles": 10}])
        with pytest.raises(ValueError, match="schema major"):
            load_timeseries(path)


class TestMergeWorkerSeries:
    def test_aligns_lanes_and_sums_costs(self):
        w0 = [{"v": 1, "epoch": 1, "cycles": 100, "edges": 5,
               "programs": 2, "crashes": 1},
              {"v": 1, "epoch": 2, "cycles": 200, "edges": 9,
               "programs": 4, "crashes": 1}]
        w1 = [{"v": 1, "epoch": 1, "cycles": 100, "edges": 7,
               "programs": 3, "crashes": 0}]
        merged = merge_worker_series([w0, w1])
        assert [row["epoch"] for row in merged] == [1, 2]
        assert merged[0]["lanes"] == [5, 7]
        assert merged[0]["edges_max"] == 7
        assert merged[0]["programs"] == 5
        # Worker 1 has no epoch-2 row: it holds its last known values.
        assert merged[1]["lanes"] == [9, 7]
        assert merged[1]["programs"] == 4 + 3
        assert merged[1]["crashes"] == 1

    def test_merge_is_deterministic(self):
        series = [[{"v": 1, "epoch": e, "cycles": e * 10, "edges": e}
                   for e in range(1, 4)] for _ in range(3)]
        first = json.dumps(merge_worker_series(series), sort_keys=True)
        second = json.dumps(merge_worker_series(series), sort_keys=True)
        assert first == second


class TestProfileBuilder:
    DATA = {
        "run_id": "r1",
        "phases": {
            "generate": {"count": 10, "cycles": 100, "max_cycles": 20},
            "flash-program": {"count": 10, "cycles": 200,
                              "max_cycles": 30},
            "continue": {"count": 20, "cycles": 600, "max_cycles": 90},
            "restore": {"count": 2, "cycles": 80, "max_cycles": 50},
        },
        "metrics": {"histograms": {
            "restore.latency": {"sum": 60, "count": 2}}},
        "stats": {"start_cycles": 20, "series": [[20, 0], [1020, 42]]},
    }

    def test_phase_tree_and_attribution(self):
        profile = build_profile(self.DATA)
        assert profile["v"] == PROFILE_SCHEMA_MAJOR
        assert profile["total_cycles"] == 1000
        assert profile["attributed_cycles"] == 980
        assert profile["attribution"] == pytest.approx(0.98)
        by_name = {p["name"]: p for p in profile["phases"]}
        assert by_name["exec"]["cycles"] == 600
        assert by_name["inject"]["cycles"] == 200
        assert by_name["unattributed"]["cycles"] == 20
        # Restore splits into reflash vs ladder overhead.
        children = {c["name"]: c for c in by_name["restore"]["children"]}
        assert children["reflash"]["cycles"] == 60
        assert children["ladder-overhead"]["cycles"] == 20

    def test_unknown_span_keeps_its_own_phase(self):
        data = {"phases": {"weird-span": {"count": 1, "cycles": 50,
                                          "max_cycles": 50}},
                "stats": {"start_cycles": 0, "series": [[100, 1]]}}
        profile = build_profile(data)
        names = [p["name"] for p in profile["phases"]]
        assert "weird-span" in names

    def test_no_series_falls_back_to_attributed_total(self):
        data = {"phases": {"generate": {"count": 1, "cycles": 40,
                                        "max_cycles": 40}}}
        profile = build_profile(data)
        assert profile["total_cycles"] == 40
        assert profile["attribution"] == 1.0

    def test_aggregate_recomputes_shares(self):
        one = build_profile(self.DATA)
        total = aggregate_profiles([one, one], run_id="camp")
        assert total["total_cycles"] == 2000
        assert total["attributed_cycles"] == 1960
        assert total["attribution"] == pytest.approx(0.98)
        by_name = {p["name"]: p for p in total["phases"]}
        assert by_name["exec"]["cycles"] == 1200
        assert by_name["exec"]["share"] == pytest.approx(0.6)

    def test_table_rows_indent_children(self):
        rows = profile_table_rows(build_profile(self.DATA))
        names = [row[0] for row in rows]
        assert "restore" in names
        assert "  reflash" in names and "  ladder-overhead" in names

    def test_write_load_round_trip_and_major_gate(self, tmp_path):
        profile = build_profile(self.DATA)
        write_profile(str(tmp_path), profile)
        assert load_profile(str(tmp_path)) == profile
        profile["v"] = PROFILE_SCHEMA_MAJOR + 1
        write_profile(str(tmp_path), profile)
        with pytest.raises(ValueError, match="schema major"):
            load_profile(str(tmp_path))


class TestFlightRecorder:
    def make_obs(self, tmp_path):
        obs = Observability(run_id="flight-test")
        recorder = obs.attach_flight(
            FlightRecorder(str(tmp_path), capacity=4))
        return obs, recorder

    def test_ring_is_bounded(self, tmp_path):
        obs, recorder = self.make_obs(tmp_path)
        for index in range(10):
            obs.emit("run.start", n=index)
        assert len(recorder.events) == 4
        assert recorder.total_events == 10
        assert recorder.events[0].fields["n"] == 6

    def test_dump_writes_ring_and_metric_deltas(self, tmp_path):
        obs, recorder = self.make_obs(tmp_path)
        obs.counter("crash.observed").inc(3)
        obs.emit("crash.report", kind="assert")
        path = recorder.dump("crash", "assert@task", obs=obs)
        payload = load_flight(path)
        assert payload["reason"] == "crash"
        assert payload["signature"] == "assert@task"
        assert payload["counter_deltas"]["crash.observed"] == 3
        assert payload["events"][-1]["name"] == "crash.report"
        # The dump itself is announced on the bus and counted.
        assert payload["events_total"] >= 1
        assert obs.metrics.counters["flight.dumps"].value == 1
        # Second dump of the same signature is a no-op.
        assert recorder.dump("crash", "assert@task", obs=obs) is None
        assert recorder.dumps == 1
        # A later dump reports deltas since the previous one.
        obs.counter("crash.observed").inc(2)
        second = load_flight(recorder.dump("crash", "other", obs=obs))
        assert second["counter_deltas"]["crash.observed"] == 2

    def test_signature_is_filesystem_safe(self):
        name = flight_file_name("hard fault @ 0x0800/..\\evil")
        assert name.startswith("flight_") and name.endswith(".json")
        assert "/" not in name and "\\" not in name and " " not in name

    def test_load_rejects_unknown_major(self, tmp_path):
        path = tmp_path / "flight_x.json"
        path.write_text(json.dumps({"v": 99}))
        with pytest.raises(ValueError, match="schema major"):
            load_flight(str(path))

    def test_quarantine_dumps_flight(self, tmp_path):
        # The test_recovery recipe: destroyed flash + a ladder whose
        # rungs are all forced to fail -> RecoveryExhausted.
        from repro.ddi.session import open_session
        from repro.fuzz.restore import RecoveryLadder, StateRestoration
        from repro.fuzz.stats import FuzzStats
        obs = Observability(run_id="quarantine-test")
        obs.attach_flight(FlightRecorder(str(tmp_path)))
        session = open_session(cached_build("freertos"), obs=obs)
        flash = session.board.flash
        flash.write(flash.base, b"\x00" * 64)
        kernel = next(p for p in session.build.partitions
                      if p.name == "kernel")
        flash.write(flash.base + kernel.offset, b"\x00" * 64)
        session.reboot()
        ladder = RecoveryLadder(session, StateRestoration(session),
                                stats=FuzzStats(), obs=obs)
        ladder.restoration.restore = lambda: False
        session.reattach = lambda: False
        with pytest.raises(RecoveryExhausted):
            ladder.recover(start="retry", reason="dead")
        dumps = [name for name in os.listdir(tmp_path)
                 if name.startswith("flight_")]
        assert len(dumps) == 1
        payload = load_flight(str(tmp_path / dumps[0]))
        assert payload["reason"] == "recovery-exhausted"
        assert payload["signature"].startswith("quarantine-")
        # The ring caught the ladder's escalation events.
        names = {event["name"] for event in payload["events"]}
        assert "recovery.exhausted" in names


class TestEngineTelemetry:
    def test_sampler_rides_the_fuzz_loop(self, tmp_path):
        path = str(tmp_path / "timeseries.jsonl")
        result, obs, _ = run_telemetry_engine(ts_path=path)
        rows = load_timeseries(path)
        assert len(rows) >= 10
        epochs = [row["epoch"] for row in rows]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
        # Monotone counters, and the final row agrees with the result.
        edges = [row["edges"] for row in rows]
        assert edges == sorted(edges)
        assert rows[-1]["edges"] <= result.edges
        assert obs.metrics.counters["ts.samples"].value == len(rows)
        assert rows[0]["phases"]  # per-phase cycle totals ride along

    def test_timeseries_and_profile_are_byte_identical(self, tmp_path):
        paths = [str(tmp_path / f"ts{i}.jsonl") for i in (0, 1)]
        profiles = []
        for path in paths:
            result, obs, _ = run_telemetry_engine(ts_path=path)
            data = collect_run_data(obs, stats=result.stats)
            profiles.append(json.dumps(build_profile(data),
                                       sort_keys=True))
        first = open(paths[0], "rb").read()
        second = open(paths[1], "rb").read()
        assert first == second and first
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize("os_name,board", [
        ("freertos", "stm32f407"), ("rt-thread", "stm32f407"),
        ("zephyr", "stm32f407"), ("nuttx", "stm32f407"),
        ("pokos", "qemu-virt")])
    def test_attribution_at_least_95_percent(self, os_name, board):
        result, obs, _ = run_telemetry_engine(seed=1, budget=200_000,
                                           os_name=os_name, board=board)
        data = collect_run_data(obs, stats=result.stats)
        profile = build_profile(data)
        assert profile["total_cycles"] > 0
        assert profile["attribution"] >= 0.95
        # collect_run_data also stamped the ratio as a gauge.
        assert data["metrics"]["gauges"]["profile.attribution"] >= 0.95

    @pytest.mark.parametrize("os_name,board", [
        ("freertos", "stm32f407"), ("rt-thread", "stm32f407"),
        ("zephyr", "stm32f407"), ("nuttx", "stm32f407"),
        ("pokos", "qemu-virt")])
    def test_attribution_holds_under_snapshot_restores(self, os_name,
                                                       board):
        # Snapshot captures and restores run inside span("restore"),
        # so the >=95% attribution gate must survive the new tier even
        # when periodic restores make it the dominant recovery path.
        result, obs, engine = run_telemetry_engine(
            seed=1, budget=200_000, os_name=os_name, board=board,
            restore_every=2)
        assert engine.stats.snapshot_restores > 0, os_name
        data = collect_run_data(obs, stats=result.stats)
        profile = build_profile(data)
        assert profile["total_cycles"] > 0
        assert profile["attribution"] >= 0.95
        assert data["metrics"]["gauges"]["profile.attribution"] >= 0.95

    def test_profile_breaks_out_the_snapshot_child(self):
        result, obs, engine = run_telemetry_engine(
            seed=1, budget=200_000, restore_every=2)
        assert engine.stats.snapshot_restores > 0
        data = collect_run_data(obs, stats=result.stats)
        profile = build_profile(data)
        by_name = {p["name"]: p for p in profile["phases"]}
        children = {c["name"]: c for c in by_name["restore"]["children"]}
        assert children["snapshot"]["spans"] == \
            engine.stats.snapshot_restores
        assert children["snapshot"]["cycles"] > 0
        # Three restore children now; the table indents each of them.
        assert any(row[0] == "  snapshot"
                   for row in profile_table_rows(profile))

    def test_disabled_obs_never_samples(self):
        build = cached_build("pokos", "qemu-virt")
        spec = generate_validated_specs(build)
        engine = EofEngine(build, spec,
                           EngineOptions(seed=2, budget_cycles=100_000))
        result = engine.run()
        assert engine.obs.sampler is None
        assert engine.obs.flight is None
        assert result.stats.programs_executed > 0


class TestFarmTelemetry:
    def run_campaign(self, trace_dir, seed=7):
        target = get_target("freertos")
        obs = Observability(run_id=f"farm-telemetry-{seed}")
        obs.attach(RingBufferSink())
        obs.sampler = TimeSeriesSampler(
            100_000,
            path=os.path.join(trace_dir, "campaign.jsonl"))
        # Each worker traces itself into worker-<i>/ and closes its own
        # series when it finishes.
        spec = WorkerSpec(target=target.name, trace_dir=trace_dir,
                          sample_interval=20_000)
        orchestrator = CampaignOrchestrator(spec, CampaignOptions(
            campaign_seed=seed, workers=2, sync_interval=100_000,
            total_budget_cycles=600_000, import_min_novelty=1),
            obs=obs)
        epochs = []
        orchestrator.epoch_hook = epochs.append
        result = orchestrator.run()
        obs.sampler.close()
        return result, epochs

    def test_campaign_series_and_worker_merge_deterministic(
            self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for directory in dirs:
            directory.mkdir()
            self.run_campaign(str(directory))
        for name in ("campaign.jsonl", "worker-0/timeseries.jsonl",
                     "worker-1/timeseries.jsonl"):
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second and first, name
        workers = [load_timeseries(
            str(dirs[0] / f"worker-{i}" / "timeseries.jsonl"))
            for i in (0, 1)]
        merged = merge_worker_series(workers)
        assert merged == merge_worker_series(workers)
        assert all(len(row["lanes"]) == 2 for row in merged)

    def test_barrier_rows_and_epoch_hook_agree(self, tmp_path):
        result, epochs = self.run_campaign(str(tmp_path))
        rows = load_timeseries(str(tmp_path / "campaign.jsonl"))
        assert len(rows) == len(epochs) == result.stats.sync_epochs
        for row, summary in zip(rows, epochs):
            assert row["epoch"] == summary["epoch"]
            assert row["edges"] == summary["edges"]
            assert row["lanes"] == summary["lanes"]
        # The merged frontier bounds every lane at every barrier.
        for row in rows:
            assert row["edges"] >= max(row["lanes"])
        # The summary feed carries per-worker detail for the dashboard.
        assert all(len(summary["workers"]) == 2 for summary in epochs)


class TestSchemaVersioning:
    def test_run_data_carries_schema_version(self):
        obs = Observability(run_id="schema-test")
        obs.attach(RingBufferSink())
        data = collect_run_data(obs)
        assert data["schema_version"] == SCHEMA_VERSION

    def test_artifact_round_trip(self, tmp_path):
        result, obs, _ = run_telemetry_engine(budget=100_000)
        data = collect_run_data(obs, stats=result.stats,
                                meta={"target": "pokos"})
        write_run_artifacts(str(tmp_path), data)
        loaded = load_run_data(str(tmp_path))
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["stats"] == json.loads(
            json.dumps(data["stats"]))
        assert load_profile(str(tmp_path))["attribution"] >= 0.95

    def test_unknown_major_is_rejected_loudly(self, tmp_path):
        (tmp_path / "metrics.json").write_text(
            json.dumps({"schema_version": "2.0"}))
        with pytest.raises(SchemaVersionError, match="major 2"):
            load_run_data(str(tmp_path))

    def test_malformed_version_is_rejected(self, tmp_path):
        (tmp_path / "metrics.json").write_text(
            json.dumps({"schema_version": "latest"}))
        with pytest.raises(SchemaVersionError, match="malformed"):
            load_run_data(str(tmp_path))

    def test_events_carry_schema_major(self):
        obs = Observability(run_id="schema-test")
        ring = obs.attach(RingBufferSink())
        obs.emit("run.start")
        record = ring.events[0].to_dict()
        assert tuple(record.keys()) == EVENT_SCHEMA_KEYS
        assert record["v"] == EVENT_SCHEMA_MAJOR


class TestRenderers:
    def artifact_data(self, tmp_path):
        result, obs, _ = run_telemetry_engine(
            budget=150_000, ts_path=str(tmp_path / "timeseries.jsonl"))
        return collect_run_data(obs, stats=result.stats,
                                meta={"target": "pokos"})

    def test_prom_exposition_is_parseable(self, tmp_path):
        data = self.artifact_data(tmp_path)
        text = render_prom({**data, "profile": build_profile(data)})
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a number
            assert name.startswith("eof_")
        assert "eof_stats_programs_executed" in text
        assert "eof_profile_cycles_exec" in text
        assert '_bucket{le="+Inf"}' in text

    def test_html_timeline_is_self_contained(self, tmp_path):
        data = self.artifact_data(tmp_path)
        timeseries = load_timeseries(str(tmp_path / "timeseries.jsonl"))
        html_text = render_html(data, timeseries=timeseries)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text and "<polyline" in html_text
        assert "Cycle-budget profile" in html_text
        assert "stacked phases" in html_text
        assert "<script" not in html_text  # dependency-free, no JS

    def test_html_renders_worker_lanes(self, tmp_path):
        data = self.artifact_data(tmp_path)
        lanes = [[{"v": 1, "epoch": 1, "cycles": 100, "edges": 5}],
                 [{"v": 1, "epoch": 1, "cycles": 100, "edges": 9}]]
        html_text = render_html(data, worker_series=lanes)
        assert "Per-worker coverage lanes" in html_text
        assert "w0" in html_text and "w1" in html_text

    def test_dashboard_frame(self):
        summary = {"epoch": 3, "edges": 42, "shared": 7,
                   "imported": 1, "crashes": 0, "live": 2,
                   "workers_total": 2,
                   "workers": [{"edges": 30, "execs": 10, "crashes": 0,
                                "restores": 1, "status": "live"},
                               {"edges": 40, "execs": 12, "crashes": 0,
                                "restores": 0, "status": "live"}]}
        plain = render_dashboard(summary, ansi=False)
        assert "epoch   3" in plain and "merged_edges=42" in plain
        assert "w0" in plain and "w1" in plain
        assert "\x1b[" not in plain
        assert "\x1b[" in render_dashboard(summary, ansi=True)

    def test_report_cli_formats(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        data = self.artifact_data(tmp_path)
        write_run_artifacts(str(tmp_path), data)
        assert cli_main(["report", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "Cycle budget" in text
        assert cli_main(["report", str(tmp_path),
                         "--format", "html"]) == 0
        assert "<svg" in capsys.readouterr().out
        assert cli_main(["report", str(tmp_path),
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION

"""Tests for repro.obs: span tracing, the metrics registry, and the exporters.

Four layers of coverage:

* metric primitives — counter/gauge/histogram semantics, name validation,
  bucket bookkeeping, the registry's get-or-create and did-you-mean error;
* the tracer — every replayed request gets a complete span (enqueue →
  admit → execute → complete), and tracing is *free of observable effect*:
  the :class:`~repro.serve.server.ServeReport` is byte-identical with the
  tracer on or off, and two traced runs of the same trace produce
  bit-for-bit identical span timelines;
* exporters — JSONL round-trips through ``json.loads``, the Chrome
  ``trace_event`` dump covers every request's full lifecycle, Prometheus
  text exposition renders well-formed ``# HELP``/``# TYPE``/sample lines;
* the wire — a ``STATS`` scrape over loopback TCP returns exactly the
  snapshot the server's registry held at scrape time.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.apps.traffic import bursty_trace, steady_trace
from repro.errors import UnknownMetricError
from repro.net import protocol
from repro.net.client import AsyncNetClient, NetClient
from repro.net.loadgen import replay_trace_async
from repro.net.protocol import MessageType
from repro.net.server import NetServer
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S
from repro.serve.metrics import ServeSnapshot
from repro.serve.server import Server


# -- metric primitives --------------------------------------------------------------


def fed_one_by_one(values) -> Histogram:
    """The reference feed: one ``observe([value])`` call per value."""
    hist = Histogram("one_by_one")
    for value in values:
        hist.observe([value])
    return hist


def spec_observe(values, bounds=DEFAULT_LATENCY_BUCKETS_S) -> tuple[list[int], int, float]:
    """What a histogram holds after ``values``, one value at a time: each in
    bucket ``bisect_left(bounds, value)``, each added to the sum in turn."""
    counts, total = [0] * (len(bounds) + 1), 0.0
    for value in values:
        counts[bisect.bisect_left(bounds, value)] += 1
        total += value
    return counts, len(values), total


#: Values a histogram is fed: exactly on a bound, a hair either side of one, any float.
observed_values = (
    st.sampled_from(DEFAULT_LATENCY_BUCKETS_S)
    | st.sampled_from(DEFAULT_LATENCY_BUCKETS_S).map(lambda bound: math.nextafter(bound, 0.0))
    | st.sampled_from(DEFAULT_LATENCY_BUCKETS_S).map(lambda bound: math.nextafter(bound, 2.0))
    | st.floats(min_value=0.0, max_value=2.0)
    | st.floats()  # NaN lands in bucket 0, as bisect_left puts it
)


#: The instruments every dispatched batch feeds.
SERVE_INSTRUMENTS = (
    "serve_requests_total",
    "serve_batches_total",
    "serve_items_total",
    "serve_pbs_total",
    "serve_latency_seconds",
    "serve_queue_delay_seconds",
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter("requests_total", "Requests")
        counter.inc()
        counter.inc(3.5)
        assert counter.value == 4.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth", "Queue depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.inc(-4.0)
        assert gauge.value == 3.0

    def test_metric_names_are_validated(self):
        with pytest.raises(ValueError, match="name"):
            Counter("bad name", "spaces are not allowed")
        with pytest.raises(ValueError, match="name"):
            Gauge("", "empty")

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("latency", "Latency", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe([value])
        assert hist.count == 5
        assert hist.sum == pytest.approx(5.605)
        cumulative = hist.cumulative_buckets()
        assert [count for _, count in cumulative] == [1, 3, 4, 5]
        assert cumulative[-1][0] == math.inf

    @given(
        st.lists(
            st.sampled_from(DEFAULT_LATENCY_BUCKETS_S)
            | st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        )
    )
    @example([])
    @example(list(DEFAULT_LATENCY_BUCKETS_S))  # exactly on every bound
    @example([1.0, 1.0000000000000002, 7.5, 0.1 + 0.2])  # past the last bound
    def test_histogram_fed_a_batch_equals_fed_one_by_one(self, values):
        batched, single = Histogram("batched"), fed_one_by_one(values)
        batched.observe(values)
        assert batched.cumulative_buckets() == single.cumulative_buckets()
        assert batched.count == single.count == len(values)
        assert batched.sum.hex() == single.sum.hex()  # same additions, same order

    @given(st.lists(st.lists(observed_values, max_size=200), max_size=4))
    @example([[0.1] * 100])  # a pairwise sum rounds this one differently
    @example([list(DEFAULT_LATENCY_BUCKETS_S) * 6])  # a long run exactly on every bound
    @example([[math.nan, 1e-4, math.inf]])
    def test_histogram_observe_equals_a_one_value_at_a_time_loop(self, calls):
        """Sequences short and long, fed in several calls: the buckets, count and
        sum of the spec loop, bit for bit."""
        hist = Histogram("observed")
        for values in calls:
            hist.observe(values)
        counts, count, total = spec_observe([value for values in calls for value in values])
        assert hist._counts == counts
        assert hist.count == count
        assert hist.sum.hex() == total.hex()

    @pytest.mark.parametrize("cost_model", ["analytical", "event"])
    @pytest.mark.parametrize("layout", ["data-parallel", "pipeline", "elastic"])
    def test_serving_histograms_hold_every_outcome(self, layout, cost_model):
        server = Server(devices=3, params="I", layout=layout, cost_model=cost_model)
        report = server.simulate(bursty_trace(1500.0, 0.2, seed=24))
        assert report.outcomes
        for name, samples in (
            ("serve_latency_seconds", [o.latency_s for o in report.outcomes]),
            ("serve_queue_delay_seconds", [o.queue_delay_s for o in report.outcomes]),
        ):
            one_by_one = fed_one_by_one(samples)
            served = server.registry.get(name)
            assert served.count == len(report.outcomes)
            assert served.sum.hex() == one_by_one.sum.hex()
            assert served.cumulative_buckets() == one_by_one.cumulative_buckets()

    @pytest.mark.parametrize(
        "read",
        [
            Server.metrics,  # what the STATS frame serializes
            lambda server: server.registry.collect(),
            lambda server: {
                key: value
                for name in SERVE_INSTRUMENTS
                for key, value in server.registry.get(name).samples().items()
            },
            lambda server: server.registry.render_prometheus(namespace=""),
        ],
        ids=["metrics", "collect", "get", "render_prometheus"],
    )
    def test_every_registry_read_holds_a_streamed_runs_unread_batches(self, read):
        """Read mid-run, before anything reads the run's outcomes, the ``serve_*``
        counters and histograms hold every batch dispatched so far."""
        server = Server(devices=2, params="I")
        run = server.begin_run()
        for request in steady_trace(1500.0, 0.05, seed=5):
            run.offer(request)
        stats = read(server)
        outcomes, _ = run.resolved()
        run.finish()
        assert len({outcome.batch_id for outcome in outcomes}) == 20  # fewer than the run folds at: only the read folds them
        reference = MetricsRegistry()
        for name, value in (
            ("serve_requests_total", len(outcomes)),
            ("serve_batches_total", 20),
            ("serve_items_total", sum(outcome.request.items for outcome in outcomes)),
            ("serve_pbs_total", sum(outcome.request.total_pbs for outcome in outcomes)),
        ):
            reference.counter(name).inc(value)
        for name, samples in (
            ("serve_latency_seconds", [outcome.latency_s for outcome in outcomes]),
            ("serve_queue_delay_seconds", [outcome.queue_delay_s for outcome in outcomes]),
        ):
            histogram = reference.histogram(name)
            for sample in samples:
                histogram.observe([sample])
        if isinstance(stats, str):
            expected = reference.render_prometheus(namespace="").splitlines()
            assert set(expected) <= set(stats.splitlines())
        else:
            expected = reference.collect()
            assert {key: stats[key] for key in expected} == expected

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", "bad bounds", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "Cache hits")
        second = registry.counter("hits", "Cache hits")
        assert first is second

    def test_kind_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Cache hits")
        with pytest.raises(ValueError, match="hits"):
            registry.gauge("hits", "not a counter")

    def test_unknown_metric_suggests_a_name(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests")
        with pytest.raises(UnknownMetricError) as excinfo:
            registry.get("request_total")
        assert "requests_total" in str(excinfo.value)
        assert excinfo.value.kind == "metric"

    def test_views_expand_in_collect(self):
        registry = MetricsRegistry()
        registry.counter("hits", "Cache hits").inc(2)
        registry.register_view("cache", lambda: {"size": 7.0}, "Cache view")
        collected = registry.collect()
        assert collected["hits"] == 2.0
        assert collected["cache_size"] == 7.0
        assert list(collected) == sorted(collected)

    def test_view_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_view("wire", lambda: {"frames": 1.0}, "v1")
        registry.register_view("wire", lambda: {"frames": 9.0}, "v2")
        assert registry.collect()["wire_frames"] == 9.0

    def test_prometheus_exposition_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served").inc(3)
        hist = registry.histogram("latency_seconds", "Latency", buckets=(0.01, 0.1))
        hist.observe([0.05])
        text = registry.render_prometheus(namespace="repro")
        assert "# HELP repro_requests_total Requests served" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert 'repro_latency_seconds_bucket{le="0.01"} 0' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert text.endswith("\n")


# -- the tracer through a replayed trace --------------------------------------------


def _traced_simulation(trace, **server_options):
    server = Server(**server_options)
    tracer = server.enable_tracing()
    report = server.simulate(list(trace), label="traced")
    return server, tracer, report


class TestTracer:
    def test_every_request_gets_a_complete_span(self):
        trace = bursty_trace(1200.0, 0.15, seed=3, tenants=4)
        _, tracer, report = _traced_simulation(trace, devices=3, cost_model="event")
        spans = tracer.spans()
        assert len(spans) == len(trace) == len(report.outcomes)
        for span in spans:
            assert span.admit_s is not None and span.batch_id is not None
            assert span.execute_s is not None and span.complete_s is not None
            assert span.enqueue_s <= span.admit_s <= span.execute_s <= span.complete_s
            assert span.device is not None and span.flush_reason
            assert span.queue_s >= 0.0 and span.service_s > 0.0

    def test_report_is_byte_identical_with_tracing_on_or_off(self):
        trace = steady_trace(rate_rps=900.0, duration_s=0.1, seed=7, tenants=3)
        plain = Server(devices=2).simulate(list(trace), label="traced")
        _, _, traced = _traced_simulation(trace, devices=2)
        assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
        assert traced.outcomes == plain.outcomes

    def test_span_timelines_are_deterministic_across_runs(self):
        trace = bursty_trace(1500.0, 0.12, seed=21, tenants=5)
        _, first, _ = _traced_simulation(trace, devices=4, cost_model="event")
        _, second, _ = _traced_simulation(trace, devices=4, cost_model="event")
        timelines = [[span.to_dict() for span in t.spans()] for t in (first, second)]
        assert timelines[0] == timelines[1]

    def test_external_tracer_can_be_supplied_and_disabled(self):
        trace = steady_trace(rate_rps=400.0, duration_s=0.05, seed=2)
        server = Server(devices=1)
        tracer = Tracer()
        assert server.enable_tracing(tracer) is tracer
        server.simulate(list(trace), label="external")
        assert len(tracer) == len(trace)
        server.disable_tracing()
        assert server.tracer is None
        server.simulate(list(trace), label="untraced")
        assert len(tracer) == len(trace)  # no longer attached: nothing new

    def test_enqueue_is_idempotent_and_clear_resets(self):
        trace = steady_trace(rate_rps=400.0, duration_s=0.05, seed=1)
        _, tracer, _ = _traced_simulation(trace, devices=1)
        assert len(tracer) == len(trace)
        tracer.clear()
        assert len(tracer) == 0 and tracer.spans() == []

    def test_server_registry_counts_the_simulation(self):
        trace = steady_trace(rate_rps=700.0, duration_s=0.08, seed=4, tenants=2)
        server, _, report = _traced_simulation(trace, devices=2)
        collected = server.metrics()
        assert collected["serve_requests_total"] == float(len(report.outcomes))
        assert collected["serve_latency_seconds_count"] == float(len(report.outcomes))
        assert collected["serve_queue_total_enqueued"] >= float(len(trace))
        assert "serve_key_cache_hits" in collected


# -- exporters ----------------------------------------------------------------------


class TestExporters:
    def _spans(self):
        trace = bursty_trace(1000.0, 0.1, seed=9, tenants=3)
        _, tracer, _ = _traced_simulation(trace, devices=2, cost_model="event")
        return tracer.spans()

    def test_jsonl_round_trips(self, tmp_path):
        spans = self._spans()
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        for line, span in zip(lines, spans):
            record = json.loads(line)
            assert record["request_id"] == span.request_id
            assert record["tenant"] == span.tenant
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(spans, path) == len(spans)
        assert path.read_text().splitlines() == lines

    def test_chrome_trace_covers_every_lifecycle(self, tmp_path):
        spans = self._spans()
        document = chrome_trace(spans)
        events = document["traceEvents"]
        slices = [e for e in events if e.get("ph") == "X"]
        for span in spans:
            named = [
                e["name"]
                for e in slices
                if e["pid"] == 0 and e["tid"] == span.request_id
            ]
            assert {"queue", "wait", "execute"} <= set(named)
        device_lanes = {e["tid"] for e in slices if e["pid"] == 1}
        assert device_lanes  # at least one device lane materialized
        for event in slices:
            assert event["dur"] >= 0 and event["ts"] >= 0
        path = tmp_path / "trace.json"
        assert write_chrome_trace(spans, path) == len(events)
        assert json.loads(path.read_text())["traceEvents"] == events


# -- live snapshots -----------------------------------------------------------------


class TestSnapshots:
    def test_replay_snapshot_reports_progress(self):
        trace = sorted(
            steady_trace(rate_rps=800.0, duration_s=0.1, seed=6, tenants=3),
            key=lambda r: r.arrival_s,
        )
        server = Server(devices=2)
        run = server.begin_run(label="snap")
        resolved = 0
        for request in trace[: len(trace) // 2]:
            run.offer(request)
            resolved += len(run.resolved()[0])
        snapshot = server.snapshot()
        assert isinstance(snapshot, ServeSnapshot)
        assert snapshot.requests_done == resolved
        assert snapshot.queue_depth == len(trace) // 2 - resolved
        assert set(snapshot.tenant_p99_s) <= {r.tenant for r in trace}
        as_dict = dataclasses.asdict(snapshot)
        assert as_dict["requests_done"] == resolved
        assert isinstance(as_dict["device_utilization"], dict)
        report = run.finish()
        final = server.snapshot()  # run closed: the collector is gone
        assert report.metrics.requests == len(trace) // 2
        assert resolved + len(report.outcomes) == len(trace) // 2  # each outcome left once
        assert final.requests_done == 0 and final.queue_depth == 0

    def test_watch_requires_async_serving(self):
        server = Server(devices=1)

        async def scenario():
            stream = server.watch(interval_s=0.01)
            with pytest.raises(RuntimeError, match="async"):
                await stream.__anext__()

        asyncio.run(scenario())

    def test_watch_yields_snapshots_while_serving(self):
        async def scenario():
            seen = []
            async with Server(devices=2) as server:

                async def observe():
                    async for snapshot in server.watch(interval_s=0.005):
                        seen.append(snapshot)
                        if len(seen) >= 2:
                            break

                watcher = asyncio.get_running_loop().create_task(observe())
                jobs = [server.submit_async("t0", "gate", 4) for _ in range(6)]
                await asyncio.gather(*jobs)
                await watcher
            return seen

        snapshots = asyncio.run(scenario())
        assert len(snapshots) >= 2
        assert all(isinstance(s, ServeSnapshot) for s in snapshots)
        assert snapshots[-1].t_s >= snapshots[0].t_s


# -- the wire -----------------------------------------------------------------------


class TestStatsFrame:
    def test_stats_payload_round_trips_canonically(self):
        snapshot = {"serve_requests_total": 3.0, "wire_frames_sent": 12.0}
        payload = protocol.encode_stats(snapshot)
        assert payload == protocol.encode_stats(dict(reversed(snapshot.items())))
        assert protocol.decode_stats(payload) == snapshot
        with pytest.raises(ValueError):
            protocol.decode_stats(b"not json")
        with pytest.raises(ValueError):
            protocol.decode_stats(b"[1, 2]")

    def test_stats_message_types_are_registered(self):
        assert MessageType.STATS == 10 and MessageType.STATS_REPLY == 11

    def test_scrape_matches_registry_exactly_over_loopback(self):
        trace = steady_trace(rate_rps=600.0, duration_s=0.1, seed=11, tenants=2)

        async def scenario():
            server = Server(devices=2, cost_model="event")
            net = NetServer(server, mode="replay")
            await net.start()
            host, port = net.address
            async with await AsyncNetClient.connect(host, port) as client:
                futures = [
                    client.submit_nowait(request)
                    for request in sorted(trace, key=lambda r: r.arrival_s)
                ]
                await client.drain()
                outcomes = await asyncio.gather(*futures)
                scraped = await client.stats()
            await net.aclose()
            return scraped, net.last_stats, len(outcomes)

        scraped, at_scrape_time, done = asyncio.run(scenario())
        assert scraped == at_scrape_time
        assert scraped["serve_requests_total"] == float(done) == float(len(trace))
        assert scraped["wire_frames_received"] == float(len(trace) + 3)
        assert any(key.startswith("serve_key_cache_") for key in scraped)

    def test_replayed_wire_spans_close_at_completion_time(self):
        trace = steady_trace(rate_rps=500.0, duration_s=0.08, seed=13, tenants=2)

        async def scenario():
            server = Server(devices=2)
            tracer = server.enable_tracing()
            await replay_trace_async(trace, server=server)
            return tracer.spans()

        spans = asyncio.run(scenario())
        assert len(spans) == len(trace)
        for span in spans:
            assert span.reply_s == span.complete_s  # simulated clock, not wall

    def test_blocking_client_scrapes_stats(self, threaded_net_server):
        with threaded_net_server(mode="live", devices=1, params="I") as served:
            host, port = served.address
            with NetClient(host, port) as client:
                client.submit("tenant0", "gate", 2)
                stats = client.stats()
        assert stats["serve_requests_total"] == 1.0
        assert stats["wire_connections"] == 1.0

"""Tests of the overload-protection loop (:mod:`repro.flow`): admission
policies and their registry, bounded queues, deadline propagation, the
determinism of shedding, composition with fault schedules, and the wire
leg — credit windows, BUSY replies and per-request timeouts.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.traffic import steady_trace
from repro.errors import UnknownAdmissionPolicyError
from repro.faults import FaultSchedule
from repro.flow import (
    AdmissionLimits,
    TenantQuotaPolicy,
    DeadlineExceededError,
    FlowController,
    QueueOverflowError,
    RequestRejectedError,
    RequestTimeoutError,
    ServerBusyError,
    get_admission_policy,
    list_admission_policies,
)
from repro.net import AsyncNetClient, NetClient, NetError, NetServer, protocol
from repro.net.loadgen import closed_loop_async
from repro.serve import Request, RequestQueue, Server
from repro.serve.request import RequestKind

SATURATING = dict(rate_rps=20000.0, duration_s=0.05, seed=11, tenants=4)
KIND_MIX = {RequestKind.BOOTSTRAP: 1.0}


def make_request(request_id: int, tenant: str = "t0", arrival_s: float = 0.0,
                 deadline_s: float | None = None) -> Request:
    return Request.make(request_id, tenant, "bootstrap", items=1,
                        arrival_s=arrival_s, deadline_s=deadline_s)


def overloaded_server(admission: str, **overrides) -> Server:
    options = dict(
        devices=1,
        admission=admission,
        queue_capacity=8,
        tenant_capacity=4,
        seed=0,
    )
    options.update(overrides)
    return Server(**options)


# -- registry -----------------------------------------------------------------------


class TestAdmissionRegistry:
    def test_lists_known_policies(self):
        assert list_admission_policies() == [
            "reject-newest", "shed-oldest", "tenant-quota",
        ]

    def test_did_you_mean(self):
        with pytest.raises(UnknownAdmissionPolicyError, match="shed-oldest"):
            get_admission_policy("shed-odlest")
        with pytest.raises(ValueError, match="admission polic"):
            get_admission_policy("nope")

    def test_limits_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            AdmissionLimits(queue_capacity=0)

    def test_flow_imports_first(self):
        # repro.flow and repro.serve import each other; a fresh process
        # must be able to start from either side of the cycle.
        import subprocess
        import sys

        for first in ("repro.flow", "repro.serve", "repro.net"):
            command = (
                f"import {first}; from repro.flow import QueueOverflowError; "
                "from repro.serve import Server"
            )
            subprocess.run([sys.executable, "-c", command], check=True)


# -- policies against a real queue --------------------------------------------------


class TestAdmissionDecisions:
    def controller(self, policy: str, **kw) -> FlowController:
        kw.setdefault("queue_capacity", 2)
        return FlowController(policy=policy, **kw)

    def test_reject_newest_rejects_at_capacity(self):
        queue, flow = RequestQueue(), self.controller("reject-newest")
        for rid in (1, 2):
            admitted, victims, _ = flow.try_admit(queue, make_request(rid))
            assert admitted and not victims
            queue.push(make_request(rid))
        admitted, victims, reason = flow.try_admit(queue, make_request(3))
        assert not admitted and not victims and "at capacity" in reason

    def test_shed_oldest_evicts_the_head(self):
        queue, flow = RequestQueue(), self.controller("shed-oldest")
        queue.push(make_request(1, arrival_s=0.0))
        queue.push(make_request(2, arrival_s=1.0))
        admitted, victims, _ = flow.try_admit(queue, make_request(3, arrival_s=2.0))
        assert admitted
        assert [victim.request_id for victim in victims] == [1]
        assert queue.depth == 1  # the victim is already popped

    def test_tenant_capacity_is_per_tenant(self):
        queue = RequestQueue()
        flow = FlowController(
            policy="reject-newest", queue_capacity=10, tenant_capacity=1
        )
        queue.push(make_request(1, tenant="a"))
        flow.try_admit(queue, make_request(1, tenant="a"))
        admitted, _, reason = flow.try_admit(queue, make_request(2, tenant="a"))
        assert not admitted and "tenant" in reason
        admitted, _, _ = flow.try_admit(queue, make_request(3, tenant="b"))
        assert admitted

    def test_tenant_quota_favours_heavier_weights(self):
        queue = RequestQueue()
        policy = TenantQuotaPolicy(weights={"a": 3.0, "b": 1.0})
        flow = FlowController(policy=policy, queue_capacity=4)
        queue.push(make_request(1, tenant="a"))
        queue.push(make_request(2, tenant="b"))
        # Shares over capacity 4: 'a' gets 3 slots, 'b' gets 1 — already full.
        admitted, _, reason = flow.try_admit(queue, make_request(3, tenant="b"))
        assert not admitted and "quota" in reason
        admitted, _, _ = flow.try_admit(queue, make_request(4, tenant="a"))
        assert admitted

    def test_retry_after_grows_with_depth(self):
        queue, flow = RequestQueue(), self.controller("reject-newest")
        empty = flow.retry_after_s(queue, 2e-3)
        queue.push(make_request(1))
        queue.push(make_request(2))
        assert flow.retry_after_s(queue, 2e-3) > empty > 0.0


# -- bounded queue (satellite 1) ----------------------------------------------------


class TestBoundedQueue:
    def test_overflow_is_loud_and_typed(self):
        queue = RequestQueue(capacity=2)
        queue.push(make_request(1))
        queue.push(make_request(2))
        with pytest.raises(QueueOverflowError, match="admission"):
            queue.push(make_request(3))
        assert queue.depth == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RequestQueue(capacity=0)

    def test_server_bounds_queue_only_without_admission(self):
        bounded = Server(devices=1, queue_capacity=1)
        assert bounded.queue.capacity == 1
        governed = overloaded_server("reject-newest")
        assert governed.queue.capacity is None  # the policy is the bound

    def test_sync_staging_is_not_bounded_by_capacity(self):
        # capacity bounds the *runtime* queue depth; sync submit() only
        # stages a trace, so a long trace whose instantaneous depth never
        # exceeds the bound must simulate cleanly.
        server = Server(devices=1, queue_capacity=2)
        for index in range(8):
            server.submit("t0", "bootstrap", at=index * 0.1)
        report = server.simulate(label="staged")
        assert report.metrics.requests == 8

    def test_runtime_overflow_is_still_loud(self):
        server = Server(
            devices=1, queue_capacity=2, batch_capacity=64, max_batch_delay_s=1.0
        )
        trace = [make_request(rid, arrival_s=0.0) for rid in (1, 2, 3)]
        with pytest.raises(QueueOverflowError, match="admission"):
            server.simulate(trace, label="burst")


# -- deadlines ----------------------------------------------------------------------


class TestDeadlines:
    def test_expired_is_strict(self):
        request = make_request(1, deadline_s=1.0)
        assert not request.expired(1.0) and request.expired(1.0 + 1e-9)
        assert not make_request(2).expired(1e9)

    def test_simulate_expires_overdue_work(self):
        server = Server(devices=1, admission="reject-newest", queue_capacity=64)
        trace = [
            make_request(1, arrival_s=0.0, deadline_s=1e-9),
            make_request(2, arrival_s=0.0),
        ]
        report = server.simulate(trace, label="deadline")
        overload = report.metrics.overload
        assert overload["expired"] == 1 and report.metrics.requests == 1

    def test_relative_deadline_resolves_against_arrival(self):
        server = Server(devices=1)
        server.submit("t0", "bootstrap", deadline_s=0.5)
        request = server.queue.pop()
        assert request.deadline_s == pytest.approx(request.arrival_s + 0.5)


# -- determinism (satellite 4) ------------------------------------------------------


class TestShedDeterminism:
    @pytest.mark.parametrize("policy", ["reject-newest", "shed-oldest", "tenant-quota"])
    def test_bit_for_bit_shed_decisions(self, policy):
        trace = steady_trace(**SATURATING, kind_mix=KIND_MIX)
        first = overloaded_server(policy).simulate(trace, label="overload")
        second = overloaded_server(policy).simulate(trace, label="overload")
        assert first.to_dict() == second.to_dict()
        overload = first.metrics.overload
        assert overload["rejected"] + overload["shed"] > 0

    @pytest.mark.parametrize("policy", ["reject-newest", "shed-oldest", "tenant-quota"])
    def test_conservation_under_overload(self, policy):
        trace = steady_trace(**SATURATING, kind_mix=KIND_MIX)
        report = overloaded_server(policy).simulate(trace, label="overload")
        overload = report.metrics.overload
        accounted = (
            report.metrics.requests
            + overload["rejected"] + overload["shed"] + overload["expired"]
        )
        assert accounted == len(trace)
        # Every admitted request either completed, was shed or expired.
        assert report.metrics.requests == (
            overload["admitted"] - overload["shed"] - overload["expired"]
        )

    def test_unsaturated_run_is_byte_identical(self):
        trace = steady_trace(rate_rps=500.0, duration_s=0.05, seed=3)
        plain = Server(devices=2, seed=0).simulate(trace, label="steady")
        governed = Server(
            devices=2, seed=0, admission="reject-newest", queue_capacity=1_000_000
        ).simulate(trace, label="steady")
        governed_dict = governed.to_dict()
        overload = governed_dict.pop("overload")
        # Nothing was dropped, so only the admitted ledger distinguishes them.
        assert overload["rejected"] == overload["shed"] == overload["expired"] == 0
        assert overload["admitted"] == len(trace)
        assert governed_dict == plain.to_dict()

    def test_overload_composes_with_fault_schedules(self):
        trace = steady_trace(**SATURATING, kind_mix=KIND_MIX)
        schedule = FaultSchedule.of(FaultSchedule.death(device=0, at_s=0.04))

        def run():
            server = overloaded_server(
                "reject-newest", devices=2, faults=schedule, on_death="drop"
            )
            return server.simulate(trace, label="overload-faults")

        first, second = run(), run()
        assert first.to_dict() == second.to_dict()
        overload = first.metrics.overload
        lost = first.metrics.availability["requests_lost"]
        assert lost > 0
        assert (
            first.metrics.requests
            + overload["rejected"] + overload["shed"] + overload["expired"] + lost
            == len(trace)
        )


# -- async path (satellite 3) -------------------------------------------------------


class TestAsyncTypedDrops:
    def test_rejected_submission_raises_not_hangs(self):
        async def scenario():
            async with Server(
                devices=1,
                admission="reject-newest",
                queue_capacity=1,
                batch_capacity=64,
                max_batch_delay_s=0.2,
            ) as server:
                first = asyncio.ensure_future(server.submit_async("t0", "bootstrap"))
                await asyncio.sleep(0.02)  # let it reach the queue
                with pytest.raises(RequestRejectedError) as excinfo:
                    await server.submit_async("t0", "bootstrap")
                assert excinfo.value.retry_after_s > 0.0
                await first
            report = server.last_async_report
            assert report.metrics.overload["rejected"] == 1

        asyncio.run(scenario())

    def test_expired_submission_raises_deadline_error(self):
        async def scenario():
            async with Server(
                devices=1, admission="reject-newest", queue_capacity=64,
                batch_capacity=64, max_batch_delay_s=0.05,
            ) as server:
                with pytest.raises(DeadlineExceededError):
                    await server.submit_async("t0", "bootstrap", deadline_s=1e-6)

        asyncio.run(scenario())


# -- the wire leg -------------------------------------------------------------------


class TestWirePayloads:
    def test_busy_roundtrip(self):
        busy = protocol.decode_busy(protocol.encode_busy(7, 0.25, "shed"))
        assert busy == protocol.BusyReply(7, 0.25, "shed")
        with pytest.raises(ValueError, match="negative"):
            protocol.encode_busy(1, -0.5, "no")
        with pytest.raises(ValueError, match="truncated"):
            protocol.decode_busy(b"\x00" * 4)

    def test_welcome_credit_window_bounds(self):
        with pytest.raises(ValueError):
            protocol.encode_welcome(1, credit_window=0)
        with pytest.raises(ValueError):
            protocol.encode_welcome(1, credit_window=1 << 16)


class TestNetOverload:
    @pytest.mark.parametrize("death", [False, True], ids=["ok", "death"])
    @pytest.mark.parametrize("deadline", [False, True], ids=["nodl", "dl"])
    @pytest.mark.parametrize("qos", ["fifo", "fair"])
    @pytest.mark.parametrize(
        "admission",
        ["reject-newest", "shed-oldest", "tenant-quota"],
        ids=["reject", "shed", "quota"],
    )
    def test_replay_overload_matches_in_process(
        self, serve_three_ways, admission, qos, deadline, death
    ):
        trace = steady_trace(**SATURATING, kind_mix=KIND_MIX)
        # One device, unless one is to die: then two, round-robin, so the
        # queue-bound trickle of small batches reaches both devices and the
        # death can catch one mid-batch.
        cluster = dict(devices=2, policy="round-robin") if death else dict(devices=1)
        local, wire = serve_three_ways(
            trace, deadline, death,
            **cluster, qos=qos, admission=admission,
            queue_capacity=8, tenant_capacity=4, seed=0,
        )
        # The wire run additionally counts the BUSY frames it sent; the
        # serving-side numbers are otherwise bit-for-bit the in-process run.
        overload = wire.metrics.overload
        refused = overload["rejected"] + overload["shed"]
        assert refused > 0 and overload["busy_replies"] == refused
        assert wire.wire["busy_sent"] == refused
        # One typed answer per request that did not complete, never a hang.
        assert wire.wire["client_dropped"] == len(trace) - local.metrics.requests

    def test_live_credit_window_is_advertised_and_replenished(self):
        async def scenario():
            async with NetServer(
                mode="live", devices=1, credit_window=2, max_batch_delay_s=0.005
            ) as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                try:
                    assert client.credit_window == 2
                    outcomes = await asyncio.gather(
                        *(client.submit("t0", "bootstrap") for _ in range(6))
                    )
                    assert len(outcomes) == 6
                    assert client.credit_stalls >= 1  # 6 submits through a window of 2
                finally:
                    await client.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("mode", ["live", "replay"])
    def test_window_exhaustion_earns_busy(self, mode):
        async def scenario():
            async with NetServer(
                mode=mode, devices=1, credit_window=1,
                batch_capacity=64, max_batch_delay_s=0.2,
            ) as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                try:
                    # Bypass the client's own credit gate to provoke the
                    # server-side window check.
                    first = client.submit_nowait(make_request(1, arrival_s=0.0))
                    second = client.submit_nowait(make_request(2, arrival_s=0.0))
                    with pytest.raises(ServerBusyError) as excinfo:
                        await second
                    assert excinfo.value.retry_after_s > 0.0
                    assert client.busy_replies == 1
                    await client.drain()  # replay flushes nothing on its own
                    await first
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_per_request_timeout_raises(self):
        async def scenario():
            async with NetServer(
                mode="live", devices=1, batch_capacity=64, max_batch_delay_s=1.0
            ) as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                try:
                    with pytest.raises(RequestTimeoutError):
                        await client.submit("t0", "bootstrap", timeout_s=0.05)
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_timed_out_submit_holds_its_credit_until_the_late_reply(self):
        async def scenario():
            async with NetServer(
                mode="live", devices=1, credit_window=1,
                batch_capacity=64, max_batch_delay_s=0.3,
            ) as net:
                host, port = net.address
                client = await AsyncNetClient.connect(host, port)
                try:
                    with pytest.raises(RequestTimeoutError):
                        await client.submit("t0", "bootstrap", timeout_s=0.01)
                    # The server still counts the request in flight, so
                    # the abandoned submit keeps its credit ...
                    assert client._inflight == 1
                    for _ in range(250):
                        if client._inflight == 0:
                            break
                        await asyncio.sleep(0.02)
                    # ... until the late RESULT releases it — windows in
                    # sync again, and no RTT sample for abandoned work.
                    assert client._inflight == 0
                    assert client.rtts_s == []
                    assert client.server_credits == 1
                    outcome = await client.submit("t0", "bootstrap", timeout_s=5.0)
                    assert outcome.completed_s >= 0.0
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_replay_drops_route_to_the_submitting_connection(self):
        # A shed victim may have been submitted by a *different*
        # connection than the offer that triggered the shed; its BUSY
        # must reach the submitter or that client hangs forever.
        async def scenario():
            async with NetServer(
                mode="replay", devices=1, admission="shed-oldest",
                queue_capacity=1, seed=0,
            ) as net:
                host, port = net.address
                first_conn = await AsyncNetClient.connect(host, port)
                second_conn = await AsyncNetClient.connect(host, port)
                try:
                    victim = first_conn.submit_nowait(make_request(1, arrival_s=0.0))
                    await asyncio.sleep(0.05)  # let the server ingest it first
                    survivor = second_conn.submit_nowait(
                        make_request(2, arrival_s=1e-4)
                    )
                    with pytest.raises(ServerBusyError):
                        await asyncio.wait_for(victim, timeout=2.0)
                    await second_conn.drain()
                    outcome = await asyncio.wait_for(survivor, timeout=2.0)
                    assert outcome.request.request_id == 2
                finally:
                    await first_conn.close()
                    await second_conn.close()

        asyncio.run(scenario())

    def test_closed_loop_counts_overload(self):
        trace = steady_trace(rate_rps=300.0, duration_s=0.05, seed=5)
        report = asyncio.run(
            closed_loop_async(
                trace,
                connections=2,
                devices=1,
                credit_window=4,
                timeout_s=5.0,
                max_batch_delay_s=0.002,
            )
        )
        assert report.metrics.requests + report.wire.get(
            "client_abandoned", 0
        ) == len(trace)

    def test_sync_client_sees_busy_and_welcome(self, threaded_net_server):
        # NetClient is blocking, so drive the server in a thread-backed loop.
        options = dict(mode="live", devices=1, credit_window=3, max_batch_delay_s=0.005)
        with threaded_net_server(**options) as served:
            with NetClient(*served.address) as client:
                assert client.credit_window == 3
                outcome = client.submit("t0", "bootstrap", timeout_s=5.0)
                assert outcome.completed_s >= 0.0

    def test_sync_timeout_does_not_desynchronize_the_stream(self, threaded_net_server):
        options = dict(mode="live", devices=1, batch_capacity=64, max_batch_delay_s=0.15)
        with threaded_net_server(**options) as served:
            with NetClient(*served.address) as client:
                with pytest.raises(RequestTimeoutError):
                    client.submit("t0", "bootstrap", timeout_s=0.01)
                # The second submit skips request 1's late RESULT and
                # returns its own, not the stale frame.
                outcome = client.submit("t0", "bootstrap", timeout_s=5.0)
                assert outcome.request.request_id == 2
                assert len(client.rtts_s) == 1  # the stale reply was eaten: no sample


# -- deadline errors over the wire --------------------------------------------------


def test_live_deadline_exceeded_is_a_typed_error():
    async def scenario():
        async with NetServer(
            mode="live", devices=1, admission="reject-newest", queue_capacity=64,
            batch_capacity=64, max_batch_delay_s=0.05,
        ) as net:
            host, port = net.address
            client = await AsyncNetClient.connect(host, port)
            try:
                with pytest.raises(NetError, match="DEADLINE_EXCEEDED"):
                    await client.submit("t0", "bootstrap", deadline_s=1e-6)
            finally:
                await client.close()

    asyncio.run(scenario())

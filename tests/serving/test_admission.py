"""The load-aware admission gate: decisions, deferral, backpressure."""

import pytest

from repro.experiments import ExperimentConfig, build_stack
from repro.serving import AdmissionConfig, AdmissionGate
from repro.telemetry import TelemetryConfig

FAST = ExperimentConfig(scale=0.05, seed=1, quantum=1.2e-3)
ENTRIES = [("alexnet", 4)]


def _gated(config=None, estimator=None, telemetry=None, recovery=None,
           entries=ENTRIES):
    stack = build_stack(
        entries,
        scheduler="fair",
        config=FAST,
        telemetry=telemetry,
        recovery=recovery,
    )
    gate = AdmissionGate(config, estimator=estimator).attach(stack.server)
    return stack, gate


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_active=0)
        with pytest.raises(ValueError):
            AdmissionConfig(headroom=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(headroom=1.5)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_pending_per_tenant=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(degrade_batch_floor=0)
        with pytest.raises(ValueError):
            AdmissionConfig(retry_after=0.0)


class TestAttachment:
    def test_attach_twice_raises(self):
        stack, gate = _gated()
        with pytest.raises(RuntimeError, match="already attached"):
            gate.attach(stack.server)

    def test_attach_wires_the_capacity_seam(self):
        stack, gate = _gated()
        assert stack.server.admission is gate
        assert gate.sim is stack.sim


class TestDecisions:
    def test_admit_below_headroom(self):
        stack, gate = _gated(AdmissionConfig(max_active=8))
        job = stack.server.make_job("c0", "alexnet", 4)
        decision = gate.submit(job, tenant="t0")
        assert decision.action == "admit"
        assert decision.reason == "headroom-ok"
        assert decision.job is job
        assert decision.done is not None
        stack.sim.run()
        assert gate.admitted == 1
        assert stack.server.active_jobs == 0

    def test_defer_at_ceiling_then_dispatch(self):
        stack, gate = _gated(AdmissionConfig(max_active=1, headroom=1.0))
        first = gate.submit(stack.server.make_job("c0", "alexnet", 4))
        second = gate.submit(stack.server.make_job("c1", "alexnet", 4))
        assert first.action == "admit"
        assert second.action == "defer"
        assert second.reason == "overloaded"
        assert gate.pending_depth == 1
        finished = []
        for label, decision in (("first", first), ("second", second)):
            def watch(label, done):
                yield done
                finished.append(label)
            stack.sim.process(watch(label, decision.done))
        stack.sim.run()
        assert finished == ["first", "second"]
        assert gate.dispatched == 1
        assert gate.pending_depth == 0

    def test_priority_orders_the_pending_queue(self):
        stack, gate = _gated(AdmissionConfig(max_active=1, headroom=1.0))
        blocker = gate.submit(stack.server.make_job("c0", "alexnet", 4))
        assert blocker.action == "admit"
        order = []
        for client, priority in (("lo", 0), ("hi", 5), ("mid", 2)):
            job = stack.server.make_job(client, "alexnet", 4,
                                        priority=priority)
            decision = gate.submit(job, tenant=client)
            assert decision.action == "defer"

            def watch(name, done):
                yield done
                order.append(name)
            stack.sim.process(watch(client, decision.done))
        stack.sim.run()
        assert order == ["hi", "mid", "lo"]

    def test_reject_when_defer_disabled(self):
        stack, gate = _gated(
            AdmissionConfig(max_active=1, headroom=1.0, defer=False,
                            retry_after=0.07)
        )
        gate.submit(stack.server.make_job("c0", "alexnet", 4))
        decision = gate.submit(stack.server.make_job("c1", "alexnet", 4))
        assert decision.action == "reject"
        assert decision.reason == "overloaded"
        assert decision.retry_after == 0.07
        assert decision.job is None and decision.done is None
        stack.sim.run()

    def test_queue_full_and_tenant_limit_rejects(self):
        stack, gate = _gated(
            AdmissionConfig(
                max_active=1, headroom=1.0,
                max_pending_total=2, max_pending_per_tenant=1,
            )
        )
        gate.submit(stack.server.make_job("c0", "alexnet", 4))
        assert gate.submit(
            stack.server.make_job("a1", "alexnet", 4), tenant="a"
        ).action == "defer"
        tenant_hit = gate.submit(
            stack.server.make_job("a2", "alexnet", 4), tenant="a"
        )
        assert tenant_hit.action == "reject"
        assert tenant_hit.reason == "tenant-limit"
        assert gate.submit(
            stack.server.make_job("b1", "alexnet", 4), tenant="b"
        ).action == "defer"
        full = gate.submit(
            stack.server.make_job("c1", "alexnet", 4), tenant="c"
        )
        assert full.action == "reject"
        assert full.reason == "queue-full"
        stack.sim.run()
        assert gate.pending_depth == 0

    def test_degrade_halves_the_batch_in_the_soft_band(self):
        # Batch 2 is in the entry set so the scheduler has a profile
        # for the reduced batch.
        stack, gate = _gated(
            AdmissionConfig(max_active=2, headroom=0.5,
                            degrade_batch_floor=1),
            entries=[("alexnet", 4), ("alexnet", 2)],
        )
        first = gate.submit(stack.server.make_job("c0", "alexnet", 4))
        assert first.action == "admit"
        # active=1 >= 0.5 * 2: soft band.
        soft = gate.submit(stack.server.make_job("c1", "alexnet", 4))
        assert soft.action == "degrade"
        assert soft.reason == "soft-band"
        assert soft.job.batch_size == 2
        assert soft.job.job_id.endswith("~d")
        stack.sim.run()
        assert gate.degraded == 1

    def test_soft_band_admits_when_degrade_disabled(self):
        stack, gate = _gated(AdmissionConfig(max_active=2, headroom=0.5))
        gate.submit(stack.server.make_job("c0", "alexnet", 4))
        soft = gate.submit(stack.server.make_job("c1", "alexnet", 4))
        assert soft.action == "admit"
        assert soft.reason == "soft-band"
        stack.sim.run()

    def test_slo_hopeless_rejection(self):
        class Pessimist:
            def estimate_for(self, front, model, batch):
                return 10.0

        stack, gate = _gated(estimator=Pessimist())
        decision = gate.submit(
            stack.server.make_job("c0", "alexnet", 4), slo=0.5
        )
        assert decision.action == "reject"
        assert decision.reason == "slo-hopeless"
        # Without an SLO the estimator is not consulted.
        assert gate.submit(
            stack.server.make_job("c1", "alexnet", 4)
        ).action == "admit"
        stack.sim.run()


class _FakeBreaker:
    """Duck-typed breaker: blocks until ``until``, then admits."""

    def __init__(self, sim, until):
        self.sim = sim
        self.until = until

    def would_admit(self, now):
        return now >= self.until

    def retry_after(self, now):
        return max(0.0, self.until - now)


class _FakeRecovery:
    config = None

    def __init__(self, breakers):
        self.breakers = breakers

    def supervise(self, server, job):
        # Pass-through: exercise the gate's breaker seam without the
        # full recovery machinery.
        server.recovery = None
        try:
            return server.submit(job)
        finally:
            server.recovery = self


class TestBreakerBackpressure:
    def test_open_breaker_rejects_up_front(self):
        stack, gate = _gated()
        breaker = _FakeBreaker(stack.sim, until=0.05)
        stack.server.recovery = _FakeRecovery(
            {stack.server.model_names[0]: breaker}
        )
        decision = gate.submit(stack.server.make_job("c0", "alexnet", 4))
        assert decision.action == "reject"
        assert decision.reason == "breaker-open"
        assert decision.retry_after == pytest.approx(0.05)

    def test_parked_jobs_wait_out_the_cooldown(self):
        # Fill the ceiling, park a job, then open the breaker: the pump
        # must schedule a timed retry and dispatch once the cooldown
        # lapses rather than stranding the entry.
        stack, gate = _gated(AdmissionConfig(max_active=1, headroom=1.0))
        model = stack.server.model_names[0]
        first = gate.submit(stack.server.make_job("c0", "alexnet", 4))
        parked = gate.submit(stack.server.make_job("c1", "alexnet", 4))
        assert parked.action == "defer"
        stack.server.recovery = _FakeRecovery(
            {model: _FakeBreaker(stack.sim, until=0.2)}
        )
        done = []

        def watch(decision):
            yield decision.done
            done.append(stack.sim.now)

        stack.sim.process(watch(parked))
        stack.sim.run()
        assert done and done[0] >= 0.2
        assert gate.dispatched == 1
        assert gate.pending_depth == 0
        stack.sim.run()


class TestAccounting:
    def test_report_and_decision_counters(self):
        stack, gate = _gated(
            AdmissionConfig(max_active=1, headroom=1.0,
                            max_pending_total=1)
        )
        gate.submit(stack.server.make_job("c0", "alexnet", 4))
        gate.submit(stack.server.make_job("c1", "alexnet", 4))
        gate.submit(stack.server.make_job("c2", "alexnet", 4))
        stack.sim.run()
        report = gate.report()
        assert report["admitted"] == 1
        assert report["deferred"] == 1
        assert report["rejected"] == 1
        assert report["dispatched"] == 1
        assert report["pending"] == 0
        assert report["max_pending_seen"] == 1
        assert report["decisions"] == {
            "admit:headroom-ok": 1,
            "defer:overloaded": 1,
            "reject:queue-full": 1,
        }
        assert gate.decisions_by_reason() == report["decisions"]

    def test_load_snapshot_shape(self):
        stack, gate = _gated()
        load = gate.load()
        assert load == {
            "active": 0,
            "ceiling": gate.config.max_active,
            "queue_depth": 0,
            "devices_down": 0,
            "devices_total": 1,
            "pending": 0,
        }


class TestTelemetry:
    def test_decisions_and_dispatches_hit_the_rollup(self):
        stack, gate = _gated(
            AdmissionConfig(max_active=1, headroom=1.0,
                            max_pending_total=1),
            telemetry=TelemetryConfig(),
        )
        gate.submit(stack.server.make_job("c0", "alexnet", 4))
        gate.submit(stack.server.make_job("c1", "alexnet", 4))
        gate.submit(stack.server.make_job("c2", "alexnet", 4))
        stack.sim.run()
        rollup = stack.telemetry.rollup()
        assert rollup["admission_decisions"] == {
            "admit:headroom-ok": 1,
            "defer:overloaded": 1,
            "reject:queue-full": 1,
        }
        assert rollup["admission_dispatches"] == 1

    def test_dispatch_reports_time_spent_parked(self):
        stack, gate = _gated(
            AdmissionConfig(max_active=1, headroom=1.0),
            telemetry=TelemetryConfig(keep_events=True),
        )
        sim = stack.sim
        parked_at = 0.01
        decisions = []

        def arrive():
            yield sim.timeout(parked_at)
            for client in ("c0", "c1"):
                job = stack.server.make_job(client, "alexnet", 4)
                decisions.append(gate.submit(job).action)

        sim.process(arrive())
        sim.run()
        assert decisions == ["admit", "defer"]
        [dispatch] = [
            event for event in stack.telemetry.events
            if event.kind == "admission.dispatch"
        ]
        assert dispatch.time > parked_at
        assert dispatch.attrs["waited"] == dispatch.time - parked_at

"""Operating Olympian in production: SLOs, drift detection, tracing.

Three operational capabilities built on Olympian's predictability:

1. **SLO admission control** — the admission gate estimates a
   request's completion time from its offline profile and the current
   load; it rejects fast instead of missing slow.
2. **Profile drift detection** — watch delivered per-quantum GPU
   durations; a stale profile (device clock changed, model updated)
   shows up as quanta diverging from Q.
3. **Timeline export** — dump the run as a Chrome trace (open in
   chrome://tracing or Perfetto) plus a terminal gantt.

Run:  python examples/operations.py
"""

import tempfile
from pathlib import Path

from repro.analysis import export_chrome_trace, render_gantt, render_histogram
from repro.core import (
    FairSharing,
    OfflineProfiler,
    OlympianProfile,
    OlympianScheduler,
    ProfileStore,
    QuantumMonitor,
)
from repro.serving import (
    AdmissionConfig,
    AdmissionGate,
    Client,
    ModelServer,
    ServerConfig,
)
from repro.sim import Simulator
from repro.slo import FairShareEstimator
from repro.zoo import INCEPTION_V4, generate_graph

QUANTUM = 1.2e-3


def build_stack(profile_store, seed=13):
    sim = Simulator()
    scheduler = OlympianScheduler(
        sim, FairSharing(), quantum=QUANTUM, profiles=profile_store
    )
    server = ModelServer(
        sim, ServerConfig(track_memory=False, seed=seed), scheduler=scheduler
    )
    return sim, server, scheduler


def main():
    graph = generate_graph(INCEPTION_V4, scale=0.05, seed=1)
    profiler = OfflineProfiler(seed=7)
    profile = profiler.profile_model(graph, 100)
    store = ProfileStore()
    store.add(profile)

    # ------------------------------------------------------------------
    # 1. SLO admission under a burst of arrivals
    # ------------------------------------------------------------------
    sim, server, scheduler = build_stack(store)
    server.load_model(graph)
    estimator = FairShareEstimator(store, overhead=0.05, host_fraction=0.2)
    # Only the SLO check rejects here: the concurrency ceiling never binds.
    gate = AdmissionGate(
        AdmissionConfig(max_active=12, defer=False), estimator=estimator
    ).attach(server)
    slo = 4 * profile.gpu_duration
    admitted = []

    def burst():
        for i in range(12):
            job = server.make_job(f"r{i}", graph.name, 100)
            estimate = estimator.estimate_for(server, graph.name, 100)
            decision = gate.submit(job, slo=slo)
            if decision.action == "admit":
                admitted.append(job)
            state = "admitted" if decision.action == "admit" else "REJECTED"
            print(
                f"t={sim.now * 1e3:7.1f} ms  request r{i}: {state} "
                f"(estimate {estimate * 1e3:.0f} ms, SLO {slo * 1e3:.0f} ms)"
            )
            yield sim.timeout(profile.gpu_duration / 3)

    sim.process(burst())
    sim.run()
    met = sum(1 for job in admitted if job.latency <= slo)
    print(
        f"\nSLO attainment of admitted jobs: {met / len(admitted):.0%} "
        f"({gate.admitted} admitted, {gate.rejected} rejected)\n"
    )

    # ------------------------------------------------------------------
    # 2. Drift detection with a deliberately stale profile
    # ------------------------------------------------------------------
    stale = ProfileStore()
    stale_profile = OlympianProfile(
        model_name=profile.model_name,
        batch_size=profile.batch_size,
        node_costs=dict(profile.node_costs),
        gpu_duration=profile.gpu_duration * 2.5,  # device "got faster"
        solo_runtime=profile.solo_runtime,
    )
    stale.add(stale_profile)
    sim, server, scheduler = build_stack(stale, seed=14)
    server.load_model(graph)
    monitor = QuantumMonitor(
        server, scheduler, tolerance=0.3, window=24,
        on_drift=lambda alert: print(
            f"DRIFT at t={alert.time * 1e3:.0f} ms: {alert.model_name} "
            f"delivers {alert.observed_mean * 1e6:.0f} us per quantum, "
            f"expected {alert.expected * 1e6:.0f} us "
            f"({alert.relative_error:+.0%}) -> re-profile!"
        ),
    )
    clients = [
        Client(sim, server, f"c{i}", graph.name, 100, num_batches=2)
        for i in range(4)
    ]
    for client in clients:
        client.start()
    sim.run()
    monitor.scan()
    assert monitor.drifting_models == [graph.name]

    # ------------------------------------------------------------------
    # 3. Timeline export
    # ------------------------------------------------------------------
    out = Path(tempfile.gettempdir()) / "olympian_trace.json"
    count = export_chrome_trace(server, out, scheduler=scheduler)
    print(f"\nwrote {count} trace events to {out} (open in chrome://tracing)")

    window = (0.0, min(0.05, max(c.finished_at for c in clients)))
    print("\nGPU occupancy (first 50 ms; one row per job):")
    print(render_gantt(server, window, width=72))

    durations = [
        server.tracer.duration_between(t.job_id, t.start, t.end)
        for t in scheduler.closed_tenures()
        if t.end is not None
    ]
    print("\nPer-quantum GPU duration histogram:")
    print(render_histogram(durations, bins=8))


if __name__ == "__main__":
    main()

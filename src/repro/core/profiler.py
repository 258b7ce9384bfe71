"""Olympian's offline profiler (paper §3.3, Figure 7 left half).

For each (model, batch size) the profiler runs the model **solo** on an
otherwise idle serving stack:

1. once with the online cost profiler attached, collecting per-node
   cost observations (this is the expensive instrumented run — 21-29 %
   slower, Figure 6 — which is exactly why it happens offline);
2. once clean, measuring the solo GPU duration ``D_j`` and runtime.

It then builds Overhead-Q curves by running *two* instances of the
model under plain TF-Serving versus under Olympian across a grid of
quanta, and selects the quantum matching an operator-specified overhead
tolerance (§3.3 "Determining Q").

Everything here creates fresh, self-contained simulations, mirroring
how the real profiler runs on an idle GPU.  That independence lets the
Overhead-Q sweep's pair runs fan out over forked workers
(:mod:`repro.core.fanout`) with byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..serving.client import Client
from ..serving.server import ModelServer, ServerConfig
from ..sim.core import Simulator
from ..sim.rng import derive_seed
from .accounting import OlympianProfile, ProfileStore
from .fanout import ordered_map, usable_cpus
from .policies import FairSharing
from .quantum import DEFAULT_Q_GRID, OverheadQCurve, select_quantum
from .scheduler import DEFAULT_WAKE_LATENCY, OlympianScheduler

__all__ = ["SoloRun", "ProfilerOutput", "OfflineProfiler"]


@dataclass(frozen=True)
class SoloRun:
    """Measurements from one exclusive-access run of a model."""

    model_name: str
    batch_size: int
    runtime: float
    gpu_duration: float
    online: bool


@dataclass
class ProfilerOutput:
    """Everything the profiler hands to the serving system."""

    quantum: float
    store: ProfileStore
    curves: List[OverheadQCurve] = field(default_factory=list)
    tolerance: float = 0.025

    def curve_for(self, model_name: str) -> OverheadQCurve:
        for curve in self.curves:
            if curve.model_name == model_name:
                return curve
        raise KeyError(f"no Overhead-Q curve for {model_name!r}")


class OfflineProfiler:
    """Builds :class:`OlympianProfile` objects and selects the quantum."""

    def __init__(
        self,
        base_config: Optional[ServerConfig] = None,
        seed: int = 0,
        wake_latency: float = DEFAULT_WAKE_LATENCY,
        curve_batches: int = 4,
    ):
        # Profiling runs on an idle server; memory accounting is
        # irrelevant there and only constrains multi-client serving.
        self.base_config = base_config or ServerConfig(track_memory=False)
        if self.base_config.track_memory:
            self.base_config = replace(self.base_config, track_memory=False)
        self.seed = seed
        self.wake_latency = wake_latency
        self.curve_batches = curve_batches
        self.solo_runs: List[SoloRun] = []

    # ------------------------------------------------------------------
    # Solo measurement
    # ------------------------------------------------------------------

    def measure_solo(
        self, graph: Graph, batch_size: int, online: bool = False, run_seed: int = 0
    ) -> Tuple[SoloRun, ModelServer]:
        """One exclusive-access run; returns measurements and the server
        (which holds cost observations when ``online`` is set)."""
        sim = Simulator()
        config = replace(
            self.base_config,
            online_profiling=online,
            seed=derive_seed(self.seed, f"solo:{graph.name}:{batch_size}:{run_seed}"),
        )
        server = ModelServer(sim, config)
        server.load_model(graph)
        job = server.make_job("profiler", graph.name, batch_size)
        server.submit(job)
        sim.run()
        if not job.complete:
            raise RuntimeError(
                f"solo run of {graph.name!r} did not complete "
                f"({job.nodes_executed}/{job.graph.num_nodes} nodes)"
            )
        run = SoloRun(
            model_name=graph.name,
            batch_size=batch_size,
            runtime=job.finished_at - job.submitted_at,
            gpu_duration=server.gpu_duration_of(job),
            online=online,
        )
        self.solo_runs.append(run)
        return run, server

    def profile_model(
        self, graph: Graph, batch_size: int, run_seed: int = 0
    ) -> OlympianProfile:
        """Instrumented run for node costs + clean run for ``D_j``."""
        _instrumented, server = self.measure_solo(
            graph, batch_size, online=True, run_seed=run_seed
        )
        observed = server.observed_profile(graph.name, batch_size)
        clean, _ = self.measure_solo(
            graph, batch_size, online=False, run_seed=run_seed
        )
        return OlympianProfile.from_cost_profile(
            observed,
            gpu_duration=clean.gpu_duration,
            solo_runtime=clean.runtime,
        )

    # ------------------------------------------------------------------
    # Overhead-Q curves
    # ------------------------------------------------------------------

    def _run_pair(
        self,
        graph: Graph,
        batch_size: int,
        quantum: Optional[float],
        store: Optional[ProfileStore],
        run_seed: int,
    ) -> float:
        """Two concurrent instances; returns the later finish time.

        ``quantum=None`` means plain TF-Serving (the baseline case *a*
        of §3.3); otherwise Olympian fair sharing at that quantum
        (case *b*).
        """
        sim, _server, clients = self._pair_stack(
            graph, batch_size, quantum, store, run_seed
        )
        sim.run()
        for client in clients:
            if not client.completed:
                raise RuntimeError(
                    f"pair run of {graph.name!r} stalled (client "
                    f"{client.client_id!r} incomplete)"
                )
        return max(client.finish_time for client in clients)

    def _pair_stack(
        self,
        graph: Graph,
        batch_size: int,
        quantum: Optional[float],
        store: Optional[ProfileStore],
        run_seed: int,
    ) -> Tuple[Simulator, ModelServer, List[Client]]:
        """The pair run's simulator, server and started clients, not yet
        run (``repro bench`` counts the kernel's work on one)."""
        sim = Simulator()
        # The seed is shared across the whole Q sweep (and the baseline):
        # back-to-back runs on the same physical card see the same clock
        # state, and a paired comparison isolates the scheduler's effect
        # from device/dispatch noise.
        config = replace(
            self.base_config,
            seed=derive_seed(self.seed, f"pair:{graph.name}:{batch_size}:{run_seed}"),
        )
        if quantum is None:
            scheduler = None
        else:
            scheduler = OlympianScheduler(
                sim,
                FairSharing(),
                quantum=quantum,
                profiles=store,
                wake_latency=self.wake_latency,
            )
        server = ModelServer(sim, config, scheduler=scheduler)
        server.load_model(graph)
        clients = [
            Client(
                sim,
                server,
                client_id=f"pair{i}",
                model_name=graph.name,
                batch_size=batch_size,
                num_batches=self.curve_batches,
            )
            for i in range(2)
        ]
        for client in clients:
            client.start()
        return sim, server, clients

    def overhead_q_curve(
        self,
        graph: Graph,
        batch_size: int,
        profile: Optional[OlympianProfile] = None,
        q_values: Sequence[float] = DEFAULT_Q_GRID,
        run_seed: int = 0,
    ) -> OverheadQCurve:
        """Measure overhead vs quantum for one model (Figure 8)."""
        if profile is None:
            profile = self.profile_model(graph, batch_size, run_seed=run_seed)
        (curve,) = self._overhead_q_curves(
            [(graph, batch_size, profile)], q_values, run_seed
        )
        return curve

    def _overhead_q_curves(
        self,
        entries: Sequence[Tuple[Graph, int, OlympianProfile]],
        q_values: Sequence[float],
        run_seed: int = 0,
    ) -> List[OverheadQCurve]:
        """One Overhead-Q curve per ``(graph, batch, profile)`` entry.

        Every entry needs a baseline pair run plus one per quantum, and
        each is an independent simulation under its entry's seed, so
        the whole sweep is one flat task list mapped over forked
        workers (:mod:`repro.core.fanout`) and merged in input order:
        the curves are byte-identical to a serial sweep.
        """
        grid: Tuple[Optional[float], ...] = (None,) + tuple(q_values)
        runs = []
        for graph, batch_size, profile in entries:
            store = ProfileStore()
            store.add(profile)
            runs.append((graph, batch_size, store))
        # Tasks cross the pipe pickled, so they are (entry, quantum)
        # indices; graphs and stores ride the forked callable instead.
        tasks = [(index, q) for index in range(len(runs)) for q in grid]
        finishes = ordered_map(
            partial(self._sweep_task, runs, run_seed),
            tasks,
            processes=usable_cpus(),
            method="fork",
        )
        curves = []
        for index, (graph, batch_size, _store) in enumerate(runs):
            start = index * len(grid)
            baseline, *scheduled = finishes[start:start + len(grid)]
            points = [
                (q, (finish - baseline) / baseline)
                for q, finish in zip(q_values, scheduled)
            ]
            curves.append(OverheadQCurve(graph.name, batch_size, points))
        return curves

    def _sweep_task(
        self,
        runs: Sequence[Tuple[Graph, int, ProfileStore]],
        run_seed: int,
        task: Tuple[int, Optional[float]],
    ) -> float:
        index, quantum = task
        graph, batch_size, store = runs[index]
        return self._run_pair(graph, batch_size, quantum, store, run_seed)

    # ------------------------------------------------------------------
    # Full build
    # ------------------------------------------------------------------

    def build(
        self,
        entries: Sequence[Tuple[Graph, int]],
        tolerance: float = 0.025,
        q_values: Sequence[float] = DEFAULT_Q_GRID,
        with_curves: bool = True,
        fixed_quantum: Optional[float] = None,
    ) -> ProfilerOutput:
        """Profile every (graph, batch) pair and select the quantum.

        The solo runs go first, serially: the pair runs need their
        profiles.  The pair runs of every curve then fan out together
        (:meth:`_overhead_q_curves`).  ``fixed_quantum`` skips curve
        measurement and Q selection (used by experiments that sweep Q
        themselves), so it never starts a worker; profiles are still
        built.
        """
        store = ProfileStore()
        profiles: Dict[Tuple[str, int], OlympianProfile] = {}
        for graph, batch_size in entries:
            profile = self.profile_model(graph, batch_size)
            profiles[(graph.name, batch_size)] = profile
            store.add(profile)
        if fixed_quantum is not None:
            return ProfilerOutput(
                quantum=fixed_quantum, store=store, tolerance=tolerance
            )
        if not with_curves:
            raise ValueError("need either curves or a fixed quantum")
        curves = self._overhead_q_curves(
            [
                (graph, batch_size, profiles[(graph.name, batch_size)])
                for graph, batch_size in entries
            ],
            q_values,
        )
        quantum = select_quantum(curves, tolerance)
        return ProfilerOutput(
            quantum=quantum, store=store, curves=curves, tolerance=tolerance
        )

"""Host CPU model: a fixed number of cores shared by all gang threads.

CPU nodes of a dataflow graph execute here.  Contention for cores is a
real (if secondary) effect in the paper's testbed — an i7-8700 serving
ten clients' gangs — and is one of the noise sources behind TF-Serving's
run-to-run variability (Figure 3).
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Simulator
from ..sim.resources import Resource

__all__ = ["HostCpu"]


class HostCpu:
    """``n_cores`` CPU cores as a counted resource.

    ``execute`` is a process fragment (generator) that occupies one core
    for ``duration`` seconds; callers ``yield from`` it.
    """

    def __init__(self, sim: Simulator, n_cores: int = 12):
        self.sim = sim
        self.cores = Resource(sim, capacity=n_cores)
        self.busy_time = 0.0

    @property
    def n_cores(self) -> int:
        return self.cores.capacity

    def execute(self, duration: float):
        """Occupy one core for ``duration`` seconds (yield from this).

        A free core is claimed inline, so the caller waits on nothing
        but the compute itself; a :class:`Request` queues only when
        every core is busy.
        """
        if not duration >= 0.0:
            raise ValueError(f"negative CPU duration: {duration}")
        cores = self.cores
        if cores._in_use < cores.capacity:
            cores._in_use += 1
            request = None
        else:
            request = cores.request()
            yield request
        try:
            yield self.sim.timeout(duration)
            self.busy_time += duration
        finally:
            if request is None:
                cores.release_slot()
            else:
                cores.release(request)

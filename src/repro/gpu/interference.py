"""Capacity-interference model for spatial GPU sharing.

When a device runs ``k`` kernels concurrently (``GpuSpec.streams > 1``),
they contend for SMs, memory bandwidth, and L2 — so each runs slower
than it would alone.  The model here is the calibrated one the
multi-stream engine (:meth:`~repro.gpu.device.GpuDevice._step`)
charges:

* **Aggregate capacity** ``C(k) = 1 + (k - 1) * parallel_efficiency``
  — the device's total throughput with ``k`` resident kernels, in
  units of one solo kernel.  ``parallel_efficiency`` is the marginal
  throughput each extra kernel buys (a :class:`~repro.gpu.specs.GpuSpec`
  field).  ``C(1) = 1`` by construction; with efficiency 0 the device
  degenerates to time-slicing (``C(k) = 1``, the paper's §2.3 "two
  concurrent Inceptions take twice as long" regime), with efficiency 1
  it scales perfectly.
* **Per-kernel slowdown** ``s(k) = k / C(k)`` — capacity is shared
  equally (processor sharing), so each resident kernel progresses at
  rate ``1/s(k)`` of its solo rate.

Three properties fall out of the algebra, and the unit suite pins them:

* identity: ``s(1) == 1`` (one resident kernel runs at solo speed);
* monotonicity: ``s`` is non-decreasing in ``k`` (more neighbours never
  speed you up);
* capped throughput: ``C(k) <= k <= streams`` — the device never
  exceeds its spec capacity of ``streams`` solo-kernel units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import GpuSpec

__all__ = [
    "InterferenceModel",
    "aggregate_capacity",
    "kernel_slowdown",
]


def aggregate_capacity(occupancy: int, parallel_efficiency: float) -> float:
    """Total device throughput with ``occupancy`` resident kernels.

    In units of one solo kernel's throughput; ``0`` residents means an
    idle device with zero throughput.
    """
    if occupancy < 0:
        raise ValueError(f"occupancy must be >= 0: {occupancy}")
    if not 0.0 <= parallel_efficiency <= 1.0:
        raise ValueError(
            f"parallel_efficiency must be in [0, 1]: {parallel_efficiency}"
        )
    if occupancy == 0:
        return 0.0
    return 1.0 + (occupancy - 1) * parallel_efficiency


def kernel_slowdown(occupancy: int, parallel_efficiency: float) -> float:
    """Per-kernel slowdown factor with ``occupancy`` resident kernels.

    ``1.0`` at occupancy 1, rising towards ``1 / parallel_efficiency``
    as the device fills (``occupancy / aggregate_capacity``).
    """
    if occupancy < 1:
        raise ValueError(f"occupancy must be >= 1: {occupancy}")
    return occupancy / aggregate_capacity(occupancy, parallel_efficiency)


@dataclass(frozen=True)
class InterferenceModel:
    """The per-device view: spec-bound capacity and slowdown curves."""

    streams: int
    parallel_efficiency: float

    def __post_init__(self):
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1: {self.streams}")
        if not 0.0 <= self.parallel_efficiency <= 1.0:
            raise ValueError(
                f"parallel_efficiency must be in [0, 1]: "
                f"{self.parallel_efficiency}"
            )

    @classmethod
    def from_spec(cls, spec: GpuSpec) -> "InterferenceModel":
        return cls(
            streams=spec.streams,
            parallel_efficiency=spec.parallel_efficiency,
        )

    def capacity(self, occupancy: int) -> float:
        """Aggregate throughput at ``occupancy``, capped by the spec."""
        if occupancy > self.streams:
            raise ValueError(
                f"occupancy {occupancy} exceeds {self.streams} streams"
            )
        return aggregate_capacity(occupancy, self.parallel_efficiency)

    def slowdown(self, occupancy: int) -> float:
        """Per-kernel slowdown at ``occupancy`` resident kernels."""
        if occupancy > self.streams:
            raise ValueError(
                f"occupancy {occupancy} exceeds {self.streams} streams"
            )
        return kernel_slowdown(occupancy, self.parallel_efficiency)

    def slowdown_table(self) -> dict:
        """``{occupancy: slowdown}`` over the device's full range."""
        return {k: self.slowdown(k) for k in range(1, self.streams + 1)}

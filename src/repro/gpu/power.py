"""GPU power and energy estimation.

The paper flags power as unevaluated future work (§7.2: "power usage is
an important metric that was not evaluated").  This module provides the
standard first-order model used for such studies: device power is
``idle_watts`` when the compute engine is idle and ``busy_watts`` when
a kernel is executing, so energy over a window is::

    E = idle_watts * window + (busy_watts - idle_watts) * busy_time

which only needs the busy intervals the device already traces.
Vendor-book numbers for the paper's two devices are included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import GpuDevice

__all__ = ["PowerModel", "GTX_1080_TI_POWER", "TITAN_X_POWER", "energy_joules"]


@dataclass(frozen=True)
class PowerModel:
    """Two-state (idle/busy) device power model."""

    name: str
    idle_watts: float
    busy_watts: float

    def __post_init__(self):
        if self.idle_watts < 0:
            raise ValueError(f"idle_watts negative: {self.idle_watts}")
        if self.busy_watts < self.idle_watts:
            raise ValueError(
                f"busy_watts ({self.busy_watts}) below idle_watts "
                f"({self.idle_watts})"
            )

    def average_power(self, utilization: float) -> float:
        """Mean draw at a given busy fraction, watts."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization out of [0,1]: {utilization}")
        return self.idle_watts + (self.busy_watts - self.idle_watts) * utilization

    def energy(self, busy_time: float, window: float) -> float:
        """Energy in joules over ``window`` seconds with ``busy_time``
        seconds of kernel execution."""
        if window < 0 or busy_time < 0 or busy_time > window + 1e-12:
            raise ValueError(
                f"invalid busy/window pair: {busy_time} / {window}"
            )
        return (
            self.idle_watts * window
            + (self.busy_watts - self.idle_watts) * busy_time
        )


# Board-power figures from the vendor datasheets (idle measured values
# commonly reported for the parts).
GTX_1080_TI_POWER = PowerModel("GeForce GTX 1080 Ti", idle_watts=55.0,
                               busy_watts=250.0)
TITAN_X_POWER = PowerModel("NVIDIA Titan X", idle_watts=50.0, busy_watts=250.0)


def energy_joules(
    device: GpuDevice,
    model: PowerModel,
    window_start: float,
    window_end: float,
) -> float:
    """Energy the device consumed over a window, from its busy trace."""
    if window_end <= window_start:
        raise ValueError("window must have positive length")
    window = window_end - window_start
    fraction = device.utilization(window_start, window_end)
    return model.energy(fraction * window, window)

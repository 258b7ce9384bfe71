"""``Simulator.timeout_chain`` deadlines, pinned against ``numpy.cumsum``.

Timeout ``i`` of a chain fires at ``now + delays[0] + ... + delays[i]``,
accumulated left to right in float64.  ``numpy.cumsum`` over the clock
followed by the delays accumulates in the same order, so it is the
oracle here: every deadline must equal it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.core import SimulationError


def cumsum_deadlines(now, delays):
    """The deadlines ``numpy.cumsum`` gives a chain started at ``now``."""
    acc = np.empty(len(delays) + 1, dtype=np.float64)
    acc[0] = now
    acc[1:] = delays
    return [float(t) for t in np.cumsum(acc)[1:]]


def fired_deadlines(now, delays):
    """Start a chain at ``now`` and return when each timeout fired."""
    sim = Simulator()
    sim.run(until=now)
    assert sim.now == now
    fired = [None] * len(delays)
    chain = sim.timeout_chain(delays, value="tick")
    assert len(chain) == len(delays)
    for index, event in enumerate(chain):
        event.add_callback(
            lambda ev, index=index: fired.__setitem__(index, sim.now)
        )
    sim.run()
    assert all(event.value == "tick" for event in chain)
    return fired


_NOW = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
_DELAY = st.one_of(
    st.just(0.0),
    # Tiny: at or below the clock's ulp, so most sums round away.
    st.floats(min_value=0.0, max_value=1e-9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    # Huge: swamp the clock and every tiny delay after them.
    st.floats(min_value=1e6, max_value=1e12, allow_nan=False),
)


class TestTimeoutChainDeadlines:
    @settings(max_examples=200, deadline=None)
    @given(now=_NOW, delays=st.lists(_DELAY, max_size=30))
    @example(now=0.1, delays=[0.2, 0.3, 1e-17, 0.7])
    @example(now=1e6, delays=[1e-12, 1e-12, 1e12, 1e-12])
    @example(now=5e-324, delays=[5e-324, 5e-324])
    @example(now=3.5, delays=[])
    def test_match_cumsum_oracle(self, now, delays):
        assert fired_deadlines(now, delays) == cumsum_deadlines(now, delays)

    def test_empty_chain_schedules_nothing(self):
        sim = Simulator()
        sim.run(until=2.0)
        assert sim.timeout_chain([]) == []
        sim.run()
        assert sim.now == 2.0

    @pytest.mark.parametrize(
        "delays", [[-1.0], [0.5, -1e-300, 0.5], [0.0, float("-inf")]]
    )
    def test_negative_delay_rejected_before_scheduling(self, delays):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError, match="negative timeout delay"):
            sim.timeout_chain(delays)
        # The check runs before any timeout of the chain is scheduled.
        sim.run()
        assert sim.now == 1.0

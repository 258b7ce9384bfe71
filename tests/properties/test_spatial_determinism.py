"""The multi-stream refactor must be invisible at ``streams=1``.

The spatial-sharing tentpole rewired the device engine, the driver's
fetch path and the scheduler registry.  Its hard contract: with one
stream, every pre-existing scheduler kind produces a **bit-identical**
trace to the pre-refactor code.  ``trace_digest`` hashes kernel
intervals, scheduler decisions/tenures/evictions, job records and
client completions, so the digests pinned below are the strongest
equivalence check available — any drift in event order, RNG draw order
or float arithmetic flips them.

The pinned values were captured from the tree immediately before the
multi-stream engine landed (same workload, same config).  Do NOT
re-pin them to make a failure go away; a mismatch means the serial
path changed behaviour.

The spatial kinds themselves carry a weaker but still essential
property: seeded determinism.  Same seed, same digest; different
seed, different trace (the admission lottery actually draws).
"""

import pytest

from repro.experiments import (
    SCHEDULER_KINDS,
    SPATIAL_SCHEDULER_KINDS,
    ExperimentConfig,
    run_workload,
)
from repro.faults import FaultPlan
from repro.telemetry import TelemetryConfig
from repro.workloads import (
    complex_workload,
    heterogeneous_workload,
    with_priorities,
    with_weights,
)

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)
SPECS = with_priorities(
    with_weights(
        heterogeneous_workload(clients_per_model=2, num_batches=2),
        [2, 1, 1, 1],
    ),
    [0, 0, 1, 0],
)

# Captured pre-refactor (streams=1, telemetry off) — see module docstring.
PINNED_DIGESTS = {
    "tf-serving": (
        "806acc31406a49c33467a7f7944eaeb4645f96d0b3f13f978aa4f333386211b5"
    ),
    "fair": (
        "af4d9c321a342cf6e10bf620c7f8884c4356011a2c44247309a0c282e5564eac"
    ),
    "weighted": (
        "aacd5bc8dfb51e8456e2a0468dc2cdced77ebb4913a107cbcf00e9f442f9a2dd"
    ),
    "priority": (
        "a1415293b991b8cace10ad8f89ca8805e2107bf62a700ad14cf20f3d9cf5de87"
    ),
    "timer": (
        "00dcf40d5d922f0f4d464df905048a03901a6b0c6f4ce30ff515d8c221bcfaca"
    ),
    "deficit-rr": (
        "ded93a14527e8cb4e8e735540f3f16c18c5f33d375c6bf5b9cf5c509cec02122"
    ),
    "lottery": (
        "c43f0c709fa252fdfba5e0a6ecb8df087bac991fd1168fc922e6a73ccbd28604"
    ),
    "edf": (
        "bfdc6865006da7d159240ac2039a798c0ca1f82c73c86694ede68bca5305d088"
    ),
    "srw": (
        "b85358d60c043146ec47c7b1f3b5012e391bb7e6d693783c58ff39b7f3f16197"
    ),
}

FULL_TELEMETRY = TelemetryConfig(verbosity="full", snapshot_period=0.05)


def digest(kind, *, config=FAST, telemetry=None):
    result = run_workload(
        SPECS, scheduler=kind, config=config, telemetry=telemetry
    )
    return result.trace_digest()


class TestPinnedEquivalence:
    def test_pin_table_covers_every_existing_kind(self):
        """A new temporal kind must be captured and added here."""
        assert set(PINNED_DIGESTS) == set(SCHEDULER_KINDS)

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_streams1_matches_pre_refactor_digest(self, kind):
        assert digest(kind) == PINNED_DIGESTS[kind], (
            f"{kind!r} diverged from the pre-refactor serial schedule"
        )

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_streams1_with_telemetry_matches_pinned(self, kind):
        """Telemetry neutrality and serial equivalence in one shot."""
        assert (
            digest(kind, telemetry=FULL_TELEMETRY) == PINNED_DIGESTS[kind]
        )

    def test_explicit_streams1_override_matches_pinned(self):
        """``streams=1`` spelled out must equal the implicit default."""
        config = ExperimentConfig(
            scale=0.02, quantum=0.8e-3, curve_batches=2, streams=1
        )
        assert digest("fair", config=config) == PINNED_DIGESTS["fair"]


class TestSpatialSeededDeterminism:
    @pytest.mark.parametrize("kind", SPATIAL_SCHEDULER_KINDS)
    def test_same_seed_same_digest(self, kind):
        config = ExperimentConfig(
            scale=0.02, quantum=0.8e-3, curve_batches=2, streams=2, seed=0
        )
        assert digest(kind, config=config) == digest(kind, config=config)

    @pytest.mark.parametrize("kind", SPATIAL_SCHEDULER_KINDS)
    def test_different_seed_different_trace(self, kind):
        def at_seed(seed):
            config = ExperimentConfig(
                scale=0.02,
                quantum=0.8e-3,
                curve_batches=2,
                streams=2,
                seed=seed,
            )
            return digest(kind, config=config)

        assert at_seed(0) != at_seed(1), (
            f"{kind!r} ignored the seed — the admission lottery "
            "should perturb the schedule"
        )

    @pytest.mark.parametrize("kind", SPATIAL_SCHEDULER_KINDS)
    def test_telemetry_neutral_at_multiple_streams(self, kind):
        config = ExperimentConfig(
            scale=0.02, quantum=0.8e-3, curve_batches=2, streams=2
        )
        off = digest(kind, config=config)
        on = digest(kind, config=config, telemetry=FULL_TELEMETRY)
        assert on == off

    @pytest.mark.parametrize("kind", SPATIAL_SCHEDULER_KINDS)
    def test_spatial_kinds_run_on_serial_engine(self, kind):
        """streams=1 routes through the unchanged serial engine."""
        result = run_workload(SPECS, scheduler=kind, config=FAST)
        assert result.trace_digest() == result.trace_digest()
        assert all(
            client.finish_time > 0.0 for client in result.clients
        )


# The multi-stream engine's hand-off order: the ext_spatial sweep
# workload at 2, 4 and 8 streams.  Captured from the process-driven
# engine; a device that starts a fetched kernel in a different calendar
# slot moves the s4 and s8 rows.  Do NOT re-pin.
SWEEP_SPECS = heterogeneous_workload(clients_per_model=3, num_batches=3)
SWEEP_DIGESTS = {
    ("spatial", 2): (
        "208a9fab34ab48d995c3d9c7c5e0cd17ec0a9866a8bc205f048e50b7edd1460a"
    ),
    ("spatial", 4): (
        "f7079d7a32729bbdc79769717c3e09b80eeffdb53cffeec64077cb7b44b10789"
    ),
    ("spatial", 8): (
        "8024b681937e5efdee1d41196abd2bcfe14a4529e899fad9b33c2e257627bd7a"
    ),
    ("spatial-rt", 2): (
        "2a0f7afe7df8c0a7ec4ebcd3ad8ed5cc6f940d2f46a4d80062d75526120424cf"
    ),
    ("spatial-rt", 4): (
        "65892ffa5871fbb872db44816a2e3def0492ef8d7e0a5ea6c61511b173505d93"
    ),
    ("spatial-rt", 8): (
        "c981c48dc2b60dd7e4b69c65a6058c73f65bb4a105e57c162bcd7f0bc5d61ffc"
    ),
}
# A spatial run at s4 whose fault plan hangs the device while fetched
# kernels wait to start (the engine's staging path).
STAGED_HANG_DIGEST = (
    "1e194c57f6e736b327ad7f7669413bec413a64e91797a6d962028812b62f3de7"
)


class TestMultiStreamHandOffPins:
    @pytest.mark.parametrize("kind, streams", sorted(SWEEP_DIGESTS))
    def test_sweep_digest(self, kind, streams):
        config = ExperimentConfig(
            scale=0.02, seed=0, quantum=1e-3, streams=streams
        )
        result = run_workload(SWEEP_SPECS, scheduler=kind, config=config)
        assert result.trace_digest() == SWEEP_DIGESTS[(kind, streams)]

    def test_staged_hang_digest(self):
        specs = complex_workload(num_batches=2)
        plan = FaultPlan.generate(
            0,
            [spec.client_id for spec in specs],
            kinds=("device_hang", "kernel_crash", "device_crash"),
            num_faults=4,
            horizon=0.3,
        )
        result = run_workload(
            specs,
            scheduler="spatial",
            config=ExperimentConfig(seed=3, quantum=1.2e-3, streams=4),
            fault_plan=plan,
            require_completion=False,
        )
        assert result.server.device.hangs_injected > 0
        assert result.trace_digest() == STAGED_HANG_DIGEST

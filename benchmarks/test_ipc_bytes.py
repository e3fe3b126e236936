"""IPC-bytes benchmark: the shared-memory transport acceptance number.

The ``repro.experiments --jobs N`` pool returns results to the parent
through a pickle pipe.
``repro.parallel.encode_payload`` rewrites waveform samples into
shared-memory tokens before the pickle, so the bytes that actually
cross the pipe shrink to metadata.

Acceptance bar: **>= 10x** fewer serialised bytes per campaign-style
point for a payload that carries its waveforms, measured apples to
apples with :func:`repro.parallel.payload_nbytes` (the pickle the pool
would have shipped).
"""

import numpy as np
import pytest

from repro import parallel
from repro.core import calibration_stimulus
from repro.signals.waveform import WaveformBatch


@pytest.mark.skipif(not parallel.SHM_AVAILABLE, reason="no shared memory")
def test_perf_ipc_bytes_per_point():
    """A realistic waveform-carrying point result, naive vs encoded."""
    stimulus = calibration_stimulus(n_bits=127, dt=1e-12)
    rng = np.random.default_rng(0)
    batch = WaveformBatch(
        np.stack([stimulus.values] * 8), stimulus.dt, rng.normal(0, 1e-10, 8)
    )
    point_result = {
        "metrics": {"total_range_s": 1.31e-10, "added_jitter_s": 3.2e-12},
        "stimulus": stimulus,
        "acquisition": batch,
        "edge_offsets": rng.normal(0, 1e-12, 40_000),
    }
    naive = parallel.payload_nbytes(point_result)
    encoded_payload = parallel.encode_payload(point_result)
    encoded = parallel.payload_nbytes(encoded_payload)
    # Clean up the parked blocks (the benchmark never ships them).
    parallel.decode_payload(encoded_payload)
    ratio = naive / encoded
    print(
        f"\nIPC bytes/point: naive {naive / 1e6:.2f} MB, "
        f"encoded {encoded / 1e3:.2f} kB, {ratio:.0f}x smaller"
    )
    assert ratio >= 10.0, (
        f"encoded payload only {ratio:.1f}x smaller "
        f"({encoded} vs {naive} bytes)"
    )


def test_perf_metrics_only_payload_passthrough():
    """Metrics-only payloads (what campaigns actually return) must not
    regress: encoding is a no-op walk, no shared memory involved."""
    metrics = {
        "total_range_s": 1.31e-10,
        "fine_range_s": 5.9e-11,
        "variation": {"slew_rate": 1.02, "bandwidth": 0.97},
    }
    encoded = parallel.encode_payload(metrics)
    assert encoded == metrics
    assert parallel.payload_nbytes(encoded) == parallel.payload_nbytes(metrics)

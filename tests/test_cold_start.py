"""Cold start: no heavy scipy subpackage is imported or used.

Importing ``scipy.signal`` takes about a second (it pulls in
``scipy.stats``, ``scipy.optimize``, ``scipy.interpolate`` and
``scipy.linalg``), and every CLI and worker process would pay it.  The
program filters through :mod:`repro.kernels.iir` instead, and imports
``scipy.special`` only inside the functions that need it.  A fresh
interpreter imports the package and its entry points, evaluates a
two-point campaign pack and pushes stream chunks, and must not have
loaded any of these subpackages.
"""

import json
import os
import subprocess
import sys

import repro

HEAVY = (
    "scipy.signal",
    "scipy.fft",
    "scipy.special",
    "scipy.stats",
    "scipy.linalg",
)

PROBE = """
import json
import sys

import repro
import repro.campaign.__main__
import repro.experiments.__main__
import repro.workers.__main__
from repro.campaign import runner
from repro.campaign.spec import CampaignSpec
from repro.core import FineDelayLine, calibration_stimulus
from repro.signals.waveform import Waveform

spec = CampaignSpec.from_dict({
    "name": "cold-start",
    "scenario": "range",
    "seed": 1,
    "n_instances": 2,
    "base": {"n_bits": 32, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["3.2 Gbps"]}],
})
assert len(runner.evaluate_pack(runner.expand_points(spec)[:2])) == 2

stimulus = calibration_stimulus(n_bits=16, dt=5e-12)
stream = FineDelayLine(n_stages=2, seed=3).open_stream()
stream.prime(stimulus)
for start in range(0, len(stimulus), 100):
    stream.push(Waveform(
        stimulus.values[start:start + 100].copy(),
        stimulus.dt,
        stimulus.t0 + stimulus.dt * start,
    ))
print(json.dumps(sorted(m for m in HEAVY if m in sys.modules)))
"""


def test_no_heavy_scipy_subpackage_is_loaded():
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src_root, os.environ.get("PYTHONPATH")])
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{PROBE}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []

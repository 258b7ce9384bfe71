"""Per-layer cost ledger: fold a cProfile run into the simulator's layers.

Every function cProfile saw is charged to one layer by the file it lives
in.  Files under ``src/repro`` resolve through :data:`LAYER_OF` (a file
entry wins over its directory's entry); everything else -- the standard
library, builtins, numpy -- is the ``python`` layer.  A ``src/repro``
module that no entry covers raises, so a new module cannot drift into
``python`` unnoticed.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
from pathlib import Path
from typing import Dict, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS: Tuple[str, ...] = (
    "sim",
    "sim.trace",
    "graph",
    "serving.session",
    "serving",
    "serving.admission",
    "core",
    "core.profiler",
    "gpu.driver",
    "gpu.device",
    "gpu",
    "host",
    "telemetry",
    "analysis",
    "workloads",
    "faults",
    "metrics",
    "experiments",
    "repro.other",
    "python",
)

# Call counts outside src/repro drift by a few calls between identical
# runs, so the python layer reports time shares only.
COUNTED_LAYERS: Tuple[str, ...] = tuple(l for l in LAYERS if l != "python")

# Path relative to src/repro -> layer.  Keys without ".py" are
# top-level packages and cover every module below them.
LAYER_OF: Dict[str, str] = {
    "sim": "sim",
    "sim/trace.py": "sim.trace",
    "graph": "graph",
    "serving": "serving",
    "serving/session.py": "serving.session",
    "serving/admission.py": "serving.admission",
    "slo": "serving.admission",
    "core": "core",
    "core/profiler.py": "core.profiler",
    "gpu": "gpu",
    "gpu/driver.py": "gpu.driver",
    "gpu/device.py": "gpu.device",
    "gpu/interference.py": "gpu.device",
    "host": "host",
    "telemetry": "telemetry",
    "analysis": "analysis",
    "workloads": "workloads",
    "faults": "faults",
    "metrics": "metrics",
    "experiments": "experiments",
    "bench": "repro.other",
    "cluster": "repro.other",
    "durability": "repro.other",
    "lint": "repro.other",
    "recovery": "repro.other",
    "zoo": "repro.other",
    "__init__.py": "repro.other",
    "__main__.py": "repro.other",
    "cli.py": "repro.other",
    "sanitize.py": "repro.other",
}


def layer_of_module(relative: str) -> str:
    """Layer of a module given by its path relative to ``src/repro``."""
    layer = LAYER_OF.get(relative) or LAYER_OF.get(relative.split("/", 1)[0])
    if layer is None:
        raise KeyError(f"src/repro/{relative} is in no layer; add it to LAYER_OF")
    return layer


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> str:
    """Layer of a code object's ``co_filename`` (``python`` outside repro)."""
    try:
        relative = Path(filename).resolve().relative_to(SRC)
    except ValueError:
        return "python"
    return layer_of_module(relative.as_posix())


class Ledger:
    """Self time (``tottime``) and calls (``ncalls``) summed per layer."""

    def __init__(self, profile: cProfile.Profile):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
            _primitive, ncalls, tottime, _cumtime, _callers = row
            layer = layer_of_file(filename)
            self.seconds[layer] += tottime
            self.calls[layer] += ncalls

    def shares(self) -> Dict[str, float]:
        total = sum(self.seconds.values())
        return {layer: seconds / total for layer, seconds in self.seconds.items()}

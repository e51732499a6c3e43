"""Host-speed reference: a fixed numpy loop timed next to every measured
operation, so that timings can be reported at one nominal host speed.

On a shared 2-core host the speed of the whole machine drifts by up to 1.6x
over seconds to minutes (identical train steps ran at 65 ms and at 110 ms
within one run), while this loop, timed in the same process between
operations, drifts with it: the ratio of a step's time to the loop's time
stayed within a few percent. Each end-to-end timing is therefore the wall
time times REF_NOMINAL_MS / (mean of the loop times just before and just
after it). Raw wall times are kept in the run record.

The loop mixes the two kinds of work the program does: many small-array
numpy calls, as the autodiff tape makes, and BLAS matmuls at the default
BLAS thread count.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The loop's time, in ms, on the host the benchmark's bounds were set on
# when it ran at its fast speed. Only the ratio to it matters; it is fixed so
# that results of different runs and commits are comparable.
REF_NOMINAL_MS = 4.0

_SMALL = np.random.default_rng(12345).standard_normal((64, 16))
_SQUARE = np.random.default_rng(54321).standard_normal((96, 96))


def _pass_ms() -> float:
    t0 = time.perf_counter()
    x = _SMALL
    for _ in range(150):
        x = np.tanh(x * 0.5 + 0.1) - x.mean(axis=0, keepdims=True)
    b = _SQUARE
    for _ in range(30):
        b = np.tanh(b @ _SQUARE * 0.01)
    return (time.perf_counter() - t0) * 1000.0


def reference_ms() -> float:
    """Wall ms of one pass of the fixed loop (about 4 ms): the median of
    three passes, which a single slow pass does not move."""
    return statistics.median(_pass_ms() for _ in range(3))


def at_nominal(wall: float, ref_before: float, ref_after: float) -> float:
    """`wall` rescaled to the nominal host speed, in the same unit."""
    return wall * REF_NOMINAL_MS * 2.0 / (ref_before + ref_after)

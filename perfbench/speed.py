"""The box's speed, measured with a fixed piece of work inside each run.

The shared 2-core reference box changes speed with its neighbours' load:
in one 10-run set the same code ran about twice as slow as in the next,
and when slow the box often switches between a fast and a slow state
every few seconds. Every run therefore times a fixed calibration kernel
between its program calls and reports each call's timing at the
reference speed:

    reported time = measured time * REFERENCE_S / kernel time around the call

where the kernel time around a call is the mean of the passes near it
(Meter.factor_at). Passes that close to a call see the speed the call ran
at; a mean over the whole run would mix the states.

The kernel uses only the standard library and numpy, never epc-pinn, so
no change to the program moves it. It mixes the kinds of work the
program does, in one thread: CSV parsing, float conversion and a JSON
round trip in the interpreter; small numpy operations whose cost is
mostly dispatch, as in a full-batch training step on 200 rows; and dense
products that keep the CPU's vector units busy, as in the 256-row
batches. The products are small (at most 32x64 by 64x64) and take the
same time with OPENBLAS_NUM_THREADS=1 as with the default pool, so the
kernel does not depend on the BLAS thread pool the program runs with.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import time

import numpy as np

# Kernel time on the 2-core reference box (Intel Xeon, KVM guest, numpy's
# bundled OpenBLAS) while it ran steadily.
REFERENCE_S = 0.0100


def _inputs():
    rng = np.random.default_rng(20240)
    rows = [
        {"cadastre_number": f"{1000000 + i:011d}", "useful_area": f"{a:.2f}",
         "total_area": f"{1.2 * a:.2f}", "floors": str(2 + i % 9),
         "apartments": str(4 + i % 60), "building_type": ("light", "heavy")[i % 2],
         "serie": f"serie_{1 + i % 12:02d}"}
        for i, a in enumerate(rng.uniform(300.0, 9000.0, 120))
    ]
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    x = rng.standard_normal((48, 17))
    weights = [rng.standard_normal(shape) * 0.1 for shape in ((17, 32), (32, 32), (32, 12))]
    dense = (rng.standard_normal((32, 64)), rng.standard_normal((64, 64)) * 0.1)
    return text.getvalue(), rows, x, weights, dense


_TEXT, _ROWS, _X, _WEIGHTS, _DENSE = _inputs()


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    for _ in range(8):
        for row in csv.DictReader(io.StringIO(_TEXT)):
            total += float(row["useful_area"]) / float(row["total_area"]) + int(row["floors"])
        total += len(json.loads(json.dumps(_ROWS)))
    for _ in range(120):
        h = _X
        for w in _WEIGHTS[:-1]:
            h = np.maximum(h @ w, 0.0)
        out = h @ _WEIGHTS[-1]
        grad = (out - out.mean(axis=0)).T @ h
        total += float(np.abs(grad).sum()) * 1e-9
    a, b = _DENSE
    for _ in range(400):
        total += float((a @ b)[0, 0]) * 1e-9
    return total


class Meter:
    """Collects the kernel passes of a run; factor_at() scales a call's
    measured time to the reference speed."""

    NEAR = 3  # kernel passes taken at least on each side of a call
    WIDEN = 2.0  # and all passes within this many call durations of it

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.ends.append(time.perf_counter())

    def mean_s(self) -> float:
        """Mean kernel time of the run, without the highest and lowest tenth."""
        ordered = sorted(e - s for s, e in zip(self.starts, self.ends))
        cut = len(ordered) // 10
        kept = ordered[cut : len(ordered) - cut]
        return sum(kept) / len(kept)

    def factor_at(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean time of the passes near a call: the
        NEAR that ended last before it started, the NEAR that started first
        after it ended, and any other pass within WIDEN call durations of
        either end. A multi-second call lives through many switches of the
        box's state, which a few passes next to it would not see."""
        reach = self.WIDEN * (end - start)
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        first = min(before - self.NEAR, bisect.bisect_left(self.starts, start - reach))
        last = max(after + self.NEAR, bisect.bisect_right(self.ends, end + reach))
        near = list(range(max(0, first), before)) + list(range(after, min(len(self.starts), last)))
        seconds = [self.ends[i] - self.starts[i] for i in near]
        return REFERENCE_S / (sum(seconds) / len(seconds))

    def factor(self, spans: list[tuple[float, float]]) -> float:
        """The factors of several calls, weighted by their durations."""
        total = sum(end - start for start, end in spans)
        return sum((end - start) * self.factor_at(start, end) for start, end in spans) / total

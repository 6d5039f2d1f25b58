"""Speed calibration for timings on a shared machine.

The cores the benchmark gets are shared with other tenants, and the speed
they give one process drifts by up to ~1.7x over seconds.  A fixed piece
of calibration work, run between ops and never inside a timed op, measures
that speed as it drifts.  It comes in two kinds, each like the work it
calibrates:

- ``kernel``, for ops that compute in this process: batched 12x12 matrix
  products, a batched solve, a condition number and elementwise
  trigonometry on 10^3-node stacks (the shapes the closed form works on),
  then a plain interpreter loop;
- ``spawn``, for set-up and for ops that start a process: a fresh
  interpreter that imports a fixed set of standard-library modules.

A time is normalised by the calibration times around it:

    normalised = measured * nominal_ms / calibration_ms

which is the time the same work would take at the speed at which the
calibration takes ``nominal_ms``.  The calibration is the benchmark's own
code, so a change to tadgame moves normalised times exactly as it moves
measured ones; only the machine's drift cancels.
"""

import bisect
import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# typical times of each kind on a shared 2-vCPU Xeon VM (Python 3.11, numpy
# 2.4, single-threaded OpenBLAS), where the kernel reads 7-11 ms and the
# spawn 85-165 ms; they only set the scale of normalised times, so they
# stay fixed for figures of two commits to compare
NOMINAL_MS = {"kernel": 10.0, "spawn": 90.0}
# run the calibration between ops this often, in seconds
EVERY_S = {"kernel": 0.25, "spawn": 0.5}
NEAREST = 3          # calibrations whose median normalises one time
MATMULS = 4          # batched 12x12 products per kernel run
SOLVES = 6           # batched solves per kernel run, CHUNK stacks each
CHUNK = 100          # stacks per call that allocates (~115 kB: reused heap)
SPAWN_PROBE = "import argparse, decimal, email.parser, http.client, json, unittest, xml.dom.minidom"


class Calibrator:
    """Runs the calibration of one kind and keeps (time, ms) for every run."""

    def __init__(self, kind="kernel"):
        self.kind = kind
        self.nominal_ms = NOMINAL_MS[kind]
        self.every_s = EVERY_S[kind]
        self._work = self._kernel if kind == "kernel" else self._spawn
        if kind == "kernel":
            rng = np.random.default_rng(20250318)  # fixed: the kernel never varies
            self._a = rng.normal(size=(1000, 12, 12))
            self._b = self._a + 12.0 * np.eye(12)
            self._x, self._y = np.empty_like(self._a), np.empty_like(self._a)
            self._v = rng.uniform(0.0, 6.0, 1000)
            self._w, self._u = np.empty_like(self._v), np.empty_like(self._v)
        self.at = []
        self.ms = []

    def _kernel(self):
        # the large arrays are preallocated, so that the kernel does not
        # move the peak RSS the benchmark reports
        a, x, y = self._a, self._x, self._y
        np.copyto(x, a)
        for _ in range(MATMULS):
            np.matmul(a, x, out=y)
            np.multiply(y, 0.1, out=x)
        for i in range(0, SOLVES * CHUNK, CHUNK):
            np.linalg.solve(self._b[i:i + CHUNK], x[i:i + CHUNK])
        np.linalg.cond(self._b[:CHUNK])
        v, w, u = self._v, self._w, self._u
        np.sin(v, out=w)
        np.cos(v, out=u)
        w *= u
        np.sqrt(v, out=u)
        w += u
        s, d = 0.0, {}
        for i in range(15000):
            s += math.sin(i) * 0.5
            d[i & 255] = s

    @staticmethod
    def _spawn():
        subprocess.run([sys.executable, "-c", SPAWN_PROBE], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)

    def sample(self):
        """Run the calibration once and record its time in ms."""
        t0 = perf_counter()
        self._work()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.ms.append(1e3 * (t1 - t0))
        return self.ms[-1]

    def factor(self, t):
        """nominal_ms over the median of the NEAREST calibration times
        around perf_counter time ``t``."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi >= len(self.at) or t - self.at[lo - 1] <= self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return self.nominal_ms / statistics.median(self.ms[lo:hi])

    def summary(self):
        q = statistics.quantiles(self.ms, n=4) if len(self.ms) > 1 else self.ms * 3
        return {"kind": self.kind, "n": len(self.ms), "p25": q[0], "p50": q[1], "p75": q[2]}

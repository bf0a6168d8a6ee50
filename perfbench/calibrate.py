"""A fixed reference computation that gauges how fast the machine runs now.

The virtual machines this benchmark runs on share their cores with other
tenants, and the speed of a core drifts with their load: the same msmae
command has taken anywhere from 4 to 9 s within one hour, with process CPU
time moving alongside wall time, and back-to-back passes of the reference
work below read 65 ms for a few seconds, then 100 ms. Probe times this
reference work, made of the same kind of operations as the program (a
Python loop of small numpy calls: farthest point sampling, neighbour
tables, matrix products, layer norm, softmax and GELU on 128 points and 32
to 128 channels), all through a run, and the benchmark reports the
program's times at the machine speed at which one pass takes REFERENCE_S
seconds of CPU.

The reference work is the benchmark's own and never changes with the
program, so a change to the program moves only the program's side of the
ratio.
"""

import math
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.008  # CPU time of one pass at the machine's nominal speed
STEPS_PER_PASS = 2
PERIOD_S = 0.5


def _inputs():
    rng = np.random.default_rng(20240501)
    pts = rng.standard_normal((128, 3)).astype(np.float32)
    ws = [(rng.standard_normal((c, c)) / np.sqrt(c)).astype(np.float32) for c in (32, 64, 128)]
    return pts, ws


_PTS, _WS = _inputs()


def _block(x, w):
    mu = x.mean(axis=-1, keepdims=True)
    x = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    q = x @ w
    att = q @ x.T / np.sqrt(x.shape[1])
    att = np.exp(att - att.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    h = att @ x @ w
    return x + 0.5 * h * (1.0 + np.tanh(0.7978846 * (h + 0.044715 * h * h * h)))


def _one_step():
    pts = _PTS
    total = 0.0
    for count, k, w in zip((64, 32, 8), (16, 8, 8), _WS):
        # farthest point sampling, one numpy call per pick
        dist = np.full(len(pts), np.inf, dtype=np.float32)
        pick = 0
        picks = []
        for _ in range(count):
            picks.append(pick)
            d = pts - pts[pick]
            dist = np.minimum(dist, (d * d).sum(axis=1))
            pick = int(dist.argmax())
        seeds = pts[picks]
        d = ((seeds[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        nbr = np.argsort(d, axis=1, kind="stable")[:, :k]
        x = np.tile(pts[nbr].reshape(count, -1)[:, :1], (1, w.shape[0]))
        x = x + np.linspace(0.0, 1.0, w.shape[0], dtype=np.float32)
        for _ in range(4):
            x = _block(x, w)
        total += float(x.sum())
        pts = seeds
    return total


class Probe:
    """Times one short reference pass every PERIOD_S seconds, in a thread.

    The machine's speed swings on a scale of seconds, so the probe samples
    it while the program runs rather than between commands. A pass is timed
    in this thread's CPU time, so the time it waits for a CPU that the
    program holds does not count. It takes about 8 ms of one CPU every
    PERIOD_S seconds from the program, the same on every commit.
    """

    def __init__(self):
        self.passes = []  # (monotonic time, CPU seconds of one pass)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            for _ in range(STEPS_PER_PASS):
                _one_step()
            self.passes.append((time.monotonic(), time.thread_time() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowness(self, start=-float("inf"), end=float("inf")):
        """Median pass between two monotonic times, over its nominal REFERENCE_S."""
        inside = [d for t, d in self.passes if start <= t <= end]
        return statistics.median(inside) / REFERENCE_S if inside else math.nan

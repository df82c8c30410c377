"""Host speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, for reasons outside the process (CPU time
rises with wall time when the host is slow). Timings of the same code then
spread more between runs than the bounds allow.

``HostSpeed`` interleaves short bursts of a fixed calibration kernel with the
chain, at most every ``interval_s`` and never inside a training step. The
kernel is a frozen per-example CNN forward and backward in plain numpy and
Python, shaped like the default model (9 tokens, 350-wide input, windows
2-5 of 100 filters, attention and FFN heads, a list of backward closures),
so host slowdowns hit it as they hit the program. It imports nothing from
lfked, so no change to the program changes it.

A timed interval is scaled by ``REF_MS / kernel ms``, the kernel time being
the median of the ``SMOOTH`` bursts nearest in time: the result is seconds
at the host speed at which one kernel call takes ``REF_MS`` (a quiet 2-vCPU
Xeon VM, running the kernel in a tight loop). Burst time inside an interval
is left out of it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

perf = time.perf_counter

REF_MS = 3.2       # kernel ms at reference speed: a quiet 2-vCPU Xeon VM, numpy 2.4
SMOOTH = 31        # bursts whose median gives the host speed at a moment


class _Kernel:
    def __init__(self, seed: int = 20191025):
        rng = np.random.default_rng(seed)
        n, d, f = 9, 350, 100
        self.x = rng.standard_normal((n, d))
        self.convs = [rng.standard_normal((w, d, f)) * 0.05 for w in (2, 3, 4, 5)]
        self.u = rng.standard_normal((4 * f, 200)) * 0.05
        self.v = rng.standard_normal(200) * 0.05
        self.hid = rng.standard_normal((300, 4 * f)) * 0.05
        self.out = rng.standard_normal((2, 300)) * 0.05

    def __call__(self) -> float:
        tape = []
        x = self.x
        n = x.shape[0]
        feats = []
        for w in self.convs:
            k = w.shape[0]
            left = (k - 1) // 2
            padded = np.zeros((n + k - 1, x.shape[1]))
            padded[left:left + n] = x
            h = np.tanh(sum(padded[j:j + n] @ w[j] for j in range(k)))
            feats.append(h)

            def conv_back(g, h=h, w=w, padded=padded, k=k, left=left):
                g = g * (1.0 - h * h)
                gx = np.zeros_like(padded)
                for j in range(k):
                    np.add.at(gx, np.arange(j, j + n), g @ w[j].T)
                return gx[left:left + n]
            tape.append(conv_back)
        feat = np.concatenate(feats, axis=1)
        a = np.tanh(feat @ self.u)
        scores = a @ self.v
        p = np.exp(scores - scores.max())
        p /= p.sum()
        r = p @ feat
        hid = np.tanh(self.hid @ r)
        logits = self.out @ hid
        q = np.exp(logits - logits.max())
        q /= q.sum()

        g_logits = q - np.array([0.0, 1.0])
        g_out = np.outer(g_logits, hid)
        g_hid = (self.out.T @ g_logits) * (1.0 - hid * hid)
        g_w = np.outer(g_hid, r)
        g_r = self.hid.T @ g_hid
        g_feat = np.outer(p, g_r)
        g_p = feat @ g_r
        g_scores = p * (g_p - p @ g_p)
        g_a = np.outer(g_scores, self.v) * (1.0 - a * a)
        g_u = feat.T @ g_a
        g_feat += g_a @ self.u.T
        f = self.convs[0].shape[2]
        total = float(g_out.sum() + g_w.sum() + g_u.sum())
        for i, back in reversed(list(enumerate(tape))):
            total += float(back(g_feat[:, i * f:(i + 1) * f]).sum())
        return total


class HostSpeed:
    """Calibration bursts taken during a run, and intervals scaled by them."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self._kernel = _Kernel()
        self._kernel()                       # warm up before the first burst
        self.starts: list[float] = []        # burst start, end, kernel ms
        self.ends: list[float] = []
        self.kernel_ms: list[float] = []
        self.cpu_s: list[float] = []         # process CPU seconds of each burst
        self._smoothed: list[float] | None = None
        self._last = -1e9

    def maybe(self):
        """A burst, if none was taken in the last interval_s."""
        if perf() - self._last >= self.interval_s:
            self.burst()

    def burst(self):
        cpu0 = time.process_time()
        start = perf()
        self._kernel()
        end = perf()
        self.cpu_s.append(time.process_time() - cpu0)
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_ms.append((end - start) * 1e3)
        self._smoothed = None
        self._last = end

    def _factor_at(self, t: float) -> float:
        if self._smoothed is None:
            half = SMOOTH // 2
            ms = self.kernel_ms
            self._smoothed = [
                REF_MS / statistics.median(ms[max(0, i - half):i + half + 1])
                for i in range(len(ms))]
        i = bisect.bisect_left(self.starts, t)
        if i == len(self.starts) or (i > 0 and t - self.ends[i - 1] < self.starts[i] - t):
            i -= 1
        return self._smoothed[max(i, 0)]

    def bursts_between(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_right(self.ends, b)

    def scale(self, a: float, b: float) -> float:
        """Seconds from a to b at reference speed, bursts left out."""
        if not self.kernel_ms:
            raise RuntimeError("no calibration burst was taken")
        lo, hi = self.bursts_between(a, b)
        total, t = 0.0, a
        for i in range(lo, hi):
            total += (self.starts[i] - t) * self._factor_at((t + self.starts[i]) / 2)
            t = self.ends[i]
        return total + (b - t) * self._factor_at((t + b) / 2)

    def burst_seconds(self, a: float, b: float) -> tuple[float, float]:
        """Wall and CPU seconds of the bursts from a to b."""
        lo, hi = self.bursts_between(a, b)
        return (sum(self.ends[i] - self.starts[i] for i in range(lo, hi)),
                sum(self.cpu_s[lo:hi]))

    def summary(self) -> dict:
        ms = self.kernel_ms
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"ref_ms": REF_MS, "bursts": len(ms), "kernel_ms_quartiles": q,
                "burst_s": sum(e - s for s, e in zip(self.starts, self.ends))}

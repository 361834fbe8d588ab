"""Machine-speed reference for the benchmark's timings.

On a shared machine the same campaign can take twice as long from one
minute to the next. Wall time and CPU time slow down together, so the
cause is contention outside the process, not waiting. Each repetition
(runner.py) reads this fixed kernel a few times just before its first
campaign and just after its last, in the same process. run.py scales
that repetition's times by ``NOMINAL_S / median reading``, or leaves
them as measured when the kernel ran faster than nominal. The kernel
does not use ofdmlink, so a change to the program cannot move it. It
does what a campaign spends its time on: many numpy calls on small
arrays.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.10  # the kernel's time on the 2-core development machine when it was quiet
_ITERATIONS = 500
_READINGS = 5


def readings() -> list[float]:
    """A few back-to-back readings of ``reference_s``."""
    return [reference_s() for _ in range(_READINGS)]


def reference_s() -> float:
    """Seconds the fixed kernel takes now.

    The loop body is a frozen, simplified mirror-pair detection step:
    gather, concatenate, ``einsum`` Gram matrices, an ``eigvalsh`` guard,
    a stacked ``solve``, a slicer and an inverse FFT.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    x = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    kb = np.arange(1, 27)
    km = (-kb) % 64
    k1 = np.array([1.05 - 0.05j, 1.02 + 0.01j])[None, :, None]
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        u = np.exp(1j * 0.01 * i) * np.ones(2)
        hk = u[None, :, None] * h[kb]
        hm = np.conj(u)[None, :, None] * np.conj(h[km])
        top = np.concatenate([k1 * hk, (1 - k1) * hm], axis=2)
        bot = np.concatenate([np.conj(1 - k1) * hk, np.conj(k1) * hm], axis=2)
        w = np.concatenate([top, bot], axis=1)
        g = np.einsum("pij,pik->pjk", w.conj(), w) + 0.01 * np.eye(4)
        r = np.einsum("pij,pi->pj", w.conj(), np.concatenate([x[kb], np.conj(x[km])], axis=1))
        ev = np.abs(np.linalg.eigvalsh(g))
        good = ev.max(axis=-1) / ev.min(axis=-1) < 1e12
        s = np.linalg.solve(g[good], r[good][..., None])[..., 0]
        acc += float(((s.real > 0) + 2 * (np.abs(s.imag) > 0.6)).sum())
        acc += float(np.abs(np.fft.ifft(x, axis=0)).sum())
        acc += sum({k: 2 * k for k in range(10)}.values())
    elapsed = time.perf_counter() - t0
    if not acc > 0:
        raise RuntimeError("reference kernel produced no result")
    return elapsed

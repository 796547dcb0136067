"""Fixed reference job that gauges how fast the machine runs right now.

    python3 perfbench/probe.py      (run.py starts it; one BLAS thread)

Reads one line per job from stdin and answers with the job's wall time in
seconds.  The job does the kinds of work the program spends its time on:
a dense complex matrix product and Hermitian eigenvalues through BLAS and
LAPACK, FFTs with elementwise phases, and Python bytecode.  It never
changes, so its time moves only with the machine's speed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

REPS = 25


def job(m: np.ndarray, h: np.ndarray, x: np.ndarray) -> float:
    start = time.perf_counter()
    for _ in range(REPS):
        m @ m
        np.linalg.eigvalsh(h)
        np.fft.ifft(np.fft.fft(x) * np.exp(-1j * np.abs(x)))
        acc = 0
        for i in range(20_000):
            acc += i * i
    return time.perf_counter() - start


def main() -> int:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h = m + m.conj().T
    x = np.exp(1j * np.linspace(0.0, 50.0, 1 << 16))
    for _ in sys.stdin:
        print(job(m, h, x), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

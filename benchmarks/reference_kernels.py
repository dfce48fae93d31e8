"""Reference kernels that measure how fast the machine is running right now.

On a shared cloud machine the same code can run 60 % slower for seconds to
minutes at a time, with the process's CPU time equal to its wall time and
no reported steal: other tenants slow the CPU itself. Every workload is
therefore timed in alternation with a fixed set of reference kernels that
do the same kinds of LAPACK and Python work as the workloads, and its wall
time is scaled by the set's nominal time over its measured time (see
``run.py``).

The kernels use only numpy, on fixed inputs, and run in a child process
started with the worker's environment as it was before kerrcat was
imported, so no change to kerrcat (its thread settings included) can move
them. This script is that child: for every line it reads on standard input
it runs the kernel set once and writes the set's wall time.
"""

from __future__ import annotations

import sys
import time

import numpy as np

def _hermitian(rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a + np.swapaxes(a, -1, -2).conj()


class Kernels:
    """The reference kernels, each about a third of a set."""

    def __init__(self):
        rng = np.random.default_rng(20251018)
        self.stack = _hermitian(rng, (500, 30, 30))
        self.small = _hermitian(rng, (500, 40, 40)).real
        self.large = _hermitian(rng, (256, 256))

    def batched(self) -> None:
        """Batched eigh, step propagators and their ordered product (propagation)."""
        w, V = np.linalg.eigh(self.stack)
        steps = (V * np.exp(-0.1j * w)[:, None, :]) @ V.conj().transpose(0, 2, 1)
        U = np.eye(30, dtype=complex)
        for step in steps:
            U = step @ U

    def single(self) -> None:
        """One small eigh per Python-level call (labeled spectra)."""
        for H in self.small:
            w, V = np.linalg.eigh(H)
            np.argsort(np.abs(V[0]))[:4]

    def large_serial(self) -> None:
        """Serial eigh and exponential of one 256 x 256 Hamiltonian (two-mode)."""
        for _ in range(5):
            w, V = np.linalg.eigh(self.large)
            (V * np.exp(-0.1j * w)) @ V.conj().T

    def run_set(self) -> None:
        self.batched()
        self.single()
        self.large_serial()


def serve() -> None:
    kernels = Kernels()
    kernels.run_set()  # warm-up: page in the inputs and start the BLAS threads
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernels.run_set()
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

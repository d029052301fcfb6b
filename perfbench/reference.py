"""A fixed reference task that measures how fast the machine runs right now.

The machine the benchmark was sized on (a shared 2-vCPU VM) runs the same
code up to twice as slow for seconds to minutes at a time, and process CPU
time slows down with wall time, so neither tells a slow program from a slow
machine. The benchmark therefore times this task right before and right
after every solve and divides the solve's time by how much slower than
``REF_S`` the task ran (see ``run.py``).

The task is a copy of the package's kind of work, kept here so that no
change to the package can change it: a banded LU factorization and a
six-column forward/backward substitution of a fixed matrix the size of the
``plate-hole`` micro problem (n = 116, half-bandwidth 49), written as the
same Python row loop over small numpy operations.
"""

import os
import struct
import time

import numpy as np
from numpy.lib.stride_tricks import as_strided

N, HALF, COLS = 116, 49, 6
REPEAT = 40  # factorize-and-solve passes per sample
# seconds one sample takes on the machine the benchmark was sized on in its
# fast phase (Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4)
REF_S = 0.14


def _inputs():
    rng = np.random.default_rng(20210105)
    band = rng.random((N, 2 * HALF + 1)) - 0.5
    band[:, HALF] += 2 * HALF + 2  # diagonally dominant: no pivoting needed
    return band, rng.random((N, COLS))


BAND, RHS = _inputs()


def lu_solve(band, rhs):
    band = band.copy()
    s0, s1 = band.strides
    for k in range(N - 1):
        r = min(HALF, N - 1 - k)
        col = as_strided(band[k + 1:, HALF - 1:], shape=(r,), strides=(s0 - s1,))
        col /= band[k, HALF]
        block = as_strided(band[k + 1:, HALF:], shape=(r, r), strides=(s0 - s1, s1))
        block -= np.multiply.outer(col, band[k, HALF + 1:HALF + 1 + r])
    x = rhs.copy()
    for k in range(N - 1):
        r = min(HALF, N - 1 - k)
        col = as_strided(band[k + 1:, HALF - 1:], shape=(r,), strides=(s0 - s1,))
        x[k + 1:k + 1 + r] -= np.multiply.outer(col, x[k])
    for k in range(N - 1, -1, -1):
        x[k] /= band[k, HALF]
        r = min(HALF, k)
        if r:
            col = as_strided(band[k - r:, HALF + r:], shape=(r,), strides=(s0 - s1,))
            x[k - r:k] -= np.multiply.outer(col, x[k])
    return x


def _dense(band):
    a = np.zeros((N, N))
    for i in range(N):
        for j in range(max(0, i - HALF), min(N, i + HALF + 1)):
            a[i, j] = band[i, j - i + HALF]
    return a


def _timed():
    t0 = time.perf_counter()
    for _ in range(REPEAT):
        x = lu_solve(BAND, RHS)
    elapsed = time.perf_counter() - t0
    if not np.allclose(_DENSE @ x, RHS, rtol=0.0, atol=1e-10):
        raise RuntimeError("reference task computed a wrong solution")
    return elapsed


def sample(processes=1):
    """Seconds of one pass of the reference task.

    With ``processes`` > 1 the pass runs in that many processes at once, one
    per worker of the solve it brackets, and the slowest one counts: a solve
    on several workers waits for the slowest of them at every dispatch.
    """
    if processes == 1:
        return _timed()
    read_fd, write_fd = os.pipe()
    pids = []
    try:
        for _ in range(processes - 1):
            pid = os.fork()
            if pid == 0:  # child: report its time, or -1 if it failed, and leave
                try:
                    elapsed = _timed()
                except BaseException:
                    elapsed = -1.0
                os.write(write_fd, struct.pack("d", elapsed))
                os._exit(0)
            pids.append(pid)
        times = [_timed()]
        for _ in pids:
            times.append(struct.unpack("d", os.read(read_fd, 8))[0])
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        os.close(read_fd)
        os.close(write_fd)
    if min(times) < 0:
        raise RuntimeError("reference task failed in a child process")
    return max(times)


_DENSE = _dense(BAND)

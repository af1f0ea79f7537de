"""Fixed reference kernels that calibrate each op's time to the host's speed.

The benchmark runs on a few cores of a shared host whose speed moves by up
to a third within seconds as other tenants come and go. Raw wall times of the
same op list spread by 10-27% between 10-20 s windows, so each op is
reported in reference seconds:

    op_ref_s = op_wall_s * NOMINAL_S / kernel_wall_s

with kernel_wall_s the mean time of the workload's kernel run right before
and right after the op (and, for a long op, within its own duration on either
side), and NOMINAL_S that kernel's typical time on the 2-vCPU
host that defined the benchmark. It is the op's time on a host where the
kernel takes NOMINAL_S; a slowdown that hits the kernel and the op alike
cancels. Raw wall-clock figures are kept in the run metadata.

A kernel tracks the host only as well as it resembles the work, so there are
two, written here and independent of the package so that no change to the
package can move them:

* ``numeric``: a sort-based simplex projection of small numpy vectors, like
  the solver's inner loop (verify-planted, compress-churn). Over 5-20 s
  windows of recorded op streams it cut the spread from 20-27% to 2-3% on
  verify-planted and from 6-21% to 4% on compress-churn.
* ``hashing``: hashing and comparing a large nested tuple of edges, like the
  ``lru_cache`` key work that dominates clique-dense. The numeric kernel
  follows the interpreter's speed but not this memory-bound work (spread
  9-15% raw, 6-10% scaled by it); this one brought it to 3-4%.
"""

from __future__ import annotations

import random
import time

import numpy as np

_VECTORS = [np.random.default_rng(0).random(8) for _ in range(64)]
_RANKS = np.arange(1, 9)


def _numeric() -> float:
    acc = 0.0
    for _ in range(12):
        for v in _VECTORS:
            u = np.sort(v)[::-1]
            c = np.cumsum(u) - 1
            r = _RANKS[u - c / _RANKS > 0][-1]
            acc += float(np.maximum(v - c[r - 1] / r, 0).sum())
    return acc


def _levels(seed: int) -> tuple:
    rng = random.Random(seed)
    return tuple((r, tuple(tuple(sorted(rng.sample(range(1, 21), r))) for _ in range(1500)))
                 for r in (2, 3, 4))


# Two equal but distinct objects, so comparing them walks every edge.
_LEVELS, _LEVELS_COPY = _levels(0), _levels(0)


def _hashing() -> int:
    acc = 0
    for _ in range(40):
        acc += hash(_LEVELS) + (_LEVELS == _LEVELS_COPY)
    return acc


# name -> (kernel, NOMINAL_S)
KERNELS = {
    "numeric": (_numeric, 0.0125),
    "hashing": (_hashing, 0.0090),
}


def kernel_s(name: str) -> float:
    """Wall time of one run of the named kernel."""
    kernel = KERNELS[name][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def nominal_s(name: str) -> float:
    return KERNELS[name][1]

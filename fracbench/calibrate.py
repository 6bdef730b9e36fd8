"""Fixed reference computations that measure how fast the host runs now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by up to 2x over minutes, with CPU time equal to wall time throughout: the
same ``place`` call takes 0.33 s in one minute and 0.75 s a few minutes
later.  :func:`sample` times a kernel, a computation that never touches
fracplace and is the same in every version of it.  :mod:`run` takes
samples between the timed ops and scales every time it reports by
``REFERENCE_S[kernel] / median(samples)``, so a time reads as it would on
a host where the kernel takes ``REFERENCE_S[kernel]``.

Each workload names the kernel whose work is like its own:

- :func:`interpreted`, for the structural code: a quarter of the time each
  on interpreted work over a small dict, lookups scattered over a dict too
  large for the core's caches, scipy assignment solves and BLAS matrix
  products.  The scattered lookups make it slow down with the program
  when other tenants crowd the shared cache.  The large dict adds about
  10 MiB to ``peak_rss_mib``.
- :func:`streaming`, for the numeric code, whose time goes to reading a
  128 MiB factor stack over and over: one pass over a 128 MiB array,
  larger than the shared cache, so it slows down with the program when
  other tenants use the memory bandwidth.  The array is made on first use
  and kept, so it adds a constant 128 MiB to ``peak_rss_mib`` of the
  workloads that use it and no other.
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

# typical medians of the kernels' times on the reference host (2 vCPUs of a
# Sapphire Rapids Xeon under KVM, where single runs' medians of the
# interpreted kernel ranged over 28-47 ms), so that scaled times read close
# to raw ones there; changing one rescales every time scaled by it
REFERENCE_S = {"interpreted": 0.035, "streaming": 0.018}

_rng = np.random.default_rng(20151)
_COST = csr_matrix(_rng.random((48, 48)) + 1.0)
_MAT = _rng.random((192, 192)) / 192
_TABLE = {i: (i * 7919) % 1009 for i in range(4096)}
_LARGE = {int(k): i for i, k in enumerate(_rng.integers(0, 1 << 40, 100_000))}
_PROBES = _rng.permutation(list(_LARGE))[:12_000].tolist()
_WEIGHTS = np.linspace(0.5, 1.5, 256)


def interpreted() -> float:
    acc = 0
    for _ in range(24):
        for key, value in _TABLE.items():
            acc += value ^ (key & 31)
    for key in _PROBES:
        acc += _LARGE[key]
    for _ in range(64):
        min_weight_full_bipartite_matching(_COST)
    x = _MAT
    for _ in range(20):
        x = _MAT @ x
    return acc + float(x[0, 0])


@functools.cache
def _stack() -> np.ndarray:
    return np.full((256, 256, 256), 1.0 / 256)


def streaming() -> float:
    # the contraction fracplace.fraccore.transition_factors makes per step
    return float(np.einsum("m,mil->il", _WEIGHTS, _stack())[0, 0])


KERNELS = {"interpreted": interpreted, "streaming": streaming}


def sample(kernel: str) -> float:
    """Seconds of one call of the named kernel, after a garbage collection."""
    fn = KERNELS[kernel]
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start

"""The factor-stack route that the numeric layer used to take.

Kept as a test oracle: ``factor_stack`` runs the factor recursion on whole
n x n matrices, one einsum over the stack per step, and ``observability_matrix``
contracts the output rows with that stack.  ``simulate``, ``transition_factors``
and the sensor-row recursion of ``is_observable_numeric`` are checked
against these.
"""

from __future__ import annotations

import numpy as np

from fracplace import FracSystem, gl_tails


def factor_stack(system: FracSystem) -> np.ndarray:
    """Transition factors T_0..T_K as a (K+1, n, n) stack.

    T_0 = A and T_k = A T_{k-1} + sum_{j=1}^{k-1} D_j T_{k-1-j}, where the
    D_j are the diagonal tail matrices from :func:`gl_tails`.
    """
    n, K = system.n, system.horizon
    tails = gl_tails(system).table
    stack = np.empty((K + 1, n, n))
    stack[0] = system.A
    for k in range(1, K + 1):
        g = system.A @ stack[k - 1]
        if k >= 2:
            # memory terms j = 1..k-1 scale rows of earlier factors
            rev = stack[k - 2 :: -1]  # T_{k-2}, ..., T_0
            g += np.einsum("im,mil->il", tails[:, : k - 1], rev[: k - 1])
        stack[k] = g
    return stack


def observability_matrix(C, stack: np.ndarray) -> np.ndarray:
    """Vertical stack of C T_0, C T_1, ..., C T_K.

    ``C`` may be a numeric (p, n) array or a boolean pattern object with a
    ``to_array`` method.  A stack with horizon K yields K+1 stacked blocks;
    the classical finite-time observability test at time K+1 uses exactly
    these blocks.
    """
    if hasattr(C, "to_array"):
        C = C.to_array()
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = stack.shape[1]
    if C.shape[1] != n:
        raise ValueError(f"output matrix has {C.shape[1]} columns, state dimension is {n}")
    blocks = np.einsum("pi,kij->kpj", C, stack)
    return blocks.reshape(-1, n)

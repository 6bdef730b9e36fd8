"""Line-oriented text format for system descriptions.

A system file is versioned and 1-based (indices are converted to the
package's 0-based convention on load)::

    fracsys 1
    n 3
    alpha 0.5            # one value broadcasts to all states
    k 3                  # optional horizon, defaults to n
    matrix sparse        # one of: dense | sparse | pattern
    2 1 1.0              # sparse: row col value
    3 2 1.0
    end

``dense`` expects n rows of n whitespace-separated numbers, ``pattern``
expects ``row col`` pairs and carries no numeric values.  Blank lines and
``#`` comments are ignored.  The ``n``, ``alpha`` and ``k`` lines may each
appear once; ``n`` and ``k`` take exactly one value.  Exactly one matrix
block must be present, closed by ``end``; matrix values must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .structure import Pattern, _check_zero_tol, pattern_of

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SystemFile", "parse_system_file", "load_system_file"]

FORMAT_NAME = "fracsys"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class SystemFile:
    """Parsed system description.

    The file's numbers are held as Python floats: ``orders`` has one
    fractional order per state, and ``values`` the n rows of n matrix
    values, or None for pattern-only files.  ``alpha`` and ``matrix``
    give them as new numpy arrays on each read.  ``horizon`` is None when
    the file leaves it to the default (the state dimension).
    """

    n: int
    orders: tuple
    kind: str  # "dense" | "sparse" | "pattern"
    values: tuple | None
    pattern: Pattern | None
    horizon: int | None

    @property
    def numeric(self) -> bool:
        return self.values is not None

    @property
    def alpha(self) -> np.ndarray:
        import numpy as np

        return np.array(self.orders)

    @property
    def matrix(self) -> np.ndarray | None:
        if self.values is None:
            return None
        import numpy as np

        return np.array(self.values)

    def pattern_at(self, zero_tol: float = 1e-12) -> Pattern:
        """The structural pattern, thresholding numeric entries if needed.

        A numeric entry is present iff its magnitude exceeds ``zero_tol`` (checked on every file).
        """
        _check_zero_tol(zero_tol)
        if self.pattern is not None:
            return self.pattern
        return pattern_of(self.values, zero_tol)


def _fail(lineno: int, msg: str):
    raise ValueError(f"line {lineno}: {msg}")


def parse_system_file(text: str) -> SystemFile:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines:
        raise ValueError("empty system file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_NAME:
        _fail(lineno, f"expected header '{FORMAT_NAME} {FORMAT_VERSION}'")
    if parts[1] != str(FORMAT_VERSION):
        _fail(lineno, f"unsupported format version {parts[1]}")

    n = None
    alpha_values = None
    horizon = None
    kind = None
    matrix_rows: list[tuple[int, str]] = []

    seen_keys = set()
    i = 1
    while i < len(lines):
        lineno, body = lines[i]
        toks = body.split()
        key = toks[0].lower()
        if key in ("n", "alpha", "k"):
            if key in seen_keys:
                _fail(lineno, f"repeated '{key}' line")
            seen_keys.add(key)
        if key == "n":
            try:
                (n,) = map(int, toks[1:])
            except ValueError:
                _fail(lineno, "expected 'n <positive integer>'")
            if n <= 0:
                _fail(lineno, "state dimension must be positive")
        elif key == "alpha":
            try:
                alpha_values = [float(tok) for tok in toks[1:]]
            except ValueError:
                _fail(lineno, "alpha values must be numbers")
            if not alpha_values:
                _fail(lineno, "alpha needs at least one value")
        elif key == "k":
            try:
                (horizon,) = map(int, toks[1:])
            except ValueError:
                _fail(lineno, "expected 'k <non-negative integer>'")
            if horizon < 0:
                _fail(lineno, "horizon must be >= 0")
        elif key == "matrix":
            if len(toks) != 2 or toks[1] not in ("dense", "sparse", "pattern"):
                _fail(lineno, "expected 'matrix dense|sparse|pattern'")
            if kind is not None:
                _fail(lineno, "only one matrix block is allowed")
            kind = toks[1]
            i += 1
            while i < len(lines) and lines[i][1].lower() != "end":
                matrix_rows.append(lines[i])
                i += 1
            if i == len(lines):
                _fail(lineno, "matrix block has no closing 'end' line")
        else:
            _fail(lineno, f"unknown keyword '{key}'")
        i += 1

    if n is None:
        raise ValueError("missing 'n' line")
    if alpha_values is None:
        raise ValueError("missing 'alpha' line")
    if kind is None:
        raise ValueError("missing matrix block")

    if len(alpha_values) == 1:
        alpha_values *= n
    elif len(alpha_values) != n:
        raise ValueError(
            f"alpha has {len(alpha_values)} values, expected 1 or {n}"
        )
    if not all(math.isfinite(a) and a > 0 for a in alpha_values):
        raise ValueError("every alpha must be finite and > 0")

    values = None
    pattern = None
    if kind == "dense":
        if len(matrix_rows) != n:
            raise ValueError(
                f"dense matrix needs exactly {n} rows, got {len(matrix_rows)}"
            )
        rows = []
        for lineno, body in matrix_rows:
            try:
                row = [float(tok) for tok in body.split()]
            except ValueError:
                _fail(lineno, "dense rows must hold numbers")
            if len(row) != n:
                _fail(lineno, f"dense row needs {n} entries, got {len(row)}")
            if not all(map(math.isfinite, row)):
                _fail(lineno, "matrix values must be finite")
            rows.append(tuple(row))
        values = tuple(rows)
    elif kind == "sparse":
        rows = [[0.0] * n for _ in range(n)]
        for lineno, body in matrix_rows:
            toks = body.split()
            if len(toks) != 3:
                _fail(lineno, "sparse entries are 'row col value'")
            try:
                r, c, v = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                _fail(lineno, "sparse entries are 'row col value'")
            if not (1 <= r <= n and 1 <= c <= n):
                _fail(lineno, f"index ({r}, {c}) outside 1..{n}")
            if not math.isfinite(v):
                _fail(lineno, "matrix values must be finite")
            rows[r - 1][c - 1] = v
        values = tuple(map(tuple, rows))
    else:  # pattern
        masks = [0] * n
        for lineno, body in matrix_rows:
            toks = body.split()
            if len(toks) != 2:
                _fail(lineno, "pattern entries are 'row col'")
            try:
                r, c = int(toks[0]), int(toks[1])
            except ValueError:
                _fail(lineno, "pattern entries are 'row col'")
            if not (1 <= r <= n and 1 <= c <= n):
                _fail(lineno, f"index ({r}, {c}) outside 1..{n}")
            masks[r - 1] |= 1 << (c - 1)
        pattern = Pattern.from_masks(n, n, masks)

    return SystemFile(
        n=n,
        orders=tuple(alpha_values),
        kind=kind,
        values=values,
        pattern=pattern,
        horizon=horizon,
    )


def load_system_file(path) -> SystemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_file(fh.read())

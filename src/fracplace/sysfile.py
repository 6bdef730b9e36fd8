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
expects ``row col`` pairs and carries no numeric values.  A ``sparse`` or
``pattern`` entry may appear only once.  Blank lines and ``#`` comments
are ignored.  The ``n``, ``alpha`` and ``k`` lines may each appear once;
``n`` and ``k`` each hold one integer, at least 1 for ``n`` and at least 0
for ``k``.  Exactly one matrix block must be present, closed by ``end``;
matrix values must be finite.  Numbers are ASCII decimals: ``1_0`` or a
non-ASCII digit is refused on the line that holds it.  The words ``n``,
``alpha``, ``k``, ``matrix`` and ``end`` ignore case (``N 3``, ``END``);
the header ``fracsys`` and the matrix kind do not.  ``load_system_file``
reads UTF-8 and skips a leading byte-order mark.

A ``sparse`` or ``pattern`` block whose lines are single-space separated
and whose indices are spelled ``str(i)`` is read in one pass; any other
block is read line by line, which also names the line at fault.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .structure import _ZERO_TOL, Pattern, _at_least, _check_zero_tol, _Value, pattern_of

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SystemFile", "parse_system_file", "load_system_file"]

FORMAT_NAME = "fracsys"
FORMAT_VERSION = 1


class SystemFile(_Value):
    """Parsed system description.

    The file's numbers are held as Python floats: ``orders`` has one
    fractional order per state, and ``values`` the n rows of n matrix
    values, or None for pattern-only files.  ``alpha`` and ``matrix``
    give them as new numpy arrays on each read.  ``horizon`` is None when
    the file leaves it to the default (the state dimension).
    """

    _fields = ("n", "orders", "kind", "values", "pattern", "horizon")
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

    def pattern_at(self, zero_tol: float = _ZERO_TOL) -> Pattern:
        """The structural pattern, thresholding numeric entries if needed.

        A numeric entry is present iff its magnitude exceeds ``zero_tol`` (checked on every file).
        """
        _check_zero_tol(zero_tol)
        if self.pattern is not None:
            return self.pattern
        return pattern_of(self.values, zero_tol)


def _fail(lineno: int, msg: str):
    raise ValueError(f"line {lineno}: {msg}")


# the bound and the messages of each single-integer line
_INTEGER_LINES = {
    "n": (1, "expected 'n <positive integer>'", "state dimension must be positive"),
    "k": (0, "expected 'k <non-negative integer>'", "horizon must be >= 0"),
}


def _check_spelling(body: str, toks: list) -> None:
    """Raise ValueError if a number of ``toks``, the tokens of ``body``, holds '_' or a non-ASCII character.

    ``int`` and ``float`` take '_' between digits and any Unicode decimal
    digit; the format takes neither.  A non-ASCII space between the
    numbers is in no token and is allowed.
    """
    if "_" in body or not (body.isascii() or "".join(toks).isascii()):
        raise ValueError("numbers are plain ASCII decimals")


def _integer_line(lineno: int, key: str, body: str, args: list) -> int:
    least, form, bound = _INTEGER_LINES[key]
    try:
        _check_spelling(body, args)
        (value,) = map(int, args)
    except ValueError:
        _fail(lineno, form)
    return _at_least(value, least, f"line {lineno}: {bound}")


def _bulk_entries(n: int, numeric: bool, block: list):
    """``(masks, rows)`` of a well-formed entry block, or None.

    ``masks`` holds each row's entries as a bit mask, and ``rows`` the n
    rows of n values of a ``sparse`` block (None for ``pattern``).  The
    block's lines are read in one pass, as one string of tokens: every
    line must be its 2 (``pattern``) or 3 (``sparse``) tokens joined by
    single spaces, every index the canonical spelling ``str(i)`` of a
    state, every value a finite number, and no entry may repeat.  Any
    other block gives None, and ``_line_entries`` reads it or names the
    line at fault.
    """
    width = 3 + numeric  # the tokens of a line, then the line break
    text = " \n ".join([body for _, body in block])
    toks = text.split(" ")
    # once every index and value below is read, no line break is among
    # them, so the len(block) - 1 breaks sit at every width-th token
    if len(toks) != width * len(block) - 1:
        return None
    row_of = {str(i): i - 1 for i in range(1, n + 1)}  # canonical spelling -> 0-based state
    bit_of = {s: 1 << i for s, i in row_of.items()}
    try:
        _check_spelling(text, toks)
        rs = list(map(row_of.__getitem__, toks[::width]))
        bits = list(map(bit_of.__getitem__, toks[1::width]))
        vs = list(map(float, toks[2::width])) if numeric else None
    except (KeyError, ValueError):
        return None
    masks = [0] * n
    for r, b in zip(rs, bits):
        masks[r] |= b
    if sum(map(int.bit_count, masks)) != len(block):  # an entry given twice
        return None
    if not numeric:
        return masks, None
    if not all(map(math.isfinite, vs)):
        return None
    rows = [[0.0] * n for _ in range(n)]
    for r, c, v in zip(rs, map(row_of.__getitem__, toks[1::width]), vs):
        rows[r][c] = v
    return masks, rows


def _line_entries(n: int, numeric: bool, block: list):
    """``_bulk_entries``' result, read line by line; raises for the first line at fault."""
    form = "sparse entries are 'row col value'" if numeric else "pattern entries are 'row col'"
    rows = [[0.0] * n for _ in range(n)] if numeric else None
    masks = [0] * n
    for lineno, body in block:
        toks = body.split()
        if len(toks) != 2 + numeric:
            _fail(lineno, form)
        try:
            _check_spelling(body, toks)
            r, c = int(toks[0]), int(toks[1])
            v = float(toks[2]) if numeric else None
        except ValueError:
            _fail(lineno, form)
        if not (1 <= r <= n and 1 <= c <= n):
            _fail(lineno, f"index ({r}, {c}) outside 1..{n}")
        bit = 1 << (c - 1)
        if masks[r - 1] & bit:
            _fail(lineno, f"entry ({r}, {c}) given twice")
        masks[r - 1] |= bit
        if numeric:
            if not math.isfinite(v):
                _fail(lineno, "matrix values must be finite")
            rows[r - 1][c - 1] = v
    return masks, rows


def parse_system_file(text: str) -> SystemFile:
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    lines = [(lineno, body) for lineno, body in enumerate(map(str.strip, raws), start=1) if body]
    if not lines:
        raise ValueError("empty system file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_NAME:
        _fail(lineno, f"expected header '{FORMAT_NAME} {FORMAT_VERSION}'")
    if parts[1] != str(FORMAT_VERSION):
        _fail(lineno, f"unsupported format version {parts[1]}")

    header_values = {}  # the 'n', 'alpha' and 'k' lines, each read once
    kind = None
    i = 1
    while i < len(lines):
        lineno, body = lines[i]
        key, *args = body.split()
        key = key.lower()
        if key in ("n", "alpha", "k"):
            if key in header_values:
                _fail(lineno, f"repeated '{key}' line")
            if key == "alpha":
                try:
                    _check_spelling(body, args)
                    header_values[key] = [float(tok) for tok in args]
                except ValueError:
                    _fail(lineno, "alpha values must be numbers")
                if not args:
                    _fail(lineno, "alpha needs at least one value")
            else:
                header_values[key] = _integer_line(lineno, key, body, args)
        elif key == "matrix":
            if len(args) != 1 or args[0] not in ("dense", "sparse", "pattern"):
                _fail(lineno, "expected 'matrix dense|sparse|pattern'")
            if kind is not None:
                _fail(lineno, "only one matrix block is allowed")
            kind = args[0]
            start = i + 1
            # only a 3-character body can be 'end' in any case
            i = next(
                (j for j in range(start, len(lines)) if len(lines[j][1]) == 3 and lines[j][1].lower() == "end"),
                None,
            )
            if i is None:
                _fail(lineno, "matrix block has no closing 'end' line")
            matrix_rows = lines[start:i]
        else:
            _fail(lineno, f"unknown keyword '{key}'")
        i += 1

    n = header_values.get("n")
    alpha_values = header_values.get("alpha")
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
            toks = body.split()
            try:
                _check_spelling(body, toks)
                row = tuple(map(float, toks))
            except ValueError:
                _fail(lineno, "dense rows must hold numbers")
            if len(row) != n:
                _fail(lineno, f"dense row needs {n} entries, got {len(row)}")
            if not all(map(math.isfinite, row)):
                _fail(lineno, "matrix values must be finite")
            rows.append(row)
        values = tuple(rows)
    else:  # sparse or pattern: one 'row col value' or 'row col' entry per line
        numeric = kind == "sparse"
        masks, rows = _bulk_entries(n, numeric, matrix_rows) or _line_entries(n, numeric, matrix_rows)
        if numeric:
            values = tuple(map(tuple, rows))
        else:
            pattern = Pattern.from_masks(n, n, masks)

    return SystemFile(
        n=n,
        orders=tuple(alpha_values),
        kind=kind,
        values=values,
        pattern=pattern,
        horizon=header_values.get("k"),
    )


def load_system_file(path) -> SystemFile:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_system_file(fh.read())

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
are ignored.  A line ends at a line feed, a carriage return or the two
together, and at no other character ``str.splitlines`` breaks at.  The
``n``, ``alpha`` and ``k`` lines may each appear once; ``n`` and ``k``
each hold one integer, from 1 to ``sys.maxsize`` (the most states a list
can index) for ``n`` and at least 0 for ``k``.
Exactly one matrix block must be present, closed by ``end``; matrix
values must be finite.  The words ``n``, ``alpha``, ``k``, ``matrix`` and
``end`` ignore case (``N 3``, ``END``); the header ``fracsys`` and the
matrix kind do not.  ``load_system_file`` and the initial-state reader
read UTF-8 and skip a leading byte-order mark.

Every number the package reads from outside, in a system file, an
initial-state file or a command-line flag, goes through ``_numbers``:
numbers are ASCII decimals, and ``1_0`` or a non-ASCII digit is refused
with the message of the line or flag that holds it.

A ``sparse`` or ``pattern`` block whose lines are single-space separated
and whose indices are spelled ``str(i)`` is read in one pass; any other
block is read line by line, which also names the line at fault.  Either
reader returns the block's entries as one bit mask per row and, for
``sparse``, a list of 0-based ``(row, col, value)`` triples;
``parse_system_file`` builds the n x n grid of ``values`` from that list,
in one place.
"""

from __future__ import annotations

import math
import sys

from . import _EXPORTS
from .structure import _ZERO_TOL, Pattern, _at_least, _check_zero_tol, _Value, pattern_of

__all__ = list(_EXPORTS["sysfile"])

FORMAT_NAME = "fracsys"
FORMAT_VERSION = 1


class SystemFile(_Value):
    """Parsed system description.

    The file's numbers are held as Python floats: ``orders`` has one
    fractional order per state, and ``values`` the n rows of n matrix
    values, or None for pattern-only files.  ``horizon`` is None when
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


def _numbers(toks, kind) -> tuple:
    """The number tokens ``toks``, each converted by ``kind`` (``int`` or ``float``).

    The package's one number reader: every number taken from a file or a
    flag comes through it.  ``int`` and ``float`` take '_' between digits
    and any Unicode decimal digit; a token holding '_' or a non-ASCII
    character raises ValueError here instead.
    """
    text = "".join(toks)
    if "_" in text or not text.isascii():
        raise ValueError("numbers are plain ASCII decimals")
    return tuple(map(kind, toks))


def _integer_line(lineno: int, key: str, args: list) -> int:
    least, form, bound = _INTEGER_LINES[key]
    try:
        (value,) = _numbers(args, int)
    except ValueError:
        _fail(lineno, form)
    if key == "n" and value > sys.maxsize:
        _fail(lineno, f"state dimension {value} is above {sys.maxsize}, the most a list can index")
    return _at_least(value, least, f"line {lineno}: {bound}")


def _bulk_entries(n: int, numeric: bool, block: list):
    """``(masks, entries)`` of a well-formed entry block, or None.

    ``masks`` holds each row's entries as a bit mask, and ``entries`` the
    0-based ``(row, col, value)`` triples of a ``sparse`` block (None for
    ``pattern``).  The block's lines are read in one pass, as one string of
    tokens: every line must be its 2 (``pattern``) or 3 (``sparse``) tokens
    joined by single spaces, every index the canonical spelling ``str(i)``
    of a state, every value a finite number, and no entry may repeat.  Any
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
    # canonical spelling -> 0-based state, for the rows and the columns alike
    state_of = {str(i): i - 1 for i in range(1, n + 1)}.__getitem__
    try:
        rs = list(map(state_of, toks[::width]))
        cs = list(map(state_of, toks[1::width]))
        vs = _numbers(toks[2::width], float) if numeric else None
    except (KeyError, ValueError):
        return None
    masks = [0] * n
    for r, c in zip(rs, cs):
        masks[r] |= 1 << c
    if sum(map(int.bit_count, masks)) != len(block):  # an entry given twice
        return None
    if numeric and not all(map(math.isfinite, vs)):
        return None
    return masks, list(zip(rs, cs, vs)) if numeric else None


def _line_entries(n: int, numeric: bool, block: list):
    """``_bulk_entries``' result, read line by line; raises for the first line at fault."""
    form = "sparse entries are 'row col value'" if numeric else "pattern entries are 'row col'"
    entries = [] if numeric else None
    masks = [0] * n
    for lineno, body in block:
        toks = body.split()
        if len(toks) != 2 + numeric:
            _fail(lineno, form)
        try:
            r, c = _numbers(toks[:2], int)
            v = _numbers(toks[2:], float)  # () for a pattern entry
        except ValueError:
            _fail(lineno, form)
        if not (1 <= r <= n and 1 <= c <= n):
            _fail(lineno, f"index ({r}, {c}) outside 1..{n}")
        bit = 1 << (c - 1)
        if masks[r - 1] & bit:
            _fail(lineno, f"entry ({r}, {c}) given twice")
        masks[r - 1] |= bit
        if numeric:
            if not math.isfinite(v[0]):
                _fail(lineno, "matrix values must be finite")
            entries.append((r - 1, c - 1, v[0]))
    return masks, entries


def parse_system_file(text: str) -> SystemFile:
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029;
    # load_system_file's text holds no \r, as text mode reads universal newlines
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raws = text.split("\n")
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
                    header_values[key] = _numbers(args, float)
                except ValueError:
                    _fail(lineno, "alpha values must be numbers")
                if not args:
                    _fail(lineno, "alpha needs at least one value")
            else:
                header_values[key] = _integer_line(lineno, key, args)
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
            try:
                row = _numbers(body.split(), float)
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
        masks, entries = _bulk_entries(n, numeric, matrix_rows) or _line_entries(n, numeric, matrix_rows)
        if numeric:
            rows = [[0.0] * n for _ in range(n)]
            for r, c, v in entries:
                rows[r][c] = v
            values = tuple(map(tuple, rows))
        else:
            pattern = Pattern.from_masks(n, n, masks)

    return SystemFile(
        n=n,
        orders=alpha_values,
        kind=kind,
        values=values,
        pattern=pattern,
        horizon=header_values.get("k"),
    )


def _read(path) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def load_system_file(path) -> SystemFile:
    return parse_system_file(_read(path))


def _load_initial_state(path) -> tuple:
    """The whitespace-separated numbers of an initial-state file, as floats."""
    toks = _read(path).split()
    try:
        return _numbers(toks, float)
    except ValueError:
        raise ValueError("initial state values must be numbers") from None

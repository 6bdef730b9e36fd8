import tracemalloc

import numpy as np
import pytest

from fracplace import parse_system_file, sysfile

DENSE = """\
fracsys 1
n 2
alpha 0.5 1.5
k 4
matrix dense
0 1.5
0 0
end
"""

SPARSE = """\
fracsys 1
# three-state chain
n 3
alpha 0.97
matrix sparse
2 1 1.0
3 2 2.0
end
"""

PATTERN = """\
fracsys 1
n 3
alpha 1.1
matrix pattern
2 1
3 2
end
"""

# the characters besides \n and \r at which str.splitlines ends a line
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestParsing:
    def test_dense(self):
        f = parse_system_file(DENSE)
        assert f.n == 2
        assert f.kind == "dense"
        assert f.values == ((0.0, 1.5), (0.0, 0.0))
        assert f.orders == (0.5, 1.5)
        assert f.horizon == 4

    def test_sparse_with_broadcast_alpha_and_comment(self):
        f = parse_system_file(SPARSE)
        assert f.n == 3
        assert f.values == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
        assert f.orders == (0.97,) * 3
        assert f.horizon is None

    def test_pattern_is_one_based(self):
        f = parse_system_file(PATTERN)
        assert f.values is None
        assert f.pattern.entries == frozenset({(1, 0), (2, 1)})

    def test_integer_lines_accept_their_bounds(self):
        f = parse_system_file("fracsys 1\nn 1\nk 0\nalpha 1\nmatrix dense\n0\nend\n")
        assert (f.n, f.horizon, f.values) == (1, 0, ((0.0,),))

    def test_non_ascii_space_between_numbers_is_kept(self):
        # only the numbers must be ASCII; str.split() takes any Unicode space
        f = parse_system_file(DENSE.replace("0 1.5", "0\u00a01.5").replace("alpha 0.5 1.5", "alpha 0.5\u30001.5"))
        assert f == parse_system_file(DENSE)

    @pytest.mark.parametrize("brk", SPLITLINES_BREAKS)
    def test_only_newlines_end_a_line(self, brk):
        # inside a comment the character is ignored; between numbers it is a space
        text = DENSE.replace("k 4", f"k 4 # a{brk}b").replace("0 1.5", f"0{brk}1.5")
        assert parse_system_file(text) == parse_system_file(DENSE)
        text = PATTERN.replace("2 1", f"2{brk}1 # x{brk}y")
        assert parse_system_file(text) == parse_system_file(PATTERN)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, end):
        for text in (DENSE, SPARSE, PATTERN):
            assert parse_system_file(text.replace("\n", end)) == parse_system_file(text)

    def test_pattern_at_thresholds_numeric(self):
        f = parse_system_file(DENSE)
        assert f.pattern_at().entries == frozenset({(0, 1)})


# every reader error, keyed by an input that raises it; "line L:" names the offending line
MALFORMED = {
    "": "empty system file",
    "something 1\nn 2\n": "line 1: expected header 'fracsys 1'",
    "fracsys 2\nn 2\nalpha 1\nmatrix pattern\nend\n": "line 1: unsupported format version 2",
    "fracsys 1\nalpha 1\nmatrix pattern\nend\n": "missing 'n' line",
    "fracsys 1\nn 2\nmatrix pattern\nend\n": "missing 'alpha' line",
    "fracsys 1\nn 2\nalpha 1\n": "missing matrix block",
    "fracsys 1\nn 2\nalpha 1 2 3\nmatrix pattern\nend\n": "alpha has 3 values, expected 1 or 2",
    "fracsys 1\nn 2\nalpha 0\nmatrix pattern\nend\n": "every alpha must be finite and > 0",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\nend\n": "dense matrix needs exactly 2 rows, got 1",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\n3 4 5\nend\n": "line 6: dense row needs 2 entries, got 3",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n3 1 1.0\nend\n": "line 5: index (3, 1) outside 1..2",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 1\nend\n": "line 5: sparse entries are 'row col value'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n0 1\nend\n": "line 5: index (0, 1) outside 1..2",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nx y\nend\n": "line 5: pattern entries are 'row col'",
    "fracsys 1\nn 2\nalpha 1\nwhat 3\nmatrix pattern\nend\n": "line 4: unknown keyword 'what'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nend\nmatrix pattern\nend\n": "line 6: only one matrix block is allowed",
    "fracsys 1\nn -2\nalpha 1\nmatrix pattern\nend\n": "line 2: state dimension must be positive",
    "fracsys 1\nn 2\nalpha 1\nk -1\nmatrix pattern\nend\n": "line 4: horizon must be >= 0",
    "fracsys 1\nn 3\nalpha 1\nn 2\nmatrix pattern\nend\n": "line 4: repeated 'n' line",
    "fracsys 1\nn 2\nalpha 1\nalpha 2\nmatrix pattern\nend\n": "line 4: repeated 'alpha' line",
    "fracsys 1\nn 2\nalpha 1\nk 1\nk 2\nmatrix pattern\nend\n": "line 5: repeated 'k' line",
    "fracsys 1\nn 3 7\nalpha 1\nmatrix pattern\nend\n": "line 2: expected 'n <positive integer>'",
    "fracsys 1\nn 2\nalpha 1\nk 2 junk\nmatrix pattern\nend\n": "line 4: expected 'k <non-negative integer>'",
    # the messages no input above reaches
    "fracsys\nn 2\n": "line 1: expected header 'fracsys 1'",
    "# comment\n\nfracsys 1 extra\n": "line 3: expected header 'fracsys 1'",
    "fracsys 1\nn 0\nalpha 1\nmatrix pattern\nend\n": "line 2: state dimension must be positive",
    "fracsys 1\nn\nalpha 1\nmatrix pattern\nend\n": "line 2: expected 'n <positive integer>'",
    "fracsys 1\nn 2.0\nalpha 1\nmatrix pattern\nend\n": "line 2: expected 'n <positive integer>'",
    "fracsys 1\nn 2\nalpha 1\nk\nmatrix pattern\nend\n": "line 4: expected 'k <non-negative integer>'",
    "fracsys 1\nn 2\nalpha 1\nk x\nmatrix pattern\nend\n": "line 4: expected 'k <non-negative integer>'",
    "fracsys 1\nn 2\nalpha\nmatrix pattern\nend\n": "line 3: alpha needs at least one value",
    "fracsys 1\nn 2\nalpha 0.5 x\nmatrix pattern\nend\n": "line 3: alpha values must be numbers",
    "fracsys 1\nn 2\nalpha 0.5 nan\nmatrix pattern\nend\n": "every alpha must be finite and > 0",
    "fracsys 1\nn 2\nalpha inf\nmatrix pattern\nend\n": "every alpha must be finite and > 0",
    "fracsys 1\nn 2\nalpha 1\nmatrix\nend\n": "line 4: expected 'matrix dense|sparse|pattern'",
    "fracsys 1\nn 2\nalpha 1\nmatrix banded\nend\n": "line 4: expected 'matrix dense|sparse|pattern'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern x\nend\n": "line 4: expected 'matrix dense|sparse|pattern'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n2 1\n": "line 4: matrix block has no closing 'end' line",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 x\n0 0\nend\n": "line 5: dense rows must hold numbers",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\n3\nend\n": "line 6: dense row needs 2 entries, got 1",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\n3 4\n5 6\nend\n": "dense matrix needs exactly 2 rows, got 3",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n0 1\n-inf 0\nend\n": "line 6: matrix values must be finite",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 2 nan\nend\n": "line 5: matrix values must be finite",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 2 x\nend\n": "line 5: sparse entries are 'row col value'",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 2 1.0 4\nend\n": "line 5: sparse entries are 'row col value'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n1 2 1.0\nend\n": "line 5: pattern entries are 'row col'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n1.0 2\nend\n": "line 5: pattern entries are 'row col'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n1 3\nend\n": "line 5: index (1, 3) outside 1..2",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n1 2\n1 2\nend\n": "line 6: entry (1, 2) given twice",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nend\nend\n": "line 6: unknown keyword 'end'",
    # a keyword error after the block is reported before any error inside it
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nx y\nend\nwhat\n": "line 7: unknown keyword 'what'",
    # keywords and 'end' are read without regard to case; the header is not
    "fracsys 1\nN 2\nALPHA 1\nn 2\nmatrix pattern\nEND\n": "line 4: repeated 'n' line",
    "FRACSYS 1\nn 2\n": "line 1: expected header 'fracsys 1'",
    "fracsys 1\nn 2\nalpha 1\nMATRIX Pattern\nend\n": "line 4: expected 'matrix dense|sparse|pattern'",
    # numbers are ASCII decimals: int() and float() would also take '_' and any Unicode digit
    "fracsys 1\nn 1_0\nalpha 1\nmatrix pattern\nend\n": "line 2: expected 'n <positive integer>'",
    "fracsys 1\nn ٣\nalpha 1\nmatrix pattern\nend\n": "line 2: expected 'n <positive integer>'",
    "fracsys 1\nn 2\nalpha 0_5\nmatrix pattern\nend\n": "line 3: alpha values must be numbers",
    "fracsys 1\nn 2\nalpha 0.٥\nmatrix pattern\nend\n": "line 3: alpha values must be numbers",
    "fracsys 1\nn 2\nalpha 1\nk ٣\nmatrix pattern\nend\n": "line 4: expected 'k <non-negative integer>'",
    "fracsys 1\nn 2\nalpha 1\nk 1_0\nmatrix pattern\nend\n": "line 4: expected 'k <non-negative integer>'",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n0 1_0\n0 0\nend\n": "line 5: dense rows must hold numbers",
    "fracsys 1\nn 2\nalpha 1\nmatrix dense\n0 0\n１ 0\nend\n": "line 6: dense rows must hold numbers",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 2 1_0\nend\n": "line 5: sparse entries are 'row col value'",
    "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 ٢ 1.0\nend\n": "line 5: sparse entries are 'row col value'",
    "fracsys 1\nn 12\nalpha 1\nmatrix pattern\n1_1 2\nend\n": "line 5: pattern entries are 'row col'",
    "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n1 2\n٢ 1\nend\n": "line 6: pattern entries are 'row col'",
    # a line ends at \n, \r\n or \r only: the other breaks str.splitlines takes stay inside their line
    **{
        f"fracsys 1\nn 2 # a{brk}b\nalpha 1\nwhat\n": "line 4: unknown keyword 'what'"
        for brk in SPLITLINES_BREAKS
    },
    "fracsys 1\r\nn 2\ralpha 1\r\rwhat\n": "line 5: unknown keyword 'what'",
}


class TestParseErrors:
    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(ValueError) as info:
            parse_system_file(text)
        assert str(info.value) == MALFORMED[text]

    @pytest.mark.parametrize(
        "text, line",
        [
            (DENSE.replace("0 1.5", "0 nan"), 6),
            (SPARSE.replace("3 2 2.0", "3 2 inf"), 7),
            (SPARSE.replace("2 1 1.0", "2 1 -inf"), 6),
        ],
        ids=["dense-nan", "sparse-inf", "sparse-minus-inf"],
    )
    def test_non_finite_matrix_value_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: matrix values must be finite"):
            parse_system_file(text)

    def test_matrix_block_without_end_names_the_matrix_line(self):
        # the keyword after the block used to be read as a bad matrix row
        text = "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n2 1\nk 5\n"
        with pytest.raises(ValueError, match="^line 4: matrix block has no closing 'end'"):
            parse_system_file(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fracsys 1\nn 3\nalpha 1\nn 2\nmatrix pattern\nend\n", "line 4: repeated 'n' line"),
            ("fracsys 1\nn 2\nalpha 1\n\nk 1\nk 1\nmatrix pattern\nend\n", "line 6: repeated 'k' line"),
            ("fracsys 1\nn 3 7\nalpha 1\nmatrix pattern\nend\n", "line 2: expected 'n <positive integer>'"),
            ("fracsys 1\nn 2\nalpha 1\nk 2 junk\nmatrix pattern\nend\n", "line 4: expected 'k <non-negative integer>'"),
        ],
        ids=["repeated-n", "repeated-k", "n-extra-token", "k-extra-token"],
    )
    def test_repeated_keyword_or_extra_token_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_system_file(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            (SPARSE.replace("2 1 1.0\n", "2 1 1.0\n2 1 0.0\n"), 7),
            (PATTERN.replace("2 1\n", "2 1\n2 1\n"), 6),
        ],
        ids=["sparse", "pattern"],
    )
    def test_repeated_entry_names_its_line(self, text, line):
        # the second value used to replace the first without a word
        with pytest.raises(ValueError, match=rf"^line {line}: entry \(2, 1\) given twice$"):
            parse_system_file(text)


class TestBulkEntries:
    """A ``sparse`` or ``pattern`` block read in bulk, against the line loop.

    ``sysfile._bulk_entries`` reads a well-formed block in one pass and
    refuses any other; ``sysfile._line_entries``, the oracle, reads every
    block line by line.  A file must parse to an equal ``SystemFile``, or
    fail with the same message, whichever of the two reads its block.
    """

    @staticmethod
    def both(monkeypatch, text):
        """The outcome of ``parse_system_file(text)`` with the bulk reader, then without it."""
        outcomes = []
        for bulk in (sysfile._bulk_entries, lambda n, numeric, block: None):
            monkeypatch.setattr(sysfile, "_bulk_entries", bulk)
            try:
                outcomes.append(parse_system_file(text))
            except ValueError as exc:
                outcomes.append(str(exc))
        return outcomes

    @staticmethod
    def random_file(rng, kind, canonical):
        """A random system file whose entries are spelled canonically, or in every other way."""
        n = int(rng.integers(1, 13))
        lines = ["fracsys 1", f"n {n}", "alpha 0.5", f"matrix {kind}"]
        count = int(rng.integers(0, n * n + 1))
        for flat in rng.choice(n * n, size=count, replace=False):
            r, c = divmod(int(flat), n)
            toks = [str(r + 1), str(c + 1)]
            if kind == "sparse":
                toks.append(repr(float(rng.normal())))
            sep = " "
            if not canonical:
                spell = rng.choice(["", "+", "0", "00"], size=2)
                toks[:2] = [p + t for p, t in zip(spell, toks)]
                sep = str(rng.choice([" ", "  ", "\t", " \t "]))
            line = sep.join(toks)
            if not canonical and rng.random() < 0.2:
                line = f"  {line}  # entry"
            lines.append(line)
            if not canonical and rng.random() < 0.1:
                lines.append(str(rng.choice(["", "# comment", "   "])))
        lines.append("end")
        eol = "\n" if canonical else str(rng.choice(["\n", "\r\n"]))
        return eol.join(lines) + eol

    @staticmethod
    def block_of(text):
        """The numbered lines of the matrix block of a file with no blank or comment line."""
        return list(enumerate(text.splitlines(), 1))[4:-1]

    @pytest.mark.parametrize("kind", ["pattern", "sparse"])
    def test_random_blocks_parse_alike(self, monkeypatch, kind):
        rng = np.random.default_rng(["pattern", "sparse"].index(kind))
        read_in_bulk = 0
        bulk = sysfile._bulk_entries
        for canonical in (True, False) * 100:
            text = self.random_file(rng, kind, canonical)
            got, want = self.both(monkeypatch, text)
            assert isinstance(want, sysfile.SystemFile)
            assert got == want
            block = self.block_of(text)
            if canonical and block:
                assert bulk(want.n, kind == "sparse", block) is not None
                read_in_bulk += 1
        assert read_in_bulk > 50

    @pytest.mark.parametrize(
        "entry",
        ["+2 1", "02 1", "2\t1", "2  1", "2 1 7", "2", "3 1", "0 1", "2 x", "2 1_0", "2 ٣",
         "2 1\n2 1", "2 1\n1 2\n2 1"],
    )
    @pytest.mark.parametrize("kind", ["pattern", "sparse"])
    def test_refused_blocks_fail_or_parse_alike(self, monkeypatch, kind, entry):
        numeric = kind == "sparse"
        if numeric:
            entry = "\n".join(f"{line} 1.5" for line in entry.split("\n"))
        text = f"fracsys 1\nn 2\nalpha 1\nmatrix {kind}\n1 1{' 2.0' if numeric else ''}\n{entry}\nend\n"
        assert sysfile._bulk_entries(2, numeric, self.block_of(text)) is None
        got, want = self.both(monkeypatch, text)
        assert got == want

    @pytest.mark.parametrize(
        "value", ["nan", "-inf", "1_0", "٣", "x", "1.0 2"],
    )
    def test_refused_sparse_values_fail_alike(self, monkeypatch, value):
        text = f"fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 1 1.0\n2 1 {value}\nend\n"
        assert sysfile._bulk_entries(2, True, self.block_of(text)) is None
        got, want = self.both(monkeypatch, text)
        assert got == want
        assert got.startswith("line 6: ")

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_inputs_raise_alike(self, monkeypatch, text):
        assert self.both(monkeypatch, text) == [MALFORMED[text]] * 2

    def test_a_large_block_of_few_entries_parses_in_little_memory(self):
        # no table of n big integers (1 << c for every state, O(n^2) bits) is built
        text = "fracsys 1\nn 20000\nalpha 0.5\nmatrix pattern\n1 2\n20000 1\nend\n"
        tracemalloc.start()
        try:
            parsed = parse_system_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.pattern.count == 2
        assert peak < 8 * 2**20

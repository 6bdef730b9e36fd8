import numpy as np
import pytest

from fracplace import parse_system_file

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


class TestParsing:
    def test_dense(self):
        f = parse_system_file(DENSE)
        assert f.n == 2
        assert f.kind == "dense"
        assert np.array_equal(f.matrix, [[0, 1.5], [0, 0]])
        assert f.alpha.tolist() == [0.5, 1.5]
        assert f.horizon == 4

    def test_sparse_with_broadcast_alpha_and_comment(self):
        f = parse_system_file(SPARSE)
        assert f.n == 3
        assert f.matrix[1, 0] == 1.0 and f.matrix[2, 1] == 2.0
        assert np.count_nonzero(f.matrix) == 2
        assert f.alpha.tolist() == [0.97] * 3
        assert f.horizon is None

    def test_pattern_is_one_based(self):
        f = parse_system_file(PATTERN)
        assert f.matrix is None
        assert f.pattern.entries == frozenset({(1, 0), (2, 1)})

    def test_pattern_at_thresholds_numeric(self):
        f = parse_system_file(DENSE)
        assert f.pattern_at().entries == frozenset({(0, 1)})


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "something 1\nn 2\n",
            "fracsys 2\nn 2\nalpha 1\nmatrix pattern\nend\n",
            "fracsys 1\nalpha 1\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\n",
            "fracsys 1\nn 2\nalpha 1 2 3\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 0\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix dense\n1 2\n3 4 5\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n3 1 1.0\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix sparse\n1 1\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix pattern\n0 1\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nx y\nend\n",
            "fracsys 1\nn 2\nalpha 1\nwhat 3\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nmatrix pattern\nend\nmatrix pattern\nend\n",
            "fracsys 1\nn -2\nalpha 1\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nk -1\nmatrix pattern\nend\n",
            "fracsys 1\nn 3\nalpha 1\nn 2\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nalpha 2\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nk 1\nk 2\nmatrix pattern\nend\n",
            "fracsys 1\nn 3 7\nalpha 1\nmatrix pattern\nend\n",
            "fracsys 1\nn 2\nalpha 1\nk 2 junk\nmatrix pattern\nend\n",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(ValueError):
            parse_system_file(text)

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

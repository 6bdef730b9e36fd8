"""One coupling written as ``dense``, ``sparse`` and ``pattern`` reads the same.

Each pattern file of the golden corpus gets a ``dense`` and a ``sparse``
twin with every entry 1.0; every golden command line run on a twin must
print the pattern file's pinned stdout and exit code.  A numeric file's
``dense`` and ``sparse`` twins must simulate to identical output.
"""

import json

import numpy as np
import pytest
from conftest import pattern_array
from test_cli_golden import CHAIN, GOLDEN, run

from fracplace import parse_system_file

_GOLDEN = json.loads(GOLDEN.read_text())
PATTERN_FILES = sorted(name for name, text in _GOLDEN["files"].items() if "matrix pattern" in text)


def _twin(text: str, kind: str, values) -> str:
    """``text`` with its matrix block rewritten as ``kind`` holding ``values``."""
    head = text[: text.index("matrix ")]
    if kind == "dense":
        body = [" ".join(map(repr, row)) for row in values]
    else:
        body = [f"{r + 1} {c + 1} {v!r}" for r, row in enumerate(values) for c, v in enumerate(row) if v]
    return head + "\n".join([f"matrix {kind}", *body, "end"]) + "\n"


def test_corpus_has_pattern_files():
    assert len(PATTERN_FILES) == 6


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("name", PATTERN_FILES)
def test_twin_prints_the_pattern_files_output(tmp_path, name, kind):
    text = _GOLDEN["files"][name]
    values = pattern_array(parse_system_file(text).pattern).tolist()
    (tmp_path / name).write_text(_twin(text, kind, values))
    cases = [case for case in _GOLDEN["cases"] if "@" + name in case["argv"]]
    assert {case["argv"][0] for case in cases} == {"place", "verify"}
    for case in cases:
        assert run(case["argv"], tmp_path) == (case["stdout"], case["exit"]), case["argv"]


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["chain", "random-0", "random-1"])
def test_dense_and_sparse_twins_simulate_alike(tmp_path, seed):
    if seed is None:
        text, values = CHAIN, parse_system_file(CHAIN).values
    else:  # a random coupling with about half its entries zero
        rng = np.random.default_rng(seed)
        n = 7
        matrix = rng.normal(0, 0.4, (n, n)) * (rng.random((n, n)) < 0.5)
        text = f"fracsys 1\nn {n}\nalpha 0.6 {' '.join(['1.3'] * (n - 1))}\nk 9\nmatrix dense\nend\n"
        values = matrix.tolist()
    (tmp_path / "x0.txt").write_text(" ".join(["1.5", "-0.25", *["1"] * (len(values) - 2)]))
    outputs = []
    for kind in ("dense", "sparse"):
        (tmp_path / kind).write_text(_twin(text, kind, values))
        outputs.append(run(["simulate", "@" + kind, "--x0", "@x0.txt"], tmp_path))
    assert outputs[0][1] == 0
    assert outputs[0] == outputs[1]

"""``fracplace place``/``verify``/``sweep`` output pinned byte for byte.

``tests/data/cli_golden.json`` holds a seeded corpus of system files
(giant-SCC, fragmented and sparse patterns plus the README chain) and,
for each command line run on them, the exact stdout and exit code.  A
placement or verification that changes any byte fails here.

Regenerate, only for an intended output change, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from fracplace.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CHAIN = """\
fracsys 1
n 3
alpha 0.97
k 3
matrix sparse
2 1 1.3
3 2 0.7
end
"""


def run(argv, files_dir):
    argv = [str(files_dir / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def _pattern_file(pattern, horizon):
    lines = ["fracsys 1", f"n {pattern.nrows}", "alpha 0.8", f"k {horizon}", "matrix pattern"]
    lines += [f"{r + 1} {c + 1}" for r, c in sorted(pattern.entries)]
    return "\n".join(lines + ["end"]) + "\n"


def build_corpus(files_dir):
    """System files and command lines; ``@name`` stands for a file path."""
    from conftest import random_pattern

    rng = np.random.default_rng(2024)
    files = {"chain.fsys": CHAIN}
    for i in range(2):
        for label, n, density in (("giant", 20, 0.2), ("fragmented", 40, 1 / 40), ("sparse", 32, 0.01)):
            files[f"{label}-{i}.fsys"] = _pattern_file(random_pattern(rng, n, density), n)
    for name, text in files.items():
        (files_dir / name).write_text(text)

    argvs = []
    for name in files:
        for k in ([], ["--k", "0"]):
            place = ["place", "@" + name, *k]
            argvs += [place, place + ["--strict-j3"], place + ["--format", "csv"]]
            doc = json.loads(run(place, files_dir)[0])
            sensors = doc["sensors"]
            verify = ["verify", "@" + name, *k, "--sensors"]
            argvs.append(verify + [",".join(map(str, sensors))])
            # a minimal set less one sensor must fail (exit 1)
            short = sensors[:-1] or [s for s in range(1, doc["n"] + 1) if s != sensors[0]][:1]
            argvs += [verify + [",".join(map(str, short))], verify + [",".join(map(str, short)), "--format", "csv"]]
    argvs += [
        ["sweep", "--n", "12", "--levels", "0.2,0.6,0.9", "--trials", "3", "--seed", "5"],
        ["sweep", "--n", "10", "--levels", "0.5,0.95", "--k", "2", "--seed", "9", "--format", "json"],
    ]
    return files, argvs


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    exits = set()
    for case in golden["cases"]:
        stdout, code = run(case["argv"], tmp_path)
        assert (stdout, code) == (case["stdout"], case["exit"]), case["argv"]
        exits.add(code)
    assert exits == {0, 1}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files, argvs = build_corpus(Path(tmp))
        cases = []
        for argv in argvs:
            stdout, code = run(argv, Path(tmp))
            cases.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"files": files, "cases": cases}, indent=0) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")

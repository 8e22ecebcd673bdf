"""Golden CLI reports: stdout and exit code of fixed graph, words, subgroup,
star, hnn, amalgam and ring commands, run in-process, compared with a
recorded file.

The recorded file, tests/data/cli_golden.json, was written by the previous
version of the code with `PYTHONPATH=src python tests/test_cli_golden.py`.
Gate 9 compares two runs of the same code; this test compares the code with
what it printed before, so a change that alters any of these reports fails
here.  Rewrite the file only for a change that means to alter a report.
"""

import json
import os
import sys

import pytest

from srlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

# input files, written to a temporary directory and named by @key
PRESENTATIONS = {
    # alternating four-cycle 1-2-3-4
    "square": {"vertices": [1, 2, 3, 4], "e_edges": [[1, 2], [3, 4]], "f_edges": [[2, 3], [4, 1]]},
    # alternating path 1-2-3-4: no cycle, and 2 and 3 are cut vertices
    "path": {"vertices": [1, 2, 3, 4], "e_edges": [[1, 2], [3, 4]], "f_edges": [[2, 3]]},
    # one edge in both colour classes
    "shared": {"vertices": [1, 2], "e_edges": [[1, 2]], "f_edges": [[1, 2]]},
    # <a> * <b> over the trivial subgroup
    "plain": {"A": ["a"], "B": ["b"], "H_in_A": [], "H_in_B": [], "iso": []},
    # F(a, h) * F(b, k) identifying <h> with <k>
    "glued": {
        "A": ["a", "h"],
        "B": ["b", "k"],
        "H_in_A": ["h"],
        "H_in_B": ["k"],
        "iso": [["h", "k"]],
    },
    # base F(a, b), t^-1 a t = b
    "hnn_ab": {
        "base": ["a", "b"],
        "stable": "t",
        "A": ["a"],
        "B": ["b"],
        "phi": [["a", "b"]],
    },
    # base F(a, b), t^-1 a^2 t = b a b^-1
    "hnn_sq": {
        "base": ["a", "b"],
        "stable": "t",
        "A": ["a^2"],
        "B": ["b a b^-1"],
        "phi": [["a^2", "b a b^-1"]],
    },
}

COMMANDS = [
    ["amalgam", "reduce", "@plain", "A: a | B: b | A: a^-1"],
    ["amalgam", "reduce", "@glued", "A: a h | B: k b | A: h^-1 a"],
    ["amalgam", "reduce", "@glued", "A: h a | B: k | A: a^-1 h^-1"],
    ["amalgam", "reduce", "@glued", "A: a h | B: k^2 b | A: a", "--output-format", "text"],
    ["amalgam", "type", "@glued", "B: b k | A: a | B: k^-1"],
    ["amalgam", "dagger", "@plain"],
    ["amalgam", "dagger", "@glued"],
    ["amalgam", "lemma45", "@plain", "--f", "A: a"],
    ["amalgam", "lemma45", "@plain", "--f", "B: b^-1 | A: a"],
    ["amalgam", "lemma45", "@glued", "--f", "A: a h | B: b"],
    ["amalgam", "witness", "@plain", "--elements", "A: a", "--max-product-len", "4"],
    ["amalgam", "witness", "@glued", "--elements", "A: a h; B: b k", "--max-product-len", "3"],
    ["amalgam", "witness", "@glued", "--elements", "B: b", "--variant", "mirrored",
     "--max-product-len", "3"],
    ["amalgam", "free-gens", "@plain", "--kind", "B-large", "--count", "2",
     "--max-product-len", "4"],
    ["amalgam", "free-gens", "@glued", "--kind", "H-large", "--count", "2",
     "--max-product-len", "4"],
    ["amalgam", "free-gens", "@glued", "--kind", "A-large", "--count", "2",
     "--max-product-len", "4", "--output-format", "csv"],
    ["amalgam", "reduce", "@glued", "A: x"],
    ["hnn", "reduce", "@hnn_ab", "t^-1 a t"],
    ["hnn", "normal", "@hnn_ab", "a t^-1 a t b t"],
    ["hnn", "identity", "@hnn_ab", "t^-1 a t b^-1"],
    ["hnn", "identity", "@hnn_ab", "t^-1 a t b"],
    ["hnn", "hypotheses", "@hnn_ab"],
    ["hnn", "witness", "@hnn_ab", "--elements", "a; a b", "--max-product-len", "4"],
    ["hnn", "normal", "@hnn_sq", "t^-1 a^3 t b a", "--output-format", "text"],
    ["hnn", "witness", "@hnn_sq", "--elements", "b; t a", "--max-product-len", "3"],
    ["star", "closure", "--set", "{a b}"],
    ["star", "conjugate", "--set", "{a, b}", "--by", "a b"],
    ["star", "check", "--sets", "{a};{a^2}", "--max-len", "4"],
    ["star", "check", "--sets", "{a};{b}", "--max-len", "4", "--output-format", "text"],
    ["star", "witness-free", "--set", "{a, b a}", "--max-product-len", "4"],
    ["ring", "epsilon", "--phi", "b"],
    ["ring", "epsilon", "--phi", "b, 2*a b", "--char", "5"],
    ["ring", "lemma32", "--s1", "{a b a^-1}", "--s2", "{a a b a^-1 a^-1}",
     "--s3", "{a a a b a^-1 a^-1 a^-1}", "--t", "a; b"],
    ["ring", "lemma33", "--sets", "{a};{b, 1}"],
    ["ring", "support-bound", "--instance", "1 | b | 1", "--max-product-len", "4"],
    ["ring", "support-bound", "--instance", "1 | b | 1", "--instance", "a | b a | 1",
     "--max-product-len", "3", "--output-format", "csv"],
    ["graph", "validate", "@square"],
    ["graph", "validate", "@shared"],
    ["graph", "stats", "@path"],
    ["graph", "find-cycle", "@square"],
    ["graph", "find-cycle", "@path", "--output-format", "text"],
    ["graph", "criterion", "@square"],
    ["graph", "criterion", "@path"],
    ["words", "reduce", "a b b^-1 a^-1 a"],
    ["words", "cyclic", "b^-1 a a b", "--output-format", "csv"],
    ["words", "sigma", "x y x^-1 y", "--alphabet", "x,y", "--generator", "y"],
    ["subgroup", "member", "--gens", "a a; b a", "a a b a"],
    ["subgroup", "member", "--gens", "a a", "a b"],
    ["subgroup", "intersect", "--gens", "a a; b", "--gens2", "a"],
    ["subgroup", "coset", "--gens", "a a", "a a a b"],
]


def _write_presentations(directory) -> dict:
    paths = {}
    for key, payload in PRESENTATIONS.items():
        path = os.path.join(str(directory), f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        paths["@" + key] = path
    return paths


def _load_golden() -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_lists_these_commands():
    assert [entry["argv"] for entry in _load_golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_cli_report_matches_golden(capsysbinary, tmp_path, index):
    entry = _load_golden()[index]
    paths = _write_presentations(tmp_path)
    code = main([paths.get(arg, arg) for arg in entry["argv"]])
    out = capsysbinary.readouterr().out
    assert (code, out) == (entry["code"], entry["stdout"].encode("utf-8"))


if __name__ == "__main__":
    import io
    import tempfile

    golden = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_presentations(tmp)
        for argv in COMMANDS:
            buffer = io.StringIO()
            stdout, sys.stdout = sys.stdout, buffer
            try:
                code = main([paths.get(arg, arg) for arg in argv])
            finally:
                sys.stdout = stdout
            golden.append({"argv": argv, "code": code, "stdout": buffer.getvalue()})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, ensure_ascii=False)
        fh.write("\n")

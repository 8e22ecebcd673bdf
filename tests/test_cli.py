"""End-to-end CLI tests: exit-code contract, report shapes, certificate
round-trips, deterministic output, and the error paths."""

import hashlib
import json

import pytest

from srlab.cli import RunConfig, main
from srlab.sr_graph import SRCycle, graph_from_json, verify_cycle
from srlab import star_check
from srlab.star_check import (
    ElementSet,
    check_mutually_reduced,
    conjugate_set,
    verify_mutual_witness,
)
from srlab.words import Alphabet, parse_word
from srlab.elements import FreeGroupOps

FOUR_CYCLE = json.dumps(
    {
        "vertices": [1, 2, 3, 4],
        "e_edges": [[1, 2], [3, 4]],
        "f_edges": [[2, 3], [4, 1]],
    }
)

# free product <a> * <b>; H trivial on both sides
PLAIN_AMALGAM = json.dumps(
    {"A": ["a"], "B": ["b"], "H_in_A": [], "H_in_B": [], "iso": []}
)

# base F(a, b), t^-1 a t = b
HNN_AB = json.dumps(
    {"base": ["a", "b"], "stable": "t", "A": ["a"], "B": ["b"], "phi": [["a", "b"]]}
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(FOUR_CYCLE)
    return str(path)


@pytest.fixture()
def amalgam_file(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(PLAIN_AMALGAM)
    return str(path)


@pytest.fixture()
def hnn_file(tmp_path):
    path = tmp_path / "hnn.json"
    path.write_text(HNN_AB)
    return str(path)


# -- config -------------------------------------------------------------------


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.max_product_len == 6
    assert cfg.search_len == 6
    assert cfg.expansion_budget == 10_000_000
    assert cfg.output_format == "json"


def test_run_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(max_product_len=0)
    with pytest.raises(ValueError):
        RunConfig(expansion_budget=-5)
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")


def test_config_error_exit_code(capsys, graph_file):
    assert main(["graph", "stats", graph_file, "--search-len", "0"]) == 2
    assert "config error" in capsys.readouterr().err


# -- graph --------------------------------------------------------------------


def test_find_cycle_four_cycle(capsys, graph_file):
    code, payload = run_json(capsys, "graph", "find-cycle", graph_file)
    assert code == 0
    assert payload["sr_cycle"] == [1, 2, 3, 4]
    assert payload["seed"] == 0


def test_find_cycle_certificate_reverifies(capsys, graph_file):
    _, payload = run_json(capsys, "graph", "find-cycle", graph_file)
    g = graph_from_json(FOUR_CYCLE)
    assert verify_cycle(g, SRCycle(tuple(payload["sr_cycle"])))


def test_find_cycle_negative(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(
        json.dumps(
            {"vertices": [1, 2, 3], "e_edges": [[1, 2]], "f_edges": [[2, 3]]}
        )
    )
    code, payload = run_json(capsys, "graph", "find-cycle", str(path))
    assert code == 1
    assert payload["sr_cycle"] is None
    assert payload["witness"]["isolated_g"] == [3]


def test_graph_validate_ok_and_stats(capsys, graph_file):
    code, payload = run_json(capsys, "graph", "validate", graph_file)
    assert code == 0 and payload["valid"] and payload["n"] == 4
    code, payload = run_json(capsys, "graph", "stats", graph_file)
    assert code == 0
    assert (payload["c_g"], payload["c_h"]) == (2, 2)


def test_graph_validate_rejects_shared_edge(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"vertices": [1, 2], "e_edges": [[1, 2]], "f_edges": [[1, 2]]})
    )
    code, payload = run_json(capsys, "graph", "validate", str(path))
    assert code == 1
    assert not payload["valid"] and "both E and F" in payload["reason"]


def test_graph_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(FOUR_CYCLE))
    code, payload = run_json(capsys, "graph", "criterion", "-")
    assert code == 0 and payload["criterion_holds"]


def test_graph_criterion_reports_counts_without_stats(capsys, graph_file, monkeypatch):
    import srlab.sr_graph

    def no_stats(g):
        raise AssertionError("criterion must not recompute the graph stats")

    monkeypatch.setattr(srlab.sr_graph, "stats", no_stats)
    code, payload = run_json(capsys, "graph", "criterion", graph_file)
    assert code == 0
    assert payload == {"c_g": 2, "c_h": 2, "criterion_holds": True, "n": 4, "seed": 0}


def test_graph_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    assert main(["graph", "stats", str(path)]) == 2
    assert "line 1 column 1" in capsys.readouterr().err


def test_missing_file_exit_2(capsys, tmp_path):
    assert main(["graph", "stats", str(tmp_path / "absent.json")]) == 2
    assert "io error" in capsys.readouterr().err


def _alternating_path_file(tmp_path, n):
    path = tmp_path / "path.json"
    path.write_text(
        json.dumps(
            {
                "vertices": list(range(1, n + 1)),
                "e_edges": [[i, i + 1] for i in range(1, n, 2)],
                "f_edges": [[i, i + 1] for i in range(2, n, 2)],
            }
        )
    )
    return str(path)


def test_graph_stats_long_path(capsys, tmp_path):
    code, payload = run_json(capsys, "graph", "stats", _alternating_path_file(tmp_path, 3000))
    assert code == 0
    assert payload["cut_vertices"] == list(range(2, 3000))


def test_find_cycle_long_path_subprocess(tmp_path):
    # a definite negative on a path deeper than the default recursion limit
    import os
    import subprocess
    import sys

    import srlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "srlab.cli", "graph", "find-cycle", _alternating_path_file(tmp_path, 3000)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["sr_cycle"] is None
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("exc_type", [RuntimeError, RecursionError])
def test_unexpected_exception_exits_2(capsys, monkeypatch, graph_file, exc_type):
    def boom(cfg, args):
        raise exc_type("handler blew up")

    monkeypatch.setattr("srlab.cli.cmd_graph_stats", boom)
    assert main(["graph", "stats", graph_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {exc_type.__name__}: handler blew up\n"


# -- words --------------------------------------------------------------------


def test_words_reduce(capsys):
    code, payload = run_json(capsys, "words", "reduce", "a b b^-1 a^-1 a")
    assert code == 0
    assert payload == {"length": 1, "seed": 0, "word": "a"}


def test_words_cyclic(capsys):
    code, payload = run_json(capsys, "words", "cyclic", "b^-1 a a b")
    assert code == 0
    assert payload["core"] == "a a" and payload["conjugator"] == "b"


def test_words_sigma(capsys):
    code, payload = run_json(
        capsys, "words", "sigma", "a b a^-1 b a", "--generator", "b"
    )
    assert code == 0 and payload["sum"] == 2


def test_words_unknown_generator_exit_2(capsys):
    assert main(["words", "reduce", "a c"]) == 2
    assert "error" in capsys.readouterr().err


def test_words_oversized_power_exit_2(capsys):
    assert main(["words", "reduce", "a^1000000000"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_words_custom_alphabet(capsys):
    code, payload = run_json(
        capsys, "words", "reduce", "x y x^-1", "--alphabet", "x,y"
    )
    assert code == 0 and payload["word"] == "x y x^-1"


# -- subgroup -----------------------------------------------------------------


def test_subgroup_member_coordinates_recompose(capsys):
    code, payload = run_json(
        capsys, "subgroup", "member", "--gens", "a a; b a", "a a b a"
    )
    assert code == 0 and payload["member"]
    # coordinates are signed 1-based indices into the generator list
    alphabet = Alphabet(("a", "b"))
    gens = [parse_word(alphabet, "a a"), parse_word(alphabet, "b a")]
    ops = FreeGroupOps(alphabet)
    acc = ops.identity_element()
    for c in payload["coordinates"]:
        g = gens[abs(c) - 1]
        acc = ops.multiply(acc, g if c > 0 else ops.invert(g))
    assert acc == parse_word(alphabet, "a a b a")


def test_subgroup_member_in_a_basis_without_a_greedy_inversion(capsys):
    gens = "b^-3 a^-1 b; b^-2 a^-1 b a^-1; a b^-1 a b^-1 a^-1 b^-2; a^-1 b^-1 a b^2"
    code, payload = run_json(capsys, "subgroup", "member", "--gens", gens, "b^-3 a^-1 b")
    assert code == 0 and payload["member"] and payload["coordinates"] == [1]


def test_subgroup_non_member_exit_1(capsys):
    code, payload = run_json(capsys, "subgroup", "member", "--gens", "a a", "a")
    assert code == 1
    assert not payload["member"] and payload["representative"] == "a"


def test_subgroup_intersect(capsys):
    code, payload = run_json(
        capsys, "subgroup", "intersect", "--gens", "a a; b", "--gens2", "a"
    )
    assert code == 0
    assert payload["rank"] == 1 and payload["basis"] == ["a a"]


def test_subgroup_coset(capsys):
    code, payload = run_json(capsys, "subgroup", "coset", "--gens", "a a", "a a a b")
    assert code == 0 and payload["representative"] == "a b"


# -- star ---------------------------------------------------------------------


def test_star_closure(capsys):
    code, payload = run_json(capsys, "star", "closure", "--set", "{a b}")
    assert code == 0
    assert payload["elements"] == ["a b", "b^-1 a^-1"]


def test_star_conjugate(capsys):
    code, payload = run_json(
        capsys, "star", "conjugate", "--set", "{a}", "--by", "b"
    )
    assert code == 0 and payload["elements"] == ["b^-1 a b"]


def test_star_check_counterexample(capsys):
    code, payload = run_json(
        capsys, "star", "check", "--sets", "{a};{a^2}", "--max-len", "4"
    )
    assert code == 1
    assert payload["status"] == "Counterexample"
    alphabet = Alphabet(("a",))
    sets = [
        ElementSet.from_words([parse_word(alphabet, "a")]),
        ElementSet.from_words([parse_word(alphabet, "a a")]),
    ]
    witness = [parse_word(alphabet, w) for w in payload["witness"]]
    assert verify_mutual_witness(sets, witness)


def test_star_check_holds(capsys):
    code, payload = run_json(
        capsys, "star", "check", "--sets", "{a};{b}", "--max-len", "4"
    )
    assert code == 0
    assert payload["status"] == "HoldsUpToBound" and payload["witness"] is None


def test_star_check_rejects_unbraced_set(capsys):
    assert main(["star", "check", "--sets", "a;b"]) == 2
    assert "brace" in capsys.readouterr().err


def test_star_witness_free(capsys):
    code, payload = run_json(
        capsys, "star", "witness-free", "--set", "{a, b a}", "--max-product-len", "4"
    )
    assert code == 0
    assert payload["status"] == "HoldsUpToBound"
    assert len(payload["witnesses"]) == 3
    assert payload["bound"] == 4


def test_witness_report_refuses_overlapping_copies(capsys, monkeypatch):
    # the copies of {a, b a b^-1} by a b and b a b both hold b^-1 a b, so
    # (b^-1 a b)(b^-1 a^-1 b) = 1 mixes two copies; the check alone passes
    ab = Alphabet(("a", "b"))
    m = ElementSet.of(FreeGroupOps(ab), [parse_word(ab, "a"), parse_word(ab, "b a b^-1")])
    xs = tuple(parse_word(ab, t) for t in ("a b", "b a b", "b b a"))
    copies = [conjugate_set(m, x) for x in xs]
    assert parse_word(ab, "b^-1 a b") in copies[0].members & copies[1].members
    assert check_mutually_reduced(copies, 6).holds
    monkeypatch.setattr(star_check, "star_witness_locally_free", lambda m, x, y: xs)
    assert main(["star", "witness-free", "--set", "{a, b a b^-1}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "conjugated copies 1 and 2 share b^-1 a b" in err
    monkeypatch.undo()
    assert main(["star", "witness-free", "--set", "{a, b a b^-1}"]) == 0
    capsys.readouterr()


# -- hnn ----------------------------------------------------------------------


def test_hnn_reduce_pinch(capsys, hnn_file):
    code, payload = run_json(capsys, "hnn", "reduce", hnn_file, "t^-1 a t")
    assert code == 0
    assert payload["reduced"] == "b" and payload["t_length"] == 0


def test_hnn_identity_split(capsys, hnn_file):
    code, payload = run_json(capsys, "hnn", "identity", hnn_file, "t^-1 a t b^-1")
    assert code == 0 and payload["identity"]
    code, payload = run_json(capsys, "hnn", "identity", hnn_file, "t^-1 a t b")
    assert code == 1 and not payload["identity"]


def test_hnn_normal_form(capsys, hnn_file):
    code, payload = run_json(capsys, "hnn", "normal", hnn_file, "a t^-1 a t")
    assert code == 0 and payload["normal_form"] == "a b"


def test_hnn_hypotheses(capsys, hnn_file):
    code, payload = run_json(capsys, "hnn", "hypotheses", hnn_file)
    assert code == 0
    assert payload["displacing"] is not None and payload["outside"] is not None


def test_hnn_hypotheses_ascending_exit_1(capsys, tmp_path):
    # A is the whole base group: no word outside A u B, no displacer
    path = tmp_path / "asc.json"
    path.write_text(
        json.dumps(
            {"base": ["a"], "stable": "t", "A": ["a"], "B": ["a"], "phi": [["a", "a"]]}
        )
    )
    code, payload = run_json(capsys, "hnn", "hypotheses", str(path))
    assert code == 1 and payload["displacing"] is None


def test_hnn_witness_verified(capsys, hnn_file):
    code, payload = run_json(
        capsys,
        "hnn",
        "witness",
        hnn_file,
        "--elements",
        "a; a b",
        "--max-product-len",
        "4",
    )
    assert code == 0
    assert payload["status"] == "HoldsUpToBound"
    assert len(payload["witnesses"]) == 3


# -- amalgam ------------------------------------------------------------------


def test_amalgam_reduce_and_type(capsys, amalgam_file):
    code, payload = run_json(
        capsys, "amalgam", "reduce", amalgam_file, "A: a | B: b | A: a^-1"
    )
    assert code == 0
    assert payload["length"] == 3 and payload["type"] == "AA"
    code, payload = run_json(capsys, "amalgam", "type", amalgam_file, "A: a | B: b")
    assert code == 0 and payload["type"] == "AB"


def test_amalgam_dagger(capsys, amalgam_file):
    code, payload = run_json(capsys, "amalgam", "dagger", amalgam_file)
    assert code == 0
    assert payload["a"] == "a" and payload["direct_outside"]


def test_amalgam_lemma45_sandwich(capsys, amalgam_file):
    code, payload = run_json(
        capsys, "amalgam", "lemma45", amalgam_file, "--f", "A: a"
    )
    assert code == 0
    assert payload["shape"] == "Sandwich"
    assert payload["middle_length"] == payload["length"] - 4


def test_amalgam_lemma45_power(capsys, amalgam_file):
    # f = b^-1 a cancels one sandwich layer completely
    code, payload = run_json(
        capsys, "amalgam", "lemma45", amalgam_file, "--f", "B: b^-1 | A: a"
    )
    assert code == 0
    assert payload["shape"] == "Power"
    assert payload["power"] >= 1 and payload["sign"] in (1, -1)


def test_amalgam_witness_pinned_example(capsys, amalgam_file):
    code, payload = run_json(
        capsys,
        "amalgam",
        "witness",
        amalgam_file,
        "--elements",
        "A: a",
        "--max-product-len",
        "4",
    )
    assert code == 0
    assert payload["status"] == "HoldsUpToBound"
    assert len(payload["witnesses"]) == 3
    assert payload["bound"] == 4


def test_amalgam_free_gens_no_relation(capsys, amalgam_file):
    code, payload = run_json(
        capsys,
        "amalgam",
        "free-gens",
        amalgam_file,
        "--kind",
        "B-large",
        "--count",
        "2",
        "--max-product-len",
        "4",
    )
    assert code == 0
    assert len(payload["generators"]) == 2 and payload["relation"] is None


# -- ring ---------------------------------------------------------------------


def test_ring_epsilon_support_nine(capsys):
    code, payload = run_json(capsys, "ring", "epsilon", "--phi", "b")
    assert code == 0
    assert payload["support_eps"] == 9 and payload["support_eps1"] == 10


def test_ring_lemma32_holds(capsys):
    code, payload = run_json(
        capsys,
        "ring",
        "lemma32",
        "--s1",
        "{a b a^-1}",
        "--s2",
        "{a a b a^-1 a^-1}",
        "--s3",
        "{a a a b a^-1 a^-1 a^-1}",
        "--t",
        "a; b",
    )
    assert code == 0
    assert payload["holds"] and payload["isolated"] > payload["threshold"] == 2


def test_ring_lemma32_unverified_exit_2(capsys):
    # a * b * a = (a b a), so the quotient sets collide
    code = main(
        [
            "ring",
            "lemma32",
            "--s1",
            "{a}",
            "--s2",
            "{b}",
            "--s3",
            "{a b a}",
            "--t",
            "a",
        ]
    )
    assert code == 2
    assert "violating product" in capsys.readouterr().err


def test_ring_lemma33_default_triples(capsys):
    code, payload = run_json(capsys, "ring", "lemma33", "--sets", "{a};{b, 1}")
    assert code == 0
    assert payload["holds"] and payload["threshold"] == 3


def test_ring_support_bound(capsys):
    code, payload = run_json(
        capsys,
        "ring",
        "support-bound",
        "--instance",
        "1 | b | 1",
        "--max-product-len",
        "4",
    )
    assert code == 0
    assert payload["holds"] and payload["support_w"] >= 2


def test_ring_support_bound_csv(capsys):
    code, out = run(
        capsys,
        "ring",
        "support-bound",
        "--instance",
        "1 | b | 1",
        "--max-product-len",
        "4",
        "--output-format",
        "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("instance_count,char,support_w1")


def test_ring_support_bound_bad_instance_syntax(capsys):
    assert main(["ring", "support-bound", "--instance", "b | 1"]) == 2
    assert "parse error" in capsys.readouterr().err


# -- formats and determinism ----------------------------------------------------


def test_text_format(capsys, graph_file):
    code, out = run(
        capsys, "graph", "criterion", graph_file, "--output-format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert "criterion_holds: True" in lines


def test_json_keys_sorted(capsys, graph_file):
    _, out = run(capsys, "graph", "stats", graph_file)
    payload = json.loads(out)
    assert list(payload) == sorted(payload)


def test_seed_recorded_and_bytes_identical(capsys):
    argv = [
        "star",
        "witness-free",
        "--set",
        "{a}",
        "--seed",
        "99",
        "--max-product-len",
        "4",
    ]
    code, first = run(capsys, *argv)
    assert code == 0
    assert json.loads(first)["seed"] == 99
    _, second = run(capsys, *argv)
    assert first == second


# sha256 of `srlab experiment batch --seed 0` stdout; every report in the
# batch is deterministic, so a change to any verdict, witness or count in it
# shows up here
BATCH_SEED_0_SHA256 = "68e0007fc3c7501b8d3b8ddaa843d479bf907a99bdf2845c15aa626125454319"


def test_experiment_batch_bytes_are_pinned(capsys):
    assert main(["experiment", "batch", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_SEED_0_SHA256


def test_experiment_batch_rejects_bad_scale(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "batch", "--scale", "huge"])


HNN_NO_PHI = json.dumps({"base": ["a", "b"], "stable": "t", "A": ["a"], "B": ["b"]})
AMALGAM_NO_ISO = json.dumps({"A": ["a"], "B": ["b"], "H_in_A": [], "H_in_B": []})


@pytest.mark.parametrize(
    "leaf, text, extra",
    [
        (["graph", "stats"], json.dumps({"vertices": [1, 2]}), []),
        (["graph", "stats"], "[1, 2]", []),
        (
            ["graph", "stats"],
            json.dumps({"vertices": [[1]], "e_edges": [], "f_edges": []}),
            [],
        ),
        (["hnn", "reduce"], HNN_NO_PHI, ["a t"]),
        (["amalgam", "dagger"], AMALGAM_NO_ISO, []),
        (["ring", "epsilon"], None, ["--phi", "1/0*b"]),
        (["ring", "epsilon"], None, ["--phi", "x*a"]),
    ],
    ids=["graph-missing-key", "graph-not-object", "graph-list-vertex",
         "hnn-missing-phi", "amalgam-missing-iso", "ring-zero-denominator",
         "ring-bad-coefficient"],
)
def test_malformed_input_is_a_parse_error(capsys, tmp_path, leaf, text, extra):
    argv = list(leaf)
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv.append(str(path))
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "parse error" in captured.err
    assert "internal error" not in captured.err

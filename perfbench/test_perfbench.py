"""The benchmark's own tests: tiny passes of every workload, determinism of
the op digests, traced runs that change no answer and leave no binding
patched, and the metric names the result line promises.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def tiny_inputs(monkeypatch):
    """Shrink the oracle batch, the family sample and the graph tail."""
    monkeypatch.setattr(workloads.NormalForms, "ORACLE_BATCH", 150)
    monkeypatch.setattr(workloads.Graphs, "FAMILY_SAMPLE", 51)
    monkeypatch.setattr(workloads.Graphs, "TAIL_N", (20, 40, 60, 80, 100))


def bench_json() -> dict:
    with open(os.path.join(tracing.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny(name, seed=1):
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return wl


def one_round(name, seed=1):
    wl = tiny(name, seed)
    try:
        records, _ = run.run_rounds(wl, rounds=1)
    finally:
        wl.close()
    return records


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_runs_clean(name, seed):
    records = one_round(name, seed)
    assert len(records) == len(workloads.WORKLOADS[name].ROUND)
    assert [r.problem for r in records if r.status != "ok"] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_for_a_seed(name):
    assert run.run_digest(one_round(name)) == run.run_digest(one_round(name))


def test_support_classes_match_the_driver():
    from srlab import experiments as ex

    wl = workloads.WORKLOADS["free_ring"](1)
    for j, want in enumerate(workloads.SUPPORT[1][:6]):
        seed = workloads._driver_seed(workloads._rng("test", j), workloads.SUPPORT[0], want)
        row = ex.support_series_report(runs=1, seed=seed)["rows"][0]
        assert row["instance_count"] == want[0]
    assert wl.driver_seed(0, workloads.SUPPORT) == wl.driver_seed(0, workloads.SUPPORT)


def test_amalgam_schedule_keeps_the_driver_shares():
    weights = workloads._amalgam_weights()
    assert sum(weights.values()) == 1
    schedule = workloads.AMALGAM[1]
    for n in range(1, len(schedule) + 1):
        prefix = schedule[:n]
        assert all(abs(prefix.count(c) - w * n) < 1 for c, w in weights.items())


def test_inputs_are_built_outside_the_clock():
    class Slow(workloads.Workload):
        ROUND = ("x",)

        def prepare(self, i):
            time.sleep(0.05)
            return "x", lambda: i, lambda v: ({"v": v}, None)

    records, wall = run.run_rounds(Slow(0), rounds=4)
    assert len(records) == 4 and wall < 0.05


def test_tail_graphs_are_decided_and_repeat():
    from srlab import sr_graph as gr

    wl = workloads.Graphs(3)
    for i in range(6):
        raw = wl._decided_tail(i, 200, 2)
        gr.find_sr_cycle(gr.validate(*raw), wl.SEARCH_BUDGET)  # ends within the budget
        draws = wl.tail_draws
        assert wl._decided_tail(i, 200, 2) == raw
        assert wl.tail_draws == draws  # a repeat searches nothing
        assert workloads.Graphs(3)._decided_tail(i, 200, 2) == raw
    assert wl.tail_draws == 6 + wl.tail_exhausted


def test_seeds_give_different_inputs():
    assert run.run_digest(one_round("graphs", 1)) != run.run_digest(one_round("graphs", 2))


@pytest.mark.parametrize("name", ["normal_forms", "graphs", "cli_oneshot"])
def test_traced_round_gives_the_same_answers_and_restores_bindings(name):
    before = tracing.bindings_snapshot()
    plain = one_round(name)
    wl = tiny(name)
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        assert tracing.bindings_snapshot() != before
        traced, _ = run.run_rounds(wl, rounds=1, tracer=tracer)
    finally:
        tracer.restore()
        wl.close()
    assert tracing.bindings_snapshot() == before
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert tracer.op_self_s > 0
    assert tracer.stack == []
    assert all(span[5] is not None for span in tracer.spans)


def test_calls_between_ops_are_not_counted():
    mods = tracing.srlab_modules()
    w = mods["words"]
    ab = w.Alphabet(("a", "b"))
    x = w.parse_word(ab, "a b")
    tracer = tracing.Tracer()
    setup_tracer = tracing.Tracer(between_ops=True)
    for t in (tracer, setup_tracer):
        t.install()
        try:
            w.power(x, 2)
            list(mods["experiments"].iter_two_clique_family(2))
            t.begin_op(0)
            w.power(x, 3)
            t.end_op()
        finally:
            t.restore()
    assert tracer.stats["words.power"].calls == 1
    assert tracer.stats["experiments.iter_two_clique_family"].calls == 0
    assert tracer.input_gen_s == 0.0
    assert setup_tracer.stats["words.power"].calls == 2
    assert setup_tracer.stats["experiments.iter_two_clique_family"].calls > 0


def test_restore_after_a_failing_traced_call():
    before = tracing.bindings_snapshot()
    mods = tracing.srlab_modules()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with pytest.raises(Exception):
            mods["words"].from_signed(mods["words"].Alphabet(("a",)), [5])
        tracer.end_op()
    finally:
        tracer.restore()
    assert tracing.bindings_snapshot() == before
    assert tracer.stack == []
    assert tracer.stats["words.from_signed"].calls == 1


def test_tracer_counts_nested_self_time():
    mods = tracing.srlab_modules()
    w = mods["words"]
    ab = w.Alphabet(("a", "b"))
    x = w.parse_word(ab, "a b a^-1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        w.power(x, 3)
        tracer.end_op()
    finally:
        tracer.restore()
    power, mul = tracer.stats["words.power"], tracer.stats["words.multiply"]
    assert power.calls == 1 and mul.calls == 3
    assert power.total_s >= power.self_s + mul.total_s * 0.999
    assert tracer.layer_metrics()["words.multiply.letters"] > 0


def test_metric_names_and_layer_map_agree_with_benchmark_json():
    bench = bench_json()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert bench["per_layer"] == run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    grouped = run.load_layer_map()["groups"]
    for group in grouped:
        assert set(group["moves"]) <= {m["name"] for m in bench["end_to_end"]} | {"fail_ratio"}


def test_result_lines_carry_exactly_the_listed_metrics(monkeypatch, capsys):
    bench = bench_json()
    monkeypatch.setattr(run, "MIN_OPS", 5)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    wl = workloads.WORKLOADS["graphs"](3)
    try:
        timed = run.timed_run(wl, 0.0)
        traced = run.traced_run(wl, 0.0)
    finally:
        wl.close()
    for result, key in ((timed, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in bench[key]]
        for m in bench[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "digests equal: True; bindings restored: True" in capsys.readouterr().out


def test_fails_without_the_library(tmp_path):
    shutil.copytree(os.path.join(tracing.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(tracing.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graphs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

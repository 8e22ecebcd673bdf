"""srlab benchmark: one closed-loop client running one named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run sets up SETUP_REPEATS times, then runs whole rounds of
ops until S seconds of op time have passed and at least MIN_OPS ops were
made, and reports the end-to-end metrics.  With --trace 1 it runs the same ops twice,
untraced and then with every srlab layer wrapped (see tracing.py), checks
that both passes gave the same answers, and reports the per-layer metrics.
The last line of stdout is the result object; the lines before it say what
was run.  Runs from the root of a checkout and imports srlab from its src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

try:
    import workloads  # imports srlab from the checkout's src/
except ImportError as exc:
    workloads = None
    IMPORT_ERROR = exc

MIN_OPS = 100
SETUP_REPEATS = 3
DIGEST_OPS = 100  # ops whose answers make up the run digest
TRACE_SHARE = 0.3  # share of --seconds for the untraced pass of a traced run
PROBE_REPEATS = 5  # interpreter and import probes in a traced run


class Record:
    __slots__ = ("kind", "latency", "status", "digest", "problem")

    def __init__(self, kind, latency, status, digest, problem):
        self.kind = kind
        self.latency = latency
        self.status = status
        self.digest = digest
        self.problem = problem


def run_op(prepared, i, tracer=None) -> Record:
    kind, fn, check = prepared
    if tracer is not None:
        tracer.begin_op(i)
    t0 = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # every failure is an op outcome, never a crash
        latency = time.perf_counter() - t0
        payload, status, problem = {"error": type(exc).__name__}, "error", type(exc).__name__
    else:
        latency = time.perf_counter() - t0
        payload, problem = check(value)
        status = "ok" if problem is None else "wrong"
    finally:
        if tracer is not None:
            tracer.end_op()
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return Record(kind, latency, status, hashlib.sha256(blob).hexdigest(), problem)


def run_rounds(wl, seconds=None, rounds=None, tracer=None, min_ops=MIN_OPS):
    """Whole rounds, until `rounds` are done or `seconds` of op time have
    passed and min_ops ops were made.  Each round's inputs are built before
    its clock starts, so the returned wall time covers the ops and their
    checks only.  Returns the records and that wall time."""
    per_round = len(wl.ROUND)
    records: list[Record] = []
    wall = 0.0
    r = 0
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif wall >= seconds and len(records) >= min_ops:
            break
        ids = range(r * per_round, (r + 1) * per_round)
        prepared = [wl.prepare(i) for i in ids]
        t0 = time.perf_counter()
        for i, op in zip(ids, prepared):
            records.append(run_op(op, i, tracer))
        wall += time.perf_counter() - t0
        r += 1
    return records, wall


def run_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        h.update(bytes.fromhex(rec.digest))
    return h.hexdigest()


def summary(records) -> dict:
    return {
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "wrong": sum(r.status == "wrong" for r in records),
    }


def describe(wl, label, records, wall) -> None:
    s = summary(records)
    print(
        f"{wl.name} seed={wl.seed} {label}: ops={s['attempted']} failed={s['failed']} "
        f"wrong={s['wrong']} wall_s={wall:.3f} digest={run_digest(records)}"
    )
    if wl.tail_draws:
        print(f"  tail graphs drawn: {wl.tail_draws}, left out for exhausting the "
              f"search budget: {wl.tail_exhausted}")
    problems: dict = {}
    for r in records:
        if r.problem is not None:
            problems[(r.kind, r.problem)] = problems.get((r.kind, r.problem), 0) + 1
    for (kind, problem), n in sorted(problems.items()):
        print(f"  {n} x {kind}: {problem}")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def import_time() -> float:
    """Seconds a fresh interpreter takes to import what a run imports."""
    code = (
        "import sys, time; t0 = time.perf_counter(); import workloads; "
        "sys.stdout.write(repr(time.perf_counter() - t0))"
    )
    env = workloads.child_env()
    env["PYTHONPATH"] = os.pathsep.join((os.path.dirname(tracing.__file__), env["PYTHONPATH"]))
    proc = subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, cwd=tracing.ROOT,
        capture_output=True, text=True, timeout=120,
    )
    return float(proc.stdout)


def timed_run(wl, seconds) -> dict:
    # one set-up is an import in a fresh interpreter, then building the
    # shared inputs and the warm-up ops in this one
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_time()
        t0 = time.perf_counter()
        wl.setup()
        wl.warm_up()
        setups.append(imported + time.perf_counter() - t0)
    records, wall = run_rounds(wl, seconds=seconds)
    describe(wl, "timed", records, wall)
    lat = [r.latency for r in records]
    print(f"latency samples: {len(lat)}")
    passed = sum(r.status == "ok" for r in records)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    s = summary(records)
    return {
        "correct": s["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {
            "ops_per_s": metric(passed / wall, "1/s"),
            "op_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
            "op_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
        },
    }


def _probe(code: str) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=workloads.child_env(), cwd=tracing.ROOT
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def src_lines() -> dict:
    out = {}
    total = 0
    pkg = os.path.join(tracing.SRC, "srlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                n = sum(1 for _ in fh)
            total += n
            out[name[:-3]] = n
    metrics = {f"{m}.src_lines": out.get(m, 0) for m in tracing.LAYERS + ("errors",)}
    metrics["srlab.src_lines"] = total
    return metrics


def traced_run(wl, seconds) -> dict:
    wl.setup()
    wl.warm_up()
    plain, plain_wall = run_rounds(wl, seconds=seconds * TRACE_SHARE, min_ops=1)
    describe(wl, "untraced", plain, plain_wall)
    rounds = len(plain) // len(wl.ROUND)

    before = tracing.bindings_snapshot()
    setup_tracer = tracing.Tracer(between_ops=True)
    setup_tracer.install()
    try:
        wl.setup()
    finally:
        setup_tracer.restore()
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        traced, traced_wall = run_rounds(wl, rounds=rounds, tracer=tracer)
    finally:
        wl.tracer = None
        tracer.restore()
    restored = tracing.bindings_snapshot() == before
    describe(wl, "traced", traced, traced_wall)
    same = [r.digest for r in plain] == [r.digest for r in traced]
    print(f"digests equal: {same}; bindings restored: {restored}")

    spans = os.path.join(workloads.OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.jsonl")
    tracer.write_spans(spans)
    print(f"spans: {os.path.relpath(spans, tracing.ROOT)} ({len(tracer.spans)})")

    interpreter = _probe("pass")
    imported = _probe("import srlab.cli")
    plain_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in traced)
    s = summary(traced)
    metrics = tracer.layer_metrics()
    metrics["experiments.input_gen_s"] += setup_tracer.input_gen_s
    metrics.update(src_lines())
    metrics.update(
        {
            "cli.interpreter_s": interpreter,
            "cli.import_s": imported - interpreter,
            "trace.overhead_ratio": traced_s / plain_s,
            "trace.coverage": tracer.op_self_s / traced_s,
            "fail_ratio": s["failed"] / s["attempted"],
            "sr_graph.tail_exhausted_ratio": wl.tail_exhausted / wl.tail_draws if wl.tail_draws else 0.0,
        }
    )
    return {
        "correct": same and restored and s["wrong"] == 0 and summary(plain)["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {m["name"]: metric(metrics[m["name"]], m["unit"]) for m in per_layer_spec()},
    }


def load_layer_map() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layer_map.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_spec() -> list[dict]:
    """Per-layer metrics in layer_map.json order, as BENCHMARK.json lists them."""
    spec = []
    for group in load_layer_map()["groups"]:
        for name in group["metrics"]:
            if name.endswith("_s"):
                unit = "s"
            elif name.endswith("_ratio") or name == "trace.coverage":
                unit = "ratio"
            elif name.endswith("src_lines"):
                unit = "lines"
            else:
                unit = "count"
            higher = name.endswith(("distinct_ratio", "found_ratio", "coverage"))
            spec.append({"name": name, "unit": unit, "better": "higher" if higher else "lower"})
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if workloads is None:
        print(f"cannot import srlab from {tracing.SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = traced_run(wl, args.seconds)
        else:
            result = timed_run(wl, args.seconds)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads.

Every workload is a closed loop with one client: an op starts only after the
previous one returned.  Ops come in rounds of a fixed composition (the kinds
in `ROUND`), shuffled per round, so a run of whole rounds always mixes kinds
in the same proportions whatever the seed; the seed chooses the instances.
The driver kinds of a round are in the proportions of the sections of
`experiments.batch_report` at its default scale (quick), which is what
`srlab experiment batch` runs, except on free_ring (see its ROUND).
Op `i` draws its instance from its own generator, seeded by
(workload, seed, i), so the same seed gives the same inputs however long the
run is.  Negative indices are the warm-up ops, which are the same for every
seed so that set-up time does not depend on it.

Driver ops and random graphs take their instance classes (set size, label
and term counts, member count, presentation and syllable counts, vertex
count) from a fixed schedule in the generator's own proportions instead of
drawing them: the op's seed stream is searched for a seed whose instance,
rebuilt from the generator's first draws, falls in the class the schedule
asks for.  Seeds still choose every instance; the schedule only
fixes how many instances of each class a run holds, which otherwise moves
the run's mean and percentiles from seed to seed.  The drivers' draw order
is part of their byte-identical reports, so it does not change under the
benchmark.

`prepare(i)` builds op i's input outside the timed region and returns
`(kind, fn, check)`: `fn()` is the timed call into srlab and `check(value)`
returns `(payload, problem)`, the op's canonical result and None when the
answer is correct, else a description of what is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import tracing

tracing.ensure_src_path()

from srlab import cli  # noqa: E402
from srlab import experiments as ex  # noqa: E402
from srlab import hnn  # noqa: E402
from srlab import sr_graph as gr  # noqa: E402
from srlab import words  # noqa: E402
from srlab.errors import HypothesisViolation, SearchBudgetExceeded  # noqa: E402

OUT_DIR = os.path.join(tracing.ROOT, ".perfbench_out")


def _rng(name, seed, *parts) -> random.Random:
    # str seeds hash with SHA-512, so streams are stable across processes
    if parts and isinstance(parts[-1], int) and parts[-1] < 0:
        seed = "warm-up"
    return random.Random(":".join(str(p) for p in (name, seed) + parts))


def _driver_seed(rng: random.Random, classify, want) -> int:
    """A seed from rng whose driver instance falls in class want."""
    while True:
        s = rng.getrandbits(32)
        if classify(s) == want:
            return s


# (classify(seed), schedule): the class of the instance a driver builds from
# a seed, rebuilt with the driver's first draws or its own public generator,
# and the order in which ops of that kind take the classes.


def _set_size(s):
    return random.Random(s).randint(1, 3)


def _support_class(s):
    # support_series_report(runs=1) starts with random_support_family(rng);
    # its cost follows the label count and the total phi terms
    family = ex.random_support_family(random.Random(s))
    return len(family), sum(len(phi.terms) for _, phi, _ in family)


def _counting_class(s):
    # counting_report(runs=1) draws a right and then a left instance
    rng = random.Random(s)
    sets, _ = ex.random_right_instance(rng)
    blocks, _ = ex.random_left_instance(rng)
    return len(sets[0].elements), len(blocks)


def _hnn_class(s):
    # hnn_witness_report(count=1) draws two pool words for the presentation,
    # whose hypotheses always hold, then the member count, which sets its cost
    rng = random.Random(s)
    rng.choice(ex._RANK_ONE_POOL)
    rng.choice(ex._RANK_ONE_POOL)
    return rng.randint(1, 2)


# amalgam_witness_report's member pools, one per reference presentation
AMALGAM_POOLS = [list(ex.iter_bounded_amalgam_elements(p, 2, 1)) for p in ex.fixed_amalgam_presentations()]


def _amalgam_class(s):
    # amalgam_witness_report(count=1) draws a presentation, then its members;
    # the cost follows the presentation and the members' syllable counts
    rng = random.Random(s)
    pool = AMALGAM_POOLS[rng.randrange(2)]
    members = rng.sample(pool, rng.randint(1, 2))
    return AMALGAM_POOLS.index(pool), tuple(sorted(len(m.syllables) for m in members))


def _amalgam_weights() -> dict:
    """Each amalgam class's chance under the driver's own draws."""
    weights: dict = {}
    for i, pool in enumerate(AMALGAM_POOLS):
        for k in (1, 2):
            subsets = list(itertools.combinations(pool, k))
            for members in subsets:
                c = i, tuple(sorted(len(m.syllables) for m in members))
                weights[c] = weights.get(c, 0) + Fraction(1, 4 * len(subsets))
    return weights


def _even_schedule(weights: dict, length: int) -> tuple:
    """`length` classes in which every prefix holds each class as often as
    its weight asks, to within one: each slot goes to the class furthest
    behind its share."""
    counts = dict.fromkeys(weights, 0)
    out = []
    for n in range(1, length + 1):
        c = max(weights, key=lambda c: (weights[c] * n - counts[c], weights[c]))
        counts[c] += 1
        out.append(c)
    return tuple(out)


SET_SIZE = (_set_size, (1, 2, 3))
# 24 slots holding each (labels, phi terms) class as often as the driver
# draws it: labels uniform in 1..3, one or two phi terms per label
SUPPORT = (
    _support_class,
    (
        (1, 1), (2, 3), (3, 4), (1, 2), (2, 2), (3, 5),
        (1, 1), (2, 4), (3, 4), (1, 2), (2, 3), (3, 3),
        (1, 1), (2, 3), (3, 5), (1, 2), (2, 2), (3, 4),
        (1, 1), (2, 4), (3, 6), (1, 2), (2, 3), (3, 5),
    ),
)
COUNTING = (_counting_class, ((1, 1), (2, 2), (1, 3), (2, 1), (1, 2), (2, 3)))
HNN = (_hnn_class, (1, 2))
# a run makes far fewer amalgam ops than this schedule holds, so its class
# counts stay within one of the driver's shares
AMALGAM = (_amalgam_class, _even_schedule(_amalgam_weights(), 364))
# random_sr_graph(rng) first draws its vertex count, uniform in 1..10
GRAPH_SIZE = (lambda s: random.Random(s).randint(1, 10), (1, 6, 3, 8, 5, 10, 2, 7, 4, 9))


def _holds(report: dict):
    return report, None if report["holds"] else "report does not hold"


class Workload:
    name = ""
    ROUND: tuple = ()
    WARM_UP: tuple = ()
    # graphs-tail inputs drawn, and how many of them the cycle search could
    # not decide within its budget; only Graphs draws any
    tail_draws = 0
    tail_exhausted = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None
        self._seeds: dict[int, int] = {}

    def setup(self) -> None:
        """Build whatever inputs ops share; repeatable."""

    def close(self) -> None:
        """Remove what setup left on disk."""

    def kind_at(self, i: int) -> tuple[str, int]:
        """Op i's kind, and its class index: the count of ops of that kind
        in earlier rounds and earlier in this round (0 for warm-up ops)."""
        if i < 0:
            return self.WARM_UP[-1 - i], 0
        n = len(self.ROUND)
        order = list(self.ROUND)
        _rng(self.name, self.seed, "round", i // n).shuffle(order)
        kind = order[i % n]
        return kind, i // n * self.ROUND.count(kind) + order[: i % n].count(kind)

    def driver_seed(self, i: int, classes) -> int:
        """Op i's driver seed, in the class its place in the schedule asks
        for.  Kept, so a traced pass repeats no classification work."""
        if i not in self._seeds:
            classify, schedule = classes
            nth = self.kind_at(i)[1]
            want = schedule[nth % len(schedule)]
            self._seeds[i] = _driver_seed(_rng(self.name, self.seed, i), classify, want)
        return self._seeds[i]

    def warm_up(self) -> None:
        for j in range(len(self.WARM_UP)):
            _, fn, _ = self.prepare(-1 - j)
            try:
                fn()
            except Exception:  # a failing warm-up op is counted when timed
                pass

    def prepare(self, i: int):
        raise NotImplementedError


class FreeRing(Workload):
    """Gate drivers over the rank-2 free group: star_check products of cheap
    free words, ring arithmetic and translation tables."""

    name = "free_ring"
    # batch_report(scale="quick") runs 10 witness, 10 counting, 5 support.
    # Ops of this workload fall in latency clusters with a gap between about
    # 95 and 120 ms, and at batch's 2:2:1 47-50% of them lie below it, so the
    # run median jumped across the gap from seed to seed.  At 1:2:2 about 39%
    # lie below it and the median stays inside the upper cluster.
    ROUND = ("witness", "counting", "counting", "support", "support")
    WARM_UP = ("support", "witness", "counting")

    def prepare(self, i):
        kind = self.kind_at(i)[0]
        if kind == "support":
            s = self.driver_seed(i, SUPPORT)
            fn = lambda: ex.support_series_report(runs=1, seed=s)
        elif kind == "witness":
            s = self.driver_seed(i, SET_SIZE)
            fn = lambda: ex.witness_sweep_report(count=1, seed=s, check_len=6)
        else:
            s = self.driver_seed(i, COUNTING)
            fn = lambda: ex.counting_report(runs=1, seed=s)
        return kind, fn, _holds


class NormalForms(Workload):
    """Gate drivers whose products are HNN and amalgam normal forms, plus
    batches of the degenerate-extension identity oracle."""

    name = "normal_forms"
    # batch_report(scale="quick") runs 5 amalgam and 3 HNN witness instances
    # and one oracle section over the 1,555 sequences of length <= 4
    ROUND = ("amalgam",) * 5 + ("hnn",) * 3 + ("oracle",)
    WARM_UP = ("amalgam", "hnn", "oracle")
    ORACLE_BATCH = 1555

    def setup(self):
        self.p = hnn.HnnPresentation(words.Alphabet(("a", "b")), "t", (), ())

    def _sequences(self, rng):
        letters = (1, -1, 2, -2, 3, -3)
        seqs = []
        for j in range(self.ORACLE_BATCH):
            if j % 2:
                seqs.append(tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))))
            else:  # u u^-1 with a letter possibly swapped: identity-rich
                u = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
                v = [-x for x in reversed(u)]
                if rng.random() < 0.5:
                    v[rng.randrange(len(v))] = rng.choice(letters)
                seqs.append(tuple(u + v))
        return seqs

    def prepare(self, i):
        kind = self.kind_at(i)[0]
        rng = _rng(self.name, self.seed, i)
        if kind == "amalgam":
            s = self.driver_seed(i, AMALGAM)
            return kind, lambda: ex.amalgam_witness_report(count=1, seed=s), _holds
        if kind == "hnn":
            s = self.driver_seed(i, HNN)
            return kind, lambda: ex.hnn_witness_report(count=1, seed=s), _holds
        p, seqs = self.p, self._sequences(rng)
        full = p.full_alphabet

        def oracle():
            return [
                (
                    hnn.is_identity(p, ex.hnn_word_from_signed(p, seq)),
                    words.from_signed(full, seq).is_identity,
                )
                for seq in seqs
            ]

        def check(pairs):
            bad = sum(a != b for a, b in pairs)
            payload = {"oracle": "".join("1" if a else "0" for a, _ in pairs)}
            return payload, f"{bad} oracle mismatches" if bad else None

        return kind, oracle, check


class Graphs(Workload):
    """Two-coloured clique-union graphs: exhaustive-family members, seeded
    random and planted instances, and a tail of sparse graphs with hundreds
    to a thousand vertices."""

    name = "graphs"
    # batch_report(scale="quick") visits 73 family members, 300 random and 50
    # planted graphs; it runs no tail, which gets one op per tail size
    ROUND = ("family",) * 3 + ("random",) * 12 + ("planted",) * 2 + ("tail",) * 5
    WARM_UP = ("family", "random", "planted", "tail")
    FAMILY_MAX_N = 8
    FAMILY_SAMPLE = 512
    # the k-th tail op of a run has TAIL_N[k mod 5] vertices and F-degree
    # TAIL_DEGREES[k mod 3], so every 15 tail ops hold each pair once
    TAIL_N = (200, 400, 600, 800, 1000)
    TAIL_DEGREES = (1, 2, 3)
    # expansion budget of every cycle search; the library default (10^7) takes
    # several seconds to exhaust on the sparse tail, longer than a run allows
    SEARCH_BUDGET = 100_000

    def setup(self):
        # reservoir sample of the exhaustive family, kept in enumeration order
        rng = _rng(self.name, self.seed, "family")
        k = self.FAMILY_SAMPLE
        sample: list[tuple[int, object]] = []
        for idx, g in enumerate(ex.iter_two_clique_family(self.FAMILY_MAX_N)):
            if idx < k:
                sample.append((idx, g))
            else:
                j = rng.randrange(idx + 1)
                if j < k:
                    sample[j] = (idx, g)
        self.family = [_raw(g) for _, g in sorted(sample, key=lambda t: t[0])]

    def _tail(self, rng, n, d):
        verts = list(range(1, n + 1))
        pool = verts[:]
        rng.shuffle(pool)
        blocks, i = [], 0
        while i < n:
            size = rng.randint(1, 3)
            blocks.append(pool[i : i + size])
            i += size
        block_of = {v: b for b, blk in enumerate(blocks) for v in blk}
        e_edges = [(u, v) for blk in blocks for j, u in enumerate(blk) for v in blk[j + 1 :]]
        f_edges: set = set()
        while len(f_edges) < n * d // 2:
            u, v = rng.sample(verts, 2)
            if block_of[u] != block_of[v]:
                f_edges.add((min(u, v), max(u, v)))
        return verts, e_edges, sorted(f_edges)

    def _decided_tail(self, i, n, d):
        """Op i's tail graph: the first one drawn from the op's stream on
        which the budgeted cycle search ends, with a cycle or without.
        Searches that exhaust the budget (SearchBudgetExceeded) are left out
        of the workload, so no op fails, and counted in tail_exhausted; the
        draw count is kept, so a traced pass repeats no search outside its
        ops."""
        rng = _rng(self.name, self.seed, i)
        if i in self._seeds:
            for _ in range(self._seeds[i]):
                self._tail(rng, n, d)
            return self._tail(rng, n, d)
        for draws in itertools.count():  # about one sparse graph in five exhausts it
            raw = self._tail(rng, n, d)
            self.tail_draws += 1
            try:
                gr.find_sr_cycle(gr.validate(*raw), self.SEARCH_BUDGET)
            except SearchBudgetExceeded:
                self.tail_exhausted += 1
                continue
            self._seeds[i] = draws
            return raw

    def prepare(self, i):
        kind, nth = self.kind_at(i)
        rng = _rng(self.name, self.seed, i)
        if kind == "family":
            raw = self.family[nth % len(self.family)]
        elif kind == "random":
            raw = _raw(ex.random_sr_graph(random.Random(self.driver_seed(i, GRAPH_SIZE))))
        elif kind == "planted":
            raw = _raw(ex.random_planted_multipartite(rng))
        else:
            n = self.TAIL_N[nth % len(self.TAIL_N)]
            raw = self._decided_tail(i, n, self.TAIL_DEGREES[nth % len(self.TAIL_DEGREES)])
        budget = self.SEARCH_BUDGET

        def op():
            g = gr.validate(*raw)
            try:
                crit = gr.complete_criterion(g)
            except HypothesisViolation:
                crit = None
            try:
                cycle = gr.find_sr_cycle(g, budget)
            except Exception as exc:  # the op fails, after stats has run too
                cycle, failure = None, exc
            else:
                failure = None
            verified = cycle is not None and gr.verify_cycle(g, cycle)
            st = gr.stats(g)
            if failure is not None:
                raise failure
            return crit, cycle, verified, st

        def check(value):
            crit, cycle, verified, st = value
            payload = {
                "kind": kind,
                "criterion": crit,
                "cycle": None if cycle is None else list(cycle.vertex_sequence),
                "c_g": st.c_g,
                "c_h": st.c_h,
                "i_g": list(st.i_g),
                "i_h": list(st.i_h),
                "cut": list(st.cut_vertices),
            }
            if cycle is not None and not verified:
                return payload, "cycle certificate does not verify"
            if kind == "family" and crit is None:
                return payload, "criterion hypotheses fail on a family member"
            if crit is not None and crit != (cycle is not None):
                return payload, "criterion disagrees with cycle search"
            if kind == "planted" and cycle is None:
                return payload, "planted instance without a cycle"
            if cycle is None and not (st.i_g or st.i_h or st.cut_vertices):
                return payload, "cycle-free graph without an isolated or cut vertex"
            return payload, None

        return kind, op, check


def _raw(g) -> tuple[list, list, list]:
    return list(g.vertices), sorted(g.e_edges), sorted(g.f_edges)


# -- one-shot CLI commands -----------------------------------------------------------


def _word(rng, symbols, lo, hi) -> str:
    n = rng.randint(lo, hi)
    return " ".join(rng.choice(symbols) + rng.choice(("", "^-1")) for _ in range(n))


def _brace(items) -> str:
    return "{" + ", ".join(items) + "}"


def _terms(ring_element) -> str:
    return ", ".join(f"{c}*{g}" for g, c in ring_element.terms)


def _amalgam_word(rng, p) -> str:
    tag = rng.choice("AB")
    parts = []
    for _ in range(rng.randint(1, 3)):
        parts.append(f"{tag}: {_word(rng, p.alphabet_of(tag).symbols, 1, 2)}")
        tag = "B" if tag == "A" else "A"
    return " | ".join(parts)


class CliOneshot(Workload):
    """One fresh `python -m srlab.cli` process per op, compared byte for byte
    with an in-process `srlab.cli.main` run made during set-up.  Bounds stay
    small, so interpreter start, import and argument parsing dominate."""

    name = "cli_oneshot"
    # the experiment group is left out: its one leaf, `batch`, is a 13 s op
    ROUND = ("graph", "words", "subgroup", "star", "hnn", "amalgam", "ring")
    WARM_UP = ("words",)
    POOL = 6  # distinct commands per group; rounds cycle through them

    def setup(self):
        self.close()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        self.commands = {}
        for group in self.ROUND:
            for k in range(self.POOL):
                argv = self._command(group, k)
                self.commands[group, k] = (argv, _in_process(argv))
        for j, group in enumerate(self.WARM_UP):
            argv = self._command(group, -1 - j)
            self.commands[group, -1 - j] = (argv, _in_process(argv))

    def close(self):
        if getattr(self, "dir", None):
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def _file(self, name, text) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _command(self, group, k) -> list[str]:
        """Command k of a group.  Leaves cycle with k, the same for every seed,
        so that seeds differ in arguments, not in how many slow leaves they
        hold."""
        rng = _rng(self.name, self.seed, group, k)
        pick = lambda leaves: leaves[k % len(leaves)]
        ab = ("a", "b")
        if group == "graph":
            g = ex.random_sr_graph(rng, 8) if k // 4 % 2 else ex.random_planted_multipartite(rng)
            leaf = pick(("validate", "stats", "find-cycle", "criterion"))
            return ["graph", leaf, self._file(f"graph-{k}.json", gr.graph_to_json(g))]
        if group == "words":
            leaf = pick(("reduce", "cyclic", "sigma"))
            argv = ["words", leaf, _word(rng, ab, 2, 10)]
            return argv + ["--generator", rng.choice(ab)] if leaf == "sigma" else argv
        if group == "subgroup":
            gens = "; ".join(_word(rng, ab, 1, 3) for _ in range(rng.randint(1, 2)))
            leaf = pick(("member", "coset", "intersect"))
            if leaf == "intersect":
                return ["subgroup", leaf, "--gens", gens, "--gens2", _word(rng, ab, 1, 3)]
            return ["subgroup", leaf, "--gens", gens, _word(rng, ab, 1, 6)]
        if group == "star":
            members = lambda: _brace(_word(rng, ab, 1, 3) for _ in range(rng.randint(1, 2)))
            leaf = pick(("closure", "conjugate", "check", "witness-free"))
            if leaf == "closure":
                return ["star", leaf, "--set", members()]
            if leaf == "conjugate":
                return ["star", leaf, "--set", members(), "--by", _word(rng, ab, 1, 3)]
            if leaf == "check":
                return ["star", leaf, "--sets", f"{members()};{members()}", "--max-len", "3"]
            return ["star", leaf, "--set", members(), "--max-product-len", "3"]
        if group == "hnn":
            p = ex.random_rank_one_presentation(rng)
            path = self._file(f"hnn-{k}.json", p.to_json())
            leaf = pick(("reduce", "normal", "identity", "hypotheses", "witness"))
            if leaf == "hypotheses":
                return ["hnn", leaf, path, "--search-len", "4"]
            if leaf == "witness":
                elements = "; ".join(rng.sample(("a", "a h", "h a^-1"), rng.randint(1, 2)))
                return ["hnn", leaf, path, "--elements", elements, "--search-len", "4",
                        "--max-product-len", "2"]
            return ["hnn", leaf, path, _word(rng, ("a", "h", "t"), 2, 8)]
        if group == "amalgam":
            p = ex.fixed_amalgam_presentations()[rng.randrange(2)]
            path = self._file(f"amalgam-{k}.json", p.to_json())
            leaf = pick(("reduce", "type", "dagger", "lemma45", "witness", "free-gens"))
            if leaf in ("reduce", "type"):
                return ["amalgam", leaf, path, _amalgam_word(rng, p)]
            if leaf == "dagger":
                return ["amalgam", leaf, path]
            if leaf == "lemma45":
                return ["amalgam", leaf, path, "--f", _amalgam_word(rng, p)]
            if leaf == "witness":
                return ["amalgam", leaf, path, "--elements", _amalgam_word(rng, p),
                        "--max-product-len", "2"]
            kind = rng.choice(("A-large", "B-large", "H-large"))
            return ["amalgam", leaf, path, "--kind", kind, "--count", "2", "--max-product-len", "2"]
        leaf = pick(("epsilon", "lemma32", "lemma33", "support-bound"))
        if leaf == "epsilon":
            return ["ring", leaf, "--phi", _terms(ex.random_support_family(rng)[0][1])]
        if leaf == "lemma32":
            sets, translators = ex.random_right_instance(rng)
            argv = ["ring", leaf]
            for flag, s in zip(("--s1", "--s2", "--s3"), sets):
                argv += [flag, _brace(str(w) for w in s.elements)]
            return argv + ["--t", "; ".join(str(w) for w in translators), "--max-product-len", "4"]
        if leaf == "lemma33":
            s_list, _ = ex.random_left_instance(rng)
            sets = ";".join(_brace(str(w) for w in s) for s in s_list)
            return ["ring", leaf, "--sets", sets, "--max-product-len", "4"]
        label, phi, u = ex.random_support_family(rng)[0]
        instance = f"{label} | {_terms(phi)} | {_terms(u)}"
        return ["ring", leaf, "--instance", instance, "--max-product-len", "3"]

    def prepare(self, i):
        kind, nth = self.kind_at(i)
        k = i if i < 0 else nth % self.POOL
        argv, (want_code, want_out) = self.commands[kind, k]

        def op():
            if self.tracer is None:
                return _subprocess([sys.executable, "-m", "srlab.cli", *argv])
            out = os.path.join(self.dir, "trace.json")
            got = _subprocess([sys.executable, tracing.__file__, out, *argv])
            with open(out, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            os.remove(out)
            return got

        def check(got):
            code, out, err = got
            payload = {"argv": argv[:2], "code": code, "stdout": out.decode("utf-8", "replace")}
            if b"Traceback" in err or code not in (0, 1, 2):
                return payload, f"crash: exit {code}"
            if (code, out) != (want_code, want_out):
                return payload, "differs from the in-process result"
            return payload, None

        return kind, op, check


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (tracing.SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _subprocess(cmd) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=tracing.ROOT, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv) -> tuple[int | None, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception:  # a crash: the subprocess must not match it
            code = None
    return code, out.getvalue().encode("utf-8")


WORKLOADS = {w.name: w for w in (FreeRing, NormalForms, Graphs, CliOneshot)}

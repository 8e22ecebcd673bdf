"""Outside-in layer tracing for the srlab benchmark.

`Tracer.install()` replaces the public functions of every `srlab.*` module,
in every `srlab.*` namespace that binds them, and a fixed set of methods on
the group-operation and subgroup classes, with timing wrappers;
`Tracer.restore()` puts every original binding back.  No file of the library
is touched.

Only calls made inside an op (between `begin_op` and `end_op`) are counted,
unless the tracer is made with `between_ops=True`, as the one that traces a
workload's set-up is.  Hot inner calls keep no spans: each wrapped function
aggregates its call count, self time and (outermost-only) total time online,
with a per-call stack.  Full spans, each with its parent span and op id, are kept only for
ops and for calls that enter a new layer near the top of the stack; they are
written out when the run ends.

Run as a script, this module is the traced form of a one-shot CLI command:
`python perfbench/tracing.py OUT.json ARGV...` runs `srlab.cli.main(ARGV)`
under a tracer and writes the aggregates to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

LAYERS = (
    "words",
    "subgroups",
    "elements",
    "star_check",
    "hnn",
    "amalgam",
    "ring_lab",
    "sr_graph",
    "experiments",
    "cli",
)

METHODS = {
    "elements.FreeGroupOps": ("multiply",),
    "hnn.HnnOps": ("multiply", "invert"),
    "amalgam.AmalgamOps": ("multiply", "invert"),
    "subgroups.SubgroupAutomaton": ("contains", "coset_representative", "express"),
    "hnn.HnnPresentation": ("phi", "phi_inv"),
    "hnn.HnnWord": ("__post_init__",),
}

# In cli only the entry point is wrapped, so its self time is the front end's
# own work (argument parsing, handlers, report emission).
CLI_FUNCTIONS = ("main",)

# (left, right) products that are counted, per check, as star_check.group_multiply
GROUP_MULTIPLY = (
    "elements.FreeGroupOps.multiply",
    "hnn.HnnOps.multiply",
    "amalgam.AmalgamOps.multiply",
)
CHECK = "star_check.check_mutually_reduced"
# calls whose distinct arguments are counted per op
DISTINCT = (
    "subgroups.SubgroupAutomaton.coset_representative",
    "subgroups.SubgroupAutomaton.express",
    "hnn.HnnPresentation.phi",
    "amalgam.AmalgamOps.multiply",
)
# Wrapped without timing: a free-group product only delegates to
# words.multiply, and timing it would double the tracing cost of the hottest
# call in the library.  HnnWord construction is only counted.
COUNT_ONLY = ("elements.FreeGroupOps.multiply", "hnn.HnnWord.__post_init__")
# per-call work counters, by wrapped function: positional args -> amount
COUNTERS = {
    "words.multiply": lambda a: len(a[0]) + len(a[1]),
    "amalgam.amalgam_reduce": lambda a: len(a[1]) if hasattr(a[1], "__len__") else 0,
    "ring_lab.ring_mul": lambda a: len(a[0]) * len(a[1]),
    "sr_graph.stats": lambda a: a[0].n + len(a[0].e_edges) + len(a[0].f_edges),
}
SPAN_DEPTH = 3  # op frame is depth 1
SPANS_PER_OP = 64


def _is_input_generator(key: str) -> bool:
    layer, _, name = key.partition(".")
    return layer == "experiments" and name.startswith(("random_", "iter_"))


def ensure_src_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def srlab_modules() -> dict:
    ensure_src_path()
    return {name: importlib.import_module(f"srlab.{name}") for name in LAYERS}


def bindings_snapshot() -> dict:
    """Every attribute binding of every srlab module and traced class, by
    identity, so a test can assert that restore() left nothing behind."""
    mods = srlab_modules()
    snap = {}
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = id(obj)
    for qual in METHODS:
        cls = _resolve(mods, qual)
        for attr, obj in vars(cls).items():
            snap[(qual, attr)] = id(obj)
    return snap


def _resolve(mods: dict, qual: str):
    layer, _, cls = qual.partition(".")
    return getattr(mods[layer], cls)


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.extra = 0


class Tracer:
    """Aggregating call tracer; one per traced phase."""

    def __init__(self, between_ops: bool = False) -> None:
        self.between_ops = between_ops  # count calls made outside an op too
        self.stats: dict[str, _Stat] = {}
        # frame: [child_time, layer, span_id]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.op_id = None
        self._op_spans = 0
        self.op_self_s = 0.0
        self.input_gen_s = 0.0
        self._gen_depth = 0
        self._check_depth = 0
        self._check_pairs: set = set()
        self.group_calls = 0
        self.group_distinct = 0
        self._op_sets: dict[str, set] = {k: set() for k in DISTINCT}
        self._keepalive: dict = {}
        self.distinct: dict[str, int] = {k: 0 for k in DISTINCT}
        self._saved: list[tuple] = []
        self._origin = time.perf_counter()

    # -- patching -------------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = srlab_modules()
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for qual, names in METHODS.items():
            cls = _resolve(mods, qual)
            layer = qual.partition(".")[0]
            for attr in names:
                obj = cls.__dict__[attr]
                self._saved.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"{qual}.{attr}", layer, obj))

    def restore(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def _wrap(self, key: str, layer: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        hook = self._hook_for(key)
        # an empty stack means no op is running: such calls go straight through
        stack = self.stack
        between_ops = self.between_ops
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if stack or between_ops:
                    stat.calls += 1
                    if hook is not None:
                        hook(args)
                return fn(*args, **kwargs)

            return counted

        input_gen = _is_input_generator(key)
        found = key == "sr_graph.find_sr_cycle"
        tracer = self
        perf = time.perf_counter

        def enter():
            caller = stack[-1] if stack else None
            span = None if caller is None else caller[2]
            if (
                caller is not None
                and len(stack) < SPAN_DEPTH
                and caller[1] != layer
                and tracer.op_id is not None
            ):
                span = tracer._open_span(caller[2], key)
            frame = [0.0, layer, span]
            stack.append(frame)
            stat.depth += 1
            if input_gen:
                tracer._gen_depth += 1
            return frame

        def leave(frame, dt):
            stack.pop()
            stat.depth -= 1
            stat.calls += 1
            own = dt - frame[0]
            stat.self_s += own
            if stat.depth == 0:
                stat.total_s += dt
            caller_span = None
            if stack:
                caller = stack[-1]
                caller[0] += dt
                caller_span = caller[2]
                if tracer.op_id is not None:
                    tracer.op_self_s += own
            if input_gen:
                tracer._gen_depth -= 1
                if tracer._gen_depth == 0:
                    tracer.input_gen_s += dt
            if frame[2] is not None and frame[2] != caller_span:
                tracer.spans[frame[2]][5] = perf()

        if inspect.isgeneratorfunction(fn):

            def traced_gen(it):
                while True:
                    frame = enter()
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(frame, perf() - t0)
                        return
                    except BaseException:
                        leave(frame, perf() - t0)
                        raise
                    leave(frame, perf() - t0)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                return traced_gen(it) if stack or between_ops else it

            return gen_wrapper

        check = key == CHECK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # enter() and leave() inlined: this runs on every hot call
            if not stack and not between_ops:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            if check:
                tracer._check_depth += 1
            caller = stack[-1] if stack else None
            if caller is None:
                frame = [0.0, layer, None]
            elif len(stack) < SPAN_DEPTH and caller[1] != layer and tracer.op_id is not None:
                frame = [0.0, layer, tracer._open_span(caller[2], key)]
            else:
                frame = [0.0, layer, caller[2]]
            stack.append(frame)
            stat.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                own = dt - frame[0]
                stat.self_s += own
                if stat.depth == 0:
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt
                    if tracer.op_id is not None:
                        tracer.op_self_s += own
                    if frame[2] is not None and frame[2] != stack[-1][2]:
                        tracer.spans[frame[2]][5] = perf()
                if check:
                    tracer._check_depth -= 1
                    if tracer._check_depth == 0:
                        tracer.group_distinct += len(tracer._check_pairs)
                        tracer._check_pairs = set()
            if found and result is not None:
                stat.extra += 1
            return result

        return wrapper

    def _hook_for(self, key: str):
        """Per-call bookkeeping before the call, or None: a work counter, the
        distinct-argument set of the current op, or the product pairs of the
        current check."""
        stat = self.stats[key]
        tracer = self
        if key in COUNTERS:
            count = COUNTERS[key]

            def hook(args):
                stat.extra += count(args)

            return hook
        seen = self._op_sets.get(key)
        group = key in GROUP_MULTIPLY
        if seen is None and not group:
            return None
        keep = self._keepalive

        def hook(args):
            # a Word's letters identify it within the receiver's presentation
            owner = args[0]
            keep[id(owner)] = owner
            k = (id(owner),) + tuple(getattr(a, "letters", a) for a in args[1:])
            if seen is not None:
                seen.add(k)
            if group and tracer._check_depth:
                tracer.group_calls += 1
                tracer._check_pairs.add(k)

        if seen is None or group:
            return hook

        def hook2(args):  # the hot one-argument case: (receiver, word)
            owner, w = args
            keep[id(owner)] = owner
            seen.add((id(owner), w.letters))

        return hook2

    def _open_span(self, parent, key):
        """A new span under `parent`, or `parent` itself once the op has
        SPANS_PER_OP spans (an op that calls a layer in a loop)."""
        if self._op_spans >= SPANS_PER_OP:
            return parent
        self._op_spans += 1
        span = len(self.spans)
        self.spans.append([span, parent, self.op_id, key, time.perf_counter(), None])
        return span

    # -- op boundaries --------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._flush_distinct()
        self.op_id = op_id
        self._op_spans = 0
        span = len(self.spans)
        self.spans.append([span, None, op_id, "op", time.perf_counter(), None])
        self.stack.append([0.0, "op", span])

    def end_op(self) -> None:
        frame = self.stack.pop()
        self.spans[frame[2]][5] = time.perf_counter()
        self.op_id = None
        self._flush_distinct()

    def _flush_distinct(self) -> None:
        for key, seen in self._op_sets.items():
            self.distinct[key] += len(seen)
            seen.clear()
        self._keepalive.clear()

    # -- results --------------------------------------------------------------------

    def export(self) -> dict:
        """Aggregates as plain data; merge() adds them into another tracer."""
        self._flush_distinct()
        return {
            "stats": {
                k: [s.calls, s.self_s, s.total_s, s.extra]
                for k, s in self.stats.items()
            },
            "distinct": dict(self.distinct),
            "group_calls": self.group_calls,
            "group_distinct": self.group_distinct,
            "op_self_s": self.op_self_s,
            "input_gen_s": self.input_gen_s,
        }

    def merge(self, data: dict) -> None:
        for key, (calls, self_s, total_s, extra) in data["stats"].items():
            s = self.stats.setdefault(key, _Stat())
            s.calls += calls
            s.self_s += self_s
            s.total_s += total_s
            s.extra += extra
        for key, n in data["distinct"].items():
            self.distinct[key] += n
        self.group_calls += data["group_calls"]
        self.group_distinct += data["group_distinct"]
        self.op_self_s += data["op_self_s"]
        self.input_gen_s += data["input_gen_s"]

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": span,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start_s": start - self._origin,
                            "end_s": None if end is None else end - self._origin,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict:
        """The per-layer metrics that come from wrapped calls, by name."""
        st = self.stats
        get = lambda k: st.get(k) or _Stat()

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}

        def calls_self(name, key=None, total=False):
            s = get(key or name)
            m[f"{name}.calls"] = s.calls
            m[f"{name}.self_s"] = s.self_s
            if total:
                m[f"{name}.total_s"] = s.total_s

        def distinct(name, key):
            m[f"{name}.distinct_ratio"] = ratio(self.distinct[key], get(key).calls)

        calls_self("words.multiply")
        m["words.multiply.letters"] = get("words.multiply").extra
        calls_self("words.invert")
        calls_self("words.from_signed")
        for fn in ("contains", "coset_representative", "express"):
            calls_self(f"subgroups.{fn}", f"subgroups.SubgroupAutomaton.{fn}")
        for fn in ("coset_representative", "express"):
            distinct(f"subgroups.{fn}", f"subgroups.SubgroupAutomaton.{fn}")
        calls_self(CHECK, total=True)
        m["star_check.group_multiply.calls"] = self.group_calls
        m["star_check.group_multiply.distinct_ratio"] = ratio(self.group_distinct, self.group_calls)
        calls_self("star_check.find_relation")
        calls_self("hnn.normal_form")
        calls_self("hnn.is_identity")
        m["hnn.ops_multiply.calls"] = get("hnn.HnnOps.multiply").calls
        m["hnn.phi.calls"] = get("hnn.HnnPresentation.phi").calls
        distinct("hnn.phi", "hnn.HnnPresentation.phi")
        m["hnn.word_constructions"] = get("hnn.HnnWord.__post_init__").calls
        calls_self("amalgam.amalgam_reduce")
        m["amalgam.amalgam_reduce.syllables_in"] = get("amalgam.amalgam_reduce").extra
        ops_mul = get("amalgam.AmalgamOps.multiply")
        m["amalgam.ops_multiply.calls"] = ops_mul.calls
        m["amalgam.ops_multiply.total_s"] = ops_mul.total_s
        distinct("amalgam.ops_multiply", "amalgam.AmalgamOps.multiply")
        calls_self("amalgam.classify_reduced_form")
        calls_self("ring_lab.ring_mul")
        m["ring_lab.ring_mul.term_pairs"] = get("ring_lab.ring_mul").extra
        for fn in ("right_translation_table", "left_translation_table", "support_bound_experiment"):
            calls_self(f"ring_lab.{fn}")
        m["ring_lab.canonical_form.calls"] = get("ring_lab.canonical_form").calls
        calls_self("sr_graph.find_sr_cycle")
        find = get("sr_graph.find_sr_cycle")
        m["sr_graph.find_sr_cycle.found_ratio"] = ratio(find.extra, find.calls)
        calls_self("sr_graph.stats")
        m["sr_graph.stats.size_in"] = get("sr_graph.stats").extra
        calls_self("sr_graph.complete_criterion")
        calls_self("sr_graph.validate")
        for layer in LAYERS[:-1]:  # cli's one wrapped function is cli.main
            m[f"{layer}.self_s"] = sum(
                s.self_s for k, s in st.items() if k.partition(".")[0] == layer
            )
        m["experiments.input_gen_s"] = self.input_gen_s
        m["cli.main.self_s"] = get("cli.main").self_s
        return m


def _child_main(argv: list[str]) -> int:
    """Traced one-shot CLI command: OUT.json ARGV..."""
    out, args = argv[0], argv[1:]
    mods = srlab_modules()
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = mods["cli"].main(args)
    finally:
        tracer.end_op()
        tracer.restore()
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))

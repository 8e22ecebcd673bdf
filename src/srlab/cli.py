"""Command-line front end.

Each subcommand maps onto one library operation and prints a report on
stdout; positive answers ship the certificate (the cycle, the witness triple,
the counterexample sequence, the relation) so external tools can re-verify
without trusting the search.

Exit codes: 0 when the verdict holds or a certificate was found, 1 for a
definite negative verdict (including bounded searches that come back empty),
2 for precondition, budget, or input errors.

Output is UTF-8.  JSON reports have sorted keys and every report records the
seed, so a fixed command line gives byte-identical output.  File arguments
accept '-' for stdin.

Each handler imports the library module it calls, so a command loads only
the layers it uses.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import words as wd
from .elements import FreeGroupOps
from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    MalformedEdge,
    NonCompleteEComponent,
    NotFoundAtBound,
    ParseError,
    SrlabError,
    StructureMismatch,
)

FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    """Shared run options; bounds must be positive and the seed is stamped
    into every report."""

    max_product_len: int = 6
    search_len: int = 6
    expansion_budget: int = 10_000_000
    rng_seed: int = 0
    output_format: str = "json"

    def __post_init__(self) -> None:
        for name in ("max_product_len", "search_len", "expansion_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output_format not in FORMATS:
            raise ValueError(
                f"output_format must be json, csv, or text, got {self.output_format!r}"
            )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cell(value) -> str:
    if isinstance(value, (list, dict)) or value is None:
        return json.dumps(value, sort_keys=True, ensure_ascii=False)
    return value


def emit(cfg: RunConfig, report: dict, rows=None, fields=None) -> None:
    """Print one report with the run's seed: sorted-key JSON, a CSV table
    (given rows, else the flattened report), or sorted key: value text lines."""
    report = {"seed": cfg.rng_seed, **report}
    if cfg.output_format == "json":
        print(json.dumps(report, sort_keys=True, ensure_ascii=False))
        return
    if cfg.output_format == "csv":
        if rows is None:
            fields = sorted(report)
            rows = [report]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in fields])
        sys.stdout.write(buf.getvalue())
        return
    for key in sorted(report):
        print(f"{key}: {_cell(report[key])}")


# -- small parsers -----------------------------------------------------------------


def _alphabet(text: str) -> wd.Alphabet:
    symbols = tuple(s.strip() for s in text.split(",") if s.strip())
    if not symbols:
        raise ParseError(f"no generator symbols in {text!r}")
    return wd.Alphabet(symbols)


def _split_semicolons(text: str) -> list[str]:
    """Split on ';' outside braces; drop empty pieces."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == ";" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _brace_members(text: str) -> list[str]:
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"element set must be brace-delimited, got {t!r}")
    members = [m.strip() for m in t[1:-1].split(",") if m.strip()]
    if not members:
        raise ParseError(f"empty element set in {text!r}")
    return members


def _word_set(ops: FreeGroupOps, text: str):
    from . import star_check as sc
    members = [wd.parse_word(ops.alphabet, m) for m in _brace_members(text)]
    return sc.ElementSet.of(ops, members)


def _word_list(alphabet: wd.Alphabet, text: str) -> list[wd.Word]:
    return [wd.parse_word(alphabet, t) for t in _split_semicolons(text)]


def _parse_coeff(text: str):
    from fractions import Fraction
    text = text.strip()
    try:
        return Fraction(text) if "/" in text else int(text)
    except ZeroDivisionError:
        raise ParseError(f"coefficient {text!r} has a zero denominator") from None
    except ValueError:
        raise ParseError(f"coefficient {text!r} is not an integer or p/q") from None


def _ring_text(ops: FreeGroupOps, text: str, char: int):
    """Comma-separated terms, each 'word' or 'coeff*word'; '1' is the
    identity, coefficients integer or p/q."""
    from . import ring_lab as rl
    pairs = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        if "*" in term:
            coeff_text, _, word_text = term.partition("*")
            coeff = _parse_coeff(coeff_text)
        else:
            coeff, word_text = 1, term
        pairs.append((wd.parse_word(ops.alphabet, word_text.strip()), coeff))
    if not pairs:
        raise ParseError(f"no terms in {text!r}")
    return rl.ring_element(ops, pairs, char)


def _mutual_report(cfg: RunConfig, verdict, ops, extra: dict) -> int:
    report = {
        "status": verdict.status,
        "bound": verdict.bound,
        "witness": None
        if verdict.witness is None
        else [ops.fmt(g) for g in verdict.witness],
        **extra,
    }
    emit(cfg, report)
    return 0 if verdict.holds else 1


def _witness_report(cfg: RunConfig, m, xs) -> int:
    """Check the conjugates of m by the witness triple xs at the run's
    product bound, refusing copies that overlap, and report the verdict."""
    from . import star_check as sc
    verdict = sc.check_conjugated_copies(m, xs, cfg.max_product_len, cfg.expansion_budget)
    return _mutual_report(cfg, verdict, m.ops, {"witnesses": [m.ops.fmt(x) for x in xs]})


# -- graph -------------------------------------------------------------------------


def cmd_graph_validate(cfg: RunConfig, args) -> int:
    from . import sr_graph as gr
    try:
        g = gr.graph_from_json(_read_input(args.graph))
    except (MalformedEdge, DisjointnessViolation, NonCompleteEComponent) as exc:
        emit(cfg, {"valid": False, "reason": str(exc)})
        return 1
    emit(
        cfg,
        {
            "valid": True,
            "n": g.n,
            "e_edges": len(g.e_edges),
            "f_edges": len(g.f_edges),
        },
    )
    return 0


def cmd_graph_stats(cfg: RunConfig, args) -> int:
    from . import sr_graph as gr
    g = gr.graph_from_json(_read_input(args.graph))
    st = gr.stats(g)
    emit(
        cfg,
        {
            "n": g.n,
            "c_g": st.c_g,
            "c_h": st.c_h,
            "isolated_g": list(st.i_g),
            "isolated_h": list(st.i_h),
            "cut_vertices": list(st.cut_vertices),
        },
    )
    return 0


def cmd_graph_find_cycle(cfg: RunConfig, args) -> int:
    from . import sr_graph as gr
    g = gr.graph_from_json(_read_input(args.graph))
    cert = gr.cycle_certificate(g, cfg.expansion_budget)
    emit(cfg, cert)
    return 0 if cert["sr_cycle"] else 1


def cmd_graph_criterion(cfg: RunConfig, args) -> int:
    from . import sr_graph as gr
    g = gr.graph_from_json(_read_input(args.graph))
    counts = gr.criterion_counts(g)
    emit(
        cfg,
        {"criterion_holds": counts.holds, "c_g": counts.c_g, "c_h": counts.c_h, "n": g.n},
    )
    return 0 if counts.holds else 1


# -- words -------------------------------------------------------------------------


def cmd_words_reduce(cfg: RunConfig, args) -> int:
    w = wd.parse_word(_alphabet(args.alphabet), args.word)
    emit(cfg, {"word": str(w), "length": len(w)})
    return 0


def cmd_words_cyclic(cfg: RunConfig, args) -> int:
    w = wd.parse_word(_alphabet(args.alphabet), args.word)
    core, conjugator = wd.cyclic_reduce(w)
    emit(
        cfg,
        {
            "core": str(core),
            "conjugator": str(conjugator),
            "core_length": len(core),
        },
    )
    return 0


def cmd_words_sigma(cfg: RunConfig, args) -> int:
    w = wd.parse_word(_alphabet(args.alphabet), args.word)
    total = wd.exponent_sum(w, args.generator)
    emit(cfg, {"generator": args.generator, "sum": total})
    return 0


# -- subgroup ----------------------------------------------------------------------


def _subgroup(alphabet: wd.Alphabet, gens_text: str):
    from . import subgroups as sg
    return sg.from_generators(alphabet, _word_list(alphabet, gens_text))


def cmd_subgroup_member(cfg: RunConfig, args) -> int:
    alphabet = _alphabet(args.alphabet)
    h = _subgroup(alphabet, args.gens)
    w = wd.parse_word(alphabet, args.word)
    coords = h.express(w)
    if coords is None:
        emit(cfg, {"member": False, "representative": str(h.coset_representative(w))})
        return 1
    emit(cfg, {"member": True, "coordinates": list(coords)})
    return 0


def cmd_subgroup_intersect(cfg: RunConfig, args) -> int:
    from . import subgroups as sg
    alphabet = _alphabet(args.alphabet)
    meet = sg.intersect(_subgroup(alphabet, args.gens), _subgroup(alphabet, args.gens2))
    emit(cfg, {"rank": meet.rank, "basis": [str(w) for w in meet.automaton_basis()]})
    return 0


def cmd_subgroup_coset(cfg: RunConfig, args) -> int:
    alphabet = _alphabet(args.alphabet)
    h = _subgroup(alphabet, args.gens)
    w = wd.parse_word(alphabet, args.word)
    emit(cfg, {"representative": str(h.coset_representative(w))})
    return 0


# -- star --------------------------------------------------------------------------


def cmd_star_closure(cfg: RunConfig, args) -> int:
    from . import star_check as sc
    ops = FreeGroupOps(_alphabet(args.alphabet))
    closed = sc.symmetric_closure(_word_set(ops, args.set))
    emit(cfg, {"elements": [str(w) for w in closed.elements]})
    return 0


def cmd_star_conjugate(cfg: RunConfig, args) -> int:
    from . import star_check as sc
    ops = FreeGroupOps(_alphabet(args.alphabet))
    x = wd.parse_word(ops.alphabet, args.by)
    conj = sc.conjugate_set(_word_set(ops, args.set), x)
    emit(cfg, {"elements": [str(w) for w in conj.elements]})
    return 0


def cmd_star_check(cfg: RunConfig, args) -> int:
    from . import star_check as sc
    ops = FreeGroupOps(_alphabet(args.alphabet))
    sets = [_word_set(ops, part) for part in _split_semicolons(args.sets)]
    bound = args.max_len if args.max_len is not None else cfg.max_product_len
    verdict = sc.check_mutually_reduced(sets, bound, cfg.expansion_budget)
    return _mutual_report(cfg, verdict, ops, {"sets": len(sets)})


def cmd_star_witness_free(cfg: RunConfig, args) -> int:
    from . import star_check as sc
    m = _word_set(FreeGroupOps(_alphabet(args.alphabet)), args.set)
    return _witness_report(cfg, m, sc.star_witness_locally_free(m, args.x, args.y))


# -- hnn ---------------------------------------------------------------------------


def cmd_hnn_reduce(cfg: RunConfig, args) -> int:
    from . import hnn as hn
    p = hn.HnnPresentation.from_json(_read_input(args.presentation))
    w = hn.britton_reduce(p, hn.parse_hnn_word(p, args.word), cfg.expansion_budget)
    emit(cfg, {"reduced": hn.format_hnn_word(p, w), "t_length": w.t_length})
    return 0


def cmd_hnn_normal(cfg: RunConfig, args) -> int:
    from . import hnn as hn
    p = hn.HnnPresentation.from_json(_read_input(args.presentation))
    w = hn.normal_form(p, hn.parse_hnn_word(p, args.word), cfg.expansion_budget)
    emit(cfg, {"normal_form": hn.format_hnn_word(p, w), "t_length": w.t_length})
    return 0


def cmd_hnn_identity(cfg: RunConfig, args) -> int:
    from . import hnn as hn
    p = hn.HnnPresentation.from_json(_read_input(args.presentation))
    w = hn.britton_reduce(p, hn.parse_hnn_word(p, args.word), cfg.expansion_budget)
    is_id = w.is_base and w.g0.is_identity
    emit(cfg, {"identity": is_id, "reduced": hn.format_hnn_word(p, w)})
    return 0 if is_id else 1


def cmd_hnn_hypotheses(cfg: RunConfig, args) -> int:
    from . import hnn as hn
    p = hn.HnnPresentation.from_json(_read_input(args.presentation))
    g = hn.star_witness_hypotheses(p, cfg.search_len)
    outside = hn.find_word_outside(p, cfg.search_len)
    emit(
        cfg,
        {
            "displacing": None if g is None else str(g),
            "outside": None if outside is None else str(outside),
            "search_len": cfg.search_len,
        },
    )
    return 0 if g is not None else 1


def cmd_hnn_witness(cfg: RunConfig, args) -> int:
    from . import hnn as hn
    p = hn.HnnPresentation.from_json(_read_input(args.presentation))
    if args.g is not None:
        g = wd.parse_word(p.alphabet, args.g)
    else:
        g = hn.star_witness_hypotheses(p, cfg.search_len)
        if g is None:
            print(
                f"no displacing element of length <= {cfg.search_len}",
                file=sys.stderr,
            )
            return 1
    if args.h is not None:
        h = wd.parse_word(p.alphabet, args.h)
    else:
        h = hn.find_word_outside(p, cfg.search_len)
        if h is None:
            print(
                f"no element outside the associated subgroups of length <= "
                f"{cfg.search_len}",
                file=sys.stderr,
            )
            return 1
    m = hn.hnn_element_set(p, _split_semicolons(args.elements), cfg.expansion_budget)
    return _witness_report(cfg, m, hn.star_witness_hnn(p, m, g, h, cfg.expansion_budget))


# -- amalgam -----------------------------------------------------------------------


def cmd_amalgam_reduce(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    w = am.parse_amalgam_word(p, args.word)
    emit(
        cfg,
        {
            "reduced": am.format_amalgam_word(w),
            "length": w.length,
            "type": am.type_of(w),
        },
    )
    return 0


def cmd_amalgam_type(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    w = am.parse_amalgam_word(p, args.word)
    emit(cfg, {"type": am.type_of(w), "length": w.length})
    return 0


def cmd_amalgam_dagger(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    witness = am.dagger_check(p, cfg.search_len)
    emit(
        cfg,
        {
            "a": str(witness.a),
            "a_star": str(witness.a_star),
            "direct_outside": witness.product_direct_outside,
            "mirrored_outside": witness.product_mirrored_outside,
        },
    )
    return 0


def cmd_amalgam_lemma45(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    f = am.parse_amalgam_word(p, args.f)
    a = (
        wd.parse_word(p.factor_a, args.a)
        if args.a is not None
        else am.dagger_check(p, cfg.search_len).a
    )
    b = wd.parse_word(p.factor_b, args.b) if args.b is not None else p.b_outside
    m = args.m if args.m is not None else f.length + 2
    try:
        shape = am.classify_reduced_form(p, a, b, m, f)
    except StructureMismatch as exc:
        emit(cfg, {"shape": None, "reason": str(exc)})
        return 1
    report = {
        "shape": shape.kind,
        "word": am.format_amalgam_word(shape.word),
        "length": shape.word.length,
        "m": m,
    }
    if shape.kind == am.SANDWICH:
        report["middle"] = am.format_amalgam_word(shape.middle)
        report["middle_length"] = shape.middle.length
    else:
        report["sign"] = shape.sign
        report["power"] = shape.power
    emit(cfg, report)
    return 0


def cmd_amalgam_witness(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    m = am.amalgam_element_set(p, _split_semicolons(args.elements))
    kwargs = {}
    if args.a is not None:
        kwargs["a"] = wd.parse_word(p.factor_a, args.a)
    if args.a_star is not None:
        kwargs["a_star"] = wd.parse_word(p.factor_a, args.a_star)
    if args.b is not None:
        kwargs["b"] = wd.parse_word(p.factor_b, args.b)
    xs = am.star_witness_amalgam(p, m, variant=args.variant, search_len=cfg.search_len, **kwargs)
    return _witness_report(cfg, m, xs)


def cmd_amalgam_free_gens(cfg: RunConfig, args) -> int:
    from . import amalgam as am
    p = am.AmalgamPresentation.from_json(_read_input(args.presentation))
    elements = None
    if args.elements is not None:
        side = p.factor_b if args.kind == am.KIND_B_LARGE else p.factor_a
        elements = _word_list(side, args.elements)
    gens = am.free_pair_generators(
        p, args.kind, args.count, elements=elements, search_len=cfg.search_len
    )
    relation = am.relation_among(p, gens, cfg.max_product_len, cfg.expansion_budget)
    emit(
        cfg,
        {
            "kind": args.kind,
            "generators": [am.format_amalgam_word(g) for g in gens],
            "relation": None if relation is None else [list(t) for t in relation],
            "relation_bound": cfg.max_product_len,
        },
    )
    return 0 if relation is None else 1


# -- ring --------------------------------------------------------------------------


def cmd_ring_epsilon(cfg: RunConfig, args) -> int:
    from . import ring_lab as rl
    from . import star_check as sc
    ops = FreeGroupOps(_alphabet(args.alphabet))
    phi = _ring_text(ops, args.phi, args.char)
    if args.siblings is not None:
        siblings = _word_list(ops.alphabet, args.siblings)
    else:
        siblings = rl.standard_free_family(ops, 3)
    if args.witnesses is not None:
        witnesses = _word_list(ops.alphabet, args.witnesses)
    else:
        support = sc.ElementSet.of(ops, phi.support)
        symbols = ops.alphabet.symbols
        witnesses = sc.star_witness_locally_free(
            sc.symmetric_closure(sc.quotient_set(support)), symbols[0], symbols[1]
        )
    eps, eps1 = rl.epsilon(siblings, witnesses, phi)
    emit(
        cfg,
        {
            "support_eps": len(eps.support),
            "support_eps1": len(eps1.support),
            "eps_terms": rl.ring_terms(eps),
            "eps1_terms": rl.ring_terms(eps1),
        },
    )
    return 0


def cmd_ring_lemma32(cfg: RunConfig, args) -> int:
    from . import ring_lab as rl
    ops = FreeGroupOps(_alphabet(args.alphabet))
    s1, s2, s3 = (_word_set(ops, t) for t in (args.s1, args.s2, args.s3))
    translators = _word_list(ops.alphabet, args.t)
    table = rl.right_translation_table(
        ops, s1, s2, s3, translators, cfg.max_product_len, cfg.expansion_budget
    )
    report = rl.table_report(table, len(translators))
    emit(cfg, report)
    return 0 if report["holds"] else 1


def cmd_ring_lemma33(cfg: RunConfig, args) -> int:
    from . import ring_lab as rl
    ops = FreeGroupOps(_alphabet(args.alphabet))
    s_list = [
        [wd.parse_word(ops.alphabet, m) for m in _brace_members(part)]
        for part in _split_semicolons(args.sets)
    ]
    if args.triples is not None:
        x_list = []
        for part in _split_semicolons(args.triples):
            triple = [wd.parse_word(ops.alphabet, m) for m in part.split(",")]
            x_list.append(tuple(triple))
    else:
        fam = rl.standard_free_family(ops, 3 * len(s_list))
        x_list = [tuple(fam[3 * i : 3 * i + 3]) for i in range(len(s_list))]
    table = rl.left_translation_table(
        ops, s_list, x_list, cfg.max_product_len, cfg.expansion_budget
    )
    threshold = sum(len(s) for s in s_list)
    report = rl.table_report(table, threshold)
    emit(cfg, report)
    return 0 if report["holds"] else 1


def cmd_ring_support_bound(cfg: RunConfig, args) -> int:
    from . import ring_lab as rl
    ops = FreeGroupOps(_alphabet(args.alphabet))
    instances = []
    for text in args.instance:
        fields = [f.strip() for f in text.split("|")]
        if len(fields) != 3:
            raise ParseError(
                f"instance must be 'label | phi-terms | u-terms', got {text!r}"
            )
        label = wd.parse_word(ops.alphabet, fields[0])
        instances.append(
            (
                label,
                _ring_text(ops, fields[1], args.char),
                _ring_text(ops, fields[2], args.char),
            )
        )
    report = rl.support_bound_experiment(
        instances,
        max_product_len=cfg.max_product_len,
        expansion_budget=cfg.expansion_budget,
    )
    row = rl.support_csv_row(report)
    emit(cfg, report, rows=[row], fields=list(rl.SUPPORT_CSV_FIELDS))
    return 0 if report["holds"] else 1


# -- experiment --------------------------------------------------------------------


def cmd_experiment_batch(cfg: RunConfig, args) -> int:
    from . import experiments as ex
    report = ex.batch_report(seed=cfg.rng_seed, scale=args.scale)
    rows = [
        {"section": name, "holds": section["holds"]}
        for name, section in sorted(report["sections"].items())
    ]
    emit(cfg, report, rows=rows, fields=["section", "holds"])
    return 0 if report["holds"] else 1


# -- command table -----------------------------------------------------------------


def _arg(*flags, **kwargs) -> tuple:
    """One add_argument call: its flags and keyword arguments."""
    return flags, kwargs


COMMON = (
    _arg("--max-product-len", type=int, default=RunConfig.max_product_len,
         help="product-length bound for mutual-reduction and table checks"),
    _arg("--search-len", type=int, default=RunConfig.search_len,
         help="word-length bound for searches"),
    _arg("--expansion-budget", type=int, default=RunConfig.expansion_budget,
         help="node-expansion budget for bounded searches"),
    _arg("--seed", type=int, default=RunConfig.rng_seed, help="seed recorded in reports"),
    _arg("--output-format", choices=FORMATS, default=RunConfig.output_format,
         help="report format on stdout"),
)
GRAPH = _arg("graph", help="graph JSON file or '-'")
WORD = _arg("word")
PRESENTATION = _arg("presentation", help="presentation JSON file or '-'")
ALPHABET = _arg("--alphabet", default="a,b",
                help="comma-separated generator symbols (default a,b)")
GENS = _arg("--gens", required=True, help="semicolon-separated generator words")
SET = _arg("--set", required=True, help="brace set, e.g. '{a, b^-1}'")
SETS = _arg("--sets", required=True, help="semicolon-separated brace sets")
ELEMENTS = _arg("--elements", required=True, help="semicolon-separated member words")
CHAR = _arg("--char", type=int, default=0)


def _command_table() -> dict:
    """group -> (help, leaves); each leaf is (name, help, handler, arguments),
    and every leaf also takes the COMMON options.  Built per call, so that a
    handler is looked up when the parser is built.  Choices are literals,
    so that building the parser imports no library module."""
    return {
        "graph": ("two-coloured graph checks", (
            ("validate", "check the graph invariants", cmd_graph_validate, (GRAPH,)),
            ("stats", "component counts and witnesses", cmd_graph_stats, (GRAPH,)),
            ("find-cycle", "alternating-cycle certificate", cmd_graph_find_cycle, (GRAPH,)),
            ("criterion", "component-count criterion", cmd_graph_criterion, (GRAPH,)),
        )),
        "words": ("free-group word calculus", (
            ("reduce", "freely reduce a word", cmd_words_reduce, (ALPHABET, WORD)),
            ("cyclic", "cyclic reduction", cmd_words_cyclic, (ALPHABET, WORD)),
            ("sigma", "exponent sum of a generator", cmd_words_sigma, (
                ALPHABET,
                WORD,
                _arg("--generator", required=True, help="generator symbol to count"),
            )),
        )),
        "subgroup": ("finitely generated subgroups", (
            ("member", "membership with coordinates", cmd_subgroup_member, (ALPHABET, GENS, WORD)),
            ("intersect", "intersection basis", cmd_subgroup_intersect,
             (ALPHABET, GENS, _arg("--gens2", required=True))),
            ("coset", "canonical coset representative", cmd_subgroup_coset,
             (ALPHABET, GENS, WORD)),
        )),
        "star": ("mutual-reduction checks and witnesses", (
            ("closure", "symmetric closure of a set", cmd_star_closure, (ALPHABET, SET)),
            ("conjugate", "conjugate a set", cmd_star_conjugate,
             (ALPHABET, SET, _arg("--by", required=True, help="conjugator word"))),
            ("check", "bounded mutual-reduction check", cmd_star_check, (
                ALPHABET,
                SETS,
                _arg("--max-len", type=int, default=None, help="product-length bound"),
            )),
            ("witness-free", "conjugator triple over a free ambient", cmd_star_witness_free, (
                ALPHABET, SET,
                _arg("--x", default="a", help="wing generator (default a)"),
                _arg("--y", default="b", help="middle generator (default b)"),
            )),
        )),
        "hnn": ("stable-letter extensions", (
            ("reduce", "pinch-free reduction", cmd_hnn_reduce, (PRESENTATION, WORD)),
            ("normal", "coset normal form", cmd_hnn_normal, (PRESENTATION, WORD)),
            ("identity", "identity test", cmd_hnn_identity, (PRESENTATION, WORD)),
            ("hypotheses", "displacing-element certificate", cmd_hnn_hypotheses, (PRESENTATION,)),
            ("witness", "conjugator triple, verified", cmd_hnn_witness, (
                PRESENTATION, ELEMENTS,
                _arg("--g", default=None, help="displacing element (default: searched)"),
                _arg("--h", default=None, help="outside element (default: searched)"),
            )),
        )),
        "amalgam": ("amalgamated products", (
            ("reduce", "alternating normal form", cmd_amalgam_reduce,
             (PRESENTATION, _arg("word", help="e.g. 'A: a h | B: b'"))),
            ("type", "boundary-tag type", cmd_amalgam_type, (PRESENTATION, WORD)),
            ("dagger", "displacing-pair certificate", cmd_amalgam_dagger, (PRESENTATION,)),
            ("lemma45", "sandwich-or-power classification", cmd_amalgam_lemma45, (
                PRESENTATION,
                _arg("--f", required=True, help="middle element"),
                _arg("--m", type=int, default=None, help="wing power (default l(f)+2)"),
                _arg("--a", default=None, help="displacing element (default: searched)"),
                _arg("--b", default=None, help="second-factor element (default: stored)"),
            )),
            ("witness", "conjugator triple, verified", cmd_amalgam_witness, (
                PRESENTATION, ELEMENTS,
                _arg("--variant", choices=("direct", "mirrored"), default="direct"),
                _arg("--a", default=None),
                _arg("--a-star", dest="a_star", default=None),
                _arg("--b", default=None),
            )),
            ("free-gens", "stock free family with relation search", cmd_amalgam_free_gens, (
                PRESENTATION,
                _arg("--kind", choices=("A-large", "B-large", "H-large"), required=True),
                _arg("--count", type=int, default=3),
                _arg("--elements", default=None, help="explicit seed elements"),
            )),
        )),
        "ring": ("group-ring support experiments", (
            ("epsilon", "sibling-translation element", cmd_ring_epsilon, (
                ALPHABET,
                _arg("--phi", required=True, help="terms, e.g. 'b, 2*a b' ('1' is the identity)"),
                CHAR,
                _arg("--siblings", default=None, help="three words (default: standard family)"),
                _arg("--witnesses", default=None, help="three words (default: constructed)"),
            )),
            ("lemma32", "right-translation counting table", cmd_ring_lemma32, (
                ALPHABET,
                _arg("--s1", required=True, help="brace set"),
                _arg("--s2", required=True),
                _arg("--s3", required=True),
                _arg("--t", required=True, help="semicolon-separated translators"),
            )),
            ("lemma33", "left-translation counting table", cmd_ring_lemma33, (
                ALPHABET, SETS,
                _arg("--triples", default=None,
                     help="semicolon-separated comma triples (default: standard family)"),
            )),
            ("support-bound", "support-size experiment", cmd_ring_support_bound, (
                ALPHABET,
                _arg("--instance", action="append", required=True,
                     help="'label | phi-terms | u-terms', repeatable"),
                CHAR,
            )),
        )),
        "experiment": ("batch experiment drivers", (
            ("batch", "run every driver once", cmd_experiment_batch,
             (_arg("--scale", choices=("quick", "full"), default="quick"),)),
        )),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Alternating-cycle graphs, free-group word calculus, "
        "bounded mutual-reduction certificates, and group-ring support "
        "experiments.",
    )
    # the leaves share COMMON's actions: adding them to each leaf slows start-up
    common = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in COMMON:
        common.add_argument(*flags, **kwargs)
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, leaves) in _command_table().items():
        sub = groups.add_parser(group, help=group_help)
        leaf_parsers = sub.add_subparsers(dest="subcommand", required=True)
        for name, leaf_help, handler, arguments in leaves:
            p = leaf_parsers.add_parser(name, parents=[common], help=leaf_help)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            max_product_len=args.max_product_len,
            search_len=args.search_len,
            expansion_budget=args.expansion_budget,
            rng_seed=args.seed,
            output_format=args.output_format,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg, args)
    except NotFoundAtBound as exc:
        print(f"not found at bound: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (SrlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a verdict: 0 and 1 are answers
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

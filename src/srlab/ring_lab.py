"""Group-ring elements with exact coefficients, product-isolation tables,
and the support-bound experiment.

A ring element is a finite formal sum of group elements with nonzero
coefficients: exact rationals by default, or residues of a prime field when a
positive characteristic is requested.  Keys are canonical group elements;
canonicalization is delegated to the ambient operations object (free-group
words, stable-letter extensions, or amalgam syllable forms), so equal group
elements always share one term.

The combinatorial core is the pair table: a list of pairs v = (f, g) with
products fg, together with the isolated subset of pairs whose product occurs
exactly once.  Two table builders package the counting arguments used by the
support-bound experiment: products (S1 u S2 u S3) x T under a mutual
reduction hypothesis on the quotient sets of the S_i give more than |T|
isolated pairs, and products X_i x S_i over translator triples X_i give more
than sum |S_i| isolated pairs.  The experiment chains both into the lower
bound |Supp(w)| >= 2 for nonzero combinations w built from the epsilon
elements, which is the finitary heart of the primitivity argument.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .elements import FreeGroupOps, GroupOps, _element_key
from .errors import (
    AmbientMismatch,
    HypothesisUnverified,
    PreconditionViolated,
)
from .star_check import (
    DEFAULT_EXPANSION_BUDGET,
    ElementSet,
    check_mutually_reduced,
    quotient_set,
    star_witness_locally_free,
    symmetric_closure,
)
from .words import Word, conjugate, generator, power

DEFAULT_TABLE_BOUND = 6


def _require_char(char: int) -> None:
    if char == 0:
        return
    if char < 2 or any(char % d == 0 for d in range(2, int(char**0.5) + 1)):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def _coerce_coeff(value, char: int):
    """Exact coefficient: Fraction in characteristic 0, residue mod p else."""
    if isinstance(value, float):
        raise ValueError("float coefficients are not exact; use Fraction or str")
    c = Fraction(value)
    if char == 0:
        return c
    if c.denominator % char == 0:
        raise ValueError(
            f"denominator of {c} vanishes in characteristic {char}"
        )
    return c.numerator * pow(c.denominator, -1, char) % char


def canonical_form(ops: GroupOps, g):
    return ops.multiply(ops.identity_element(), g)


def _terms(ops: GroupOps, terms: list) -> tuple:
    """terms, a list of (element, nonzero coefficient) pairs with distinct
    elements, in element order; sorted by index into their keys, so no
    element is hashed again and no Python call is added per term."""
    if len(terms) > 1:
        keys = list(map(_element_key(ops), [g for g, _ in terms]))
        terms = [terms[i] for i in sorted(range(len(terms)), key=keys.__getitem__)]
    return tuple(terms)


@dataclass(frozen=True)
class RingElement:
    """Immutable formal sum; terms are (canonical element, nonzero coeff)
    sorted by element size then text, so equal sums compare equal."""

    ops: GroupOps
    char: int
    terms: tuple[tuple[object, object], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple:
        return tuple(g for g, _ in self.terms)

    def coefficient(self, g):
        key = canonical_form(self.ops, g)
        for element, c in self.terms:
            if element == key:
                return c
        return Fraction(0) if self.char == 0 else 0

    def __len__(self) -> int:
        return len(self.terms)


def ring_element(ops: GroupOps, pairs: Iterable[tuple], char: int = 0) -> RingElement:
    _require_char(char)
    acc: dict = {}
    for g, value in pairs:
        key = canonical_form(ops, g)
        c = acc.get(key, 0) + _coerce_coeff(value, char)
        if char:
            c %= char
        acc[key] = c
    terms = [(g, c) for g, c in acc.items() if c != 0]
    return RingElement(ops, char, _terms(ops, terms))


def ring_zero(ops: GroupOps, char: int = 0) -> RingElement:
    _require_char(char)
    return RingElement(ops, char, ())


def monomial(ops: GroupOps, g, value=1, char: int = 0) -> RingElement:
    return ring_element(ops, [(g, value)], char)


def support(x: RingElement) -> tuple:
    return x.support


def _require_same_ambient(x: RingElement, y: RingElement) -> None:
    if x.ops != y.ops:
        raise AmbientMismatch("ring elements live over different groups")
    if x.char != y.char:
        raise AmbientMismatch(
            f"ring elements have characteristics {x.char} and {y.char}"
        )


def ring_add(x: RingElement, y: RingElement) -> RingElement:
    _require_same_ambient(x, y)
    acc = dict(x.terms)
    for g, c in y.terms:
        total = acc.get(g, 0) + c
        if x.char:
            total %= x.char
        if total == 0:
            acc.pop(g, None)
        else:
            acc[g] = total
    return RingElement(x.ops, x.char, _terms(x.ops, list(acc.items())))


def ring_neg(x: RingElement) -> RingElement:
    if x.char:
        terms = tuple((g, (-c) % x.char) for g, c in x.terms)
    else:
        terms = tuple((g, -c) for g, c in x.terms)
    return RingElement(x.ops, x.char, terms)


def ring_sub(x: RingElement, y: RingElement) -> RingElement:
    return ring_add(x, ring_neg(y))


def ring_scale(x: RingElement, value) -> RingElement:
    c = _coerce_coeff(value, x.char)
    if c == 0:
        return ring_zero(x.ops, x.char)
    if x.char:
        terms = tuple((g, (co * c) % x.char) for g, co in x.terms)
    else:
        terms = tuple((g, co * c) for g, co in x.terms)
    return RingElement(x.ops, x.char, terms)


def ring_mul(x: RingElement, y: RingElement) -> RingElement:
    _require_same_ambient(x, y)
    acc: dict = {}
    for g, a in x.terms:
        for h, b in y.terms:
            key = x.ops.multiply(g, h)
            total = acc.get(key, 0) + a * b
            if x.char:
                total %= x.char
            acc[key] = total
    terms = [(g, c) for g, c in acc.items() if c != 0]
    return RingElement(x.ops, x.char, _terms(x.ops, terms))


def ring_sum(ops: GroupOps, items: Sequence[RingElement], char: int = 0) -> RingElement:
    out = ring_zero(ops, char)
    for x in items:
        out = ring_add(out, x)
    return out


def format_ring_element(x: RingElement) -> str:
    if x.is_zero:
        return "0"
    return " + ".join(f"{c}*{x.ops.fmt(g)}" for g, c in x.terms)


def ring_terms(x: RingElement) -> list[list[str]]:
    """Terms as [coefficient, element] text pairs, for reports."""
    return [[str(c), x.ops.fmt(g)] for g, c in x.terms]


# -- pair tables ---------------------------------------------------------------


def isolated_pairs(pairs: Sequence[tuple], products: Sequence) -> tuple:
    counts = Counter(products)
    return tuple(v for v, prod in zip(pairs, products) if counts[prod] == 1)


@dataclass(frozen=True)
class PairTable:
    """Pairs v = (f, g) with products fg and the isolated subset.

    Isolation is structural: a pair is isolated when no other pair shares its
    product.  The stored subset is recomputed and enforced at construction."""

    ops: GroupOps
    pairs: tuple[tuple[object, object], ...]
    products: tuple
    isolated: tuple[tuple[object, object], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.products):
            raise ValueError("each pair needs exactly one product")
        if self.isolated != isolated_pairs(self.pairs, self.products):
            raise ValueError("stored isolated subset disagrees with recomputation")

    @property
    def isolated_count(self) -> int:
        return len(self.isolated)


def make_pair_table(ops: GroupOps, pairs: Sequence[tuple]) -> PairTable:
    pairs = tuple(pairs)
    products = tuple(ops.multiply(f, g) for f, g in pairs)
    return PairTable(ops, pairs, products, isolated_pairs(pairs, products))


def _canonical_distinct(ops: GroupOps, items, what: str) -> tuple:
    out = []
    for g in items:
        c = canonical_form(ops, g)
        if c in out:
            raise PreconditionViolated(f"{what} must be distinct; {ops.fmt(c)} repeats")
        out.append(c)
    if not out:
        raise PreconditionViolated(f"{what} must be non-empty")
    return tuple(sorted(out, key=_element_key(ops)))


def _as_element_set(ops: GroupOps, items, what: str) -> ElementSet:
    if isinstance(items, ElementSet):
        if items.ops != ops:
            raise AmbientMismatch(f"{what} lives over a different group")
        return items
    try:
        return ElementSet.of(ops, [canonical_form(ops, g) for g in items])
    except ValueError as exc:
        raise PreconditionViolated(f"{what}: {exc}") from None


def right_translation_table(
    ops: GroupOps,
    s1,
    s2,
    s3,
    t: Iterable,
    max_product_len: int = DEFAULT_TABLE_BOUND,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> PairTable:
    """Products (s1 u s2 u s3) x t, isolation included.

    The three sets must have equal size with all members nontrivial and
    distinct across the union; the quotient sets built from them must be
    mutually reduced at the bound (HypothesisUnverified otherwise).  Under
    those hypotheses the isolated set always beats |t|."""
    sets = [_as_element_set(ops, s, f"set {i + 1}") for i, s in enumerate((s1, s2, s3))]
    m = len(sets[0])
    if any(len(s) != m for s in sets):
        raise PreconditionViolated(
            f"the three sets must share one size, got {[len(s) for s in sets]}"
        )
    union = {g for s in sets for g in s.elements}
    if len(union) != 3 * m:
        raise PreconditionViolated(
            "members must be distinct across the three sets"
        )
    translators = _canonical_distinct(ops, t, "translators")
    verdict = check_mutually_reduced(
        [quotient_set(s) for s in sets], max_product_len, expansion_budget
    )
    if not verdict.holds:
        raise HypothesisUnverified(
            f"quotient sets admit a violating product at bound {max_product_len}: "
            f"{verdict.witness}"
        )
    left = sorted(union, key=_element_key(ops))
    pairs = [(f, g) for f in left for g in translators]
    return make_pair_table(ops, pairs)


def left_translation_table(
    ops: GroupOps,
    s_list: Sequence[Iterable],
    x_list: Sequence[tuple],
    max_product_len: int = DEFAULT_TABLE_BOUND,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> PairTable:
    """Products x*f over blocks X_i x S_i with translator triples X_i.

    All 3n translators must be distinct and, as singletons, mutually reduced
    at the bound; each S_i must list distinct elements (the identity may
    appear).  Under those hypotheses the isolated set always beats the total
    size of the S_i."""
    if len(s_list) != len(x_list) or not s_list:
        raise PreconditionViolated("need one translator triple per element set")
    for triple in x_list:
        if len(tuple(triple)) != 3:
            raise PreconditionViolated("each translator block must have 3 elements")
    xs = []
    for triple in x_list:
        xs.extend(canonical_form(ops, x) for x in triple)
    if len(set(xs)) != len(xs):
        raise PreconditionViolated("translators must be distinct across blocks")
    singletons = [_as_element_set(ops, [x], "translator") for x in xs]
    verdict = check_mutually_reduced(singletons, max_product_len, expansion_budget)
    if not verdict.holds:
        raise HypothesisUnverified(
            f"translators admit a violating product at bound {max_product_len}: "
            f"{verdict.witness}"
        )
    pairs = []
    for i, s in enumerate(s_list):
        block = _canonical_distinct(ops, s, "set members")
        pairs.extend((x, f) for x in xs[3 * i : 3 * i + 3] for f in block)
    return make_pair_table(ops, pairs)


def table_report(table: PairTable, threshold: int) -> dict:
    ops = table.ops
    return {
        "pairs": len(table.pairs),
        "isolated": table.isolated_count,
        "threshold": threshold,
        "holds": table.isolated_count > threshold,
        "isolated_pairs": [[ops.fmt(f), ops.fmt(g)] for f, g in table.isolated],
    }


# -- the epsilon construction ----------------------------------------------------


def _ring_conjugate(phi: RingElement, x) -> RingElement:
    """x^-1 * phi * x."""
    ops = phi.ops
    return ring_mul(
        ring_mul(monomial(ops, ops.invert(x), 1, phi.char), phi),
        monomial(ops, x, 1, phi.char),
    )


def epsilon(b_s: Sequence, x_bt: Sequence, phi_b: RingElement) -> tuple[RingElement, RingElement]:
    """eps = sum over s,t of b_s * x_t^-1 * phi * x_t, and eps + 1.

    b_s and x_bt are triples of distinct group elements; with witnesses that
    make the conjugated quotient sets mutually reduced, all nine products of
    a single-term phi stay distinct, so the support has size exactly 9."""
    ops = phi_b.ops
    eps, eps1, _ = _epsilon_parts(
        [canonical_form(ops, b) for b in b_s],
        [canonical_form(ops, x) for x in x_bt],
        phi_b,
    )
    return eps, eps1


def _epsilon_parts(
    siblings: list, witnesses: list, phi_b: RingElement
) -> tuple[RingElement, RingElement, list[RingElement]]:
    """eps, eps + 1 and the three conjugates x_t^-1 * phi * x_t they sum,
    from canonical siblings and witnesses."""
    ops = phi_b.ops
    if len(siblings) != 3 or len(set(siblings)) != 3:
        raise PreconditionViolated("need three distinct sibling elements")
    if len(witnesses) != 3 or len(set(witnesses)) != 3:
        raise PreconditionViolated("need three distinct witness elements")
    conjugates = [_ring_conjugate(phi_b, x) for x in witnesses]
    eps = ring_zero(ops, phi_b.char)
    for b in siblings:
        left = monomial(ops, b, 1, phi_b.char)
        for conj in conjugates:
            eps = ring_add(eps, ring_mul(left, conj))
    one = monomial(ops, ops.identity_element(), 1, phi_b.char)
    return eps, ring_add(eps, one), conjugates


# -- support-bound experiment ------------------------------------------------------


def standard_free_family(ops: FreeGroupOps, count: int, start: int = 1) -> list[Word]:
    """x^j y x^-j for j = start..start+count-1: a free family of conjugates
    over the first two generators."""
    symbols = ops.alphabet.symbols
    if len(symbols) < 2:
        raise PreconditionViolated("the ambient free group needs rank at least 2")
    gx = generator(ops.alphabet, symbols[0])
    gy = generator(ops.alphabet, symbols[1])
    return [conjugate(gy, power(gx, -j)) for j in range(start, start + count)]


def support_bound_experiment(
    instances: Sequence[tuple],
    siblings: Sequence[Sequence] | None = None,
    witnesses: Sequence[Sequence] | None = None,
    max_product_len: int = DEFAULT_TABLE_BOUND,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> dict:
    """Form w = sum of (eps(b) + 1) * u_b and certify |Supp(w)| >= 2.

    Each instance is (b, phi_b, u_b) with b a distinct label element, phi_b a
    nonzero identity-free ring element, u_b a ring element; zero u_b drop out
    and at least one must remain.  Sibling triples default to a standard free
    family of conjugates, witness triples to the locally-free construction on
    the quotient set of Supp(phi_b); both hypotheses (quotient sets conjugated
    off each other, sibling family mutually reduced) are re-checked at the
    bound, not trusted."""
    if not instances:
        raise PreconditionViolated("the instance family must be non-empty")
    active = [(b, phi, u) for b, phi, u in instances if not u.is_zero]
    if not active:
        raise PreconditionViolated(
            "every translation element is zero; the combination is empty"
        )
    ops = active[0][1].ops
    char = active[0][1].char
    labels = []
    for b, phi, u in active:
        _require_same_ambient(phi, u)
        _require_same_ambient(phi, active[0][1])
        if phi.is_zero:
            raise PreconditionViolated("phi must be nonzero for every instance")
        if any(ops.is_identity(g) for g in phi.support):
            raise PreconditionViolated(
                "phi supports must avoid the identity element"
            )
        label = canonical_form(ops, b)
        if label in labels:
            raise PreconditionViolated("instance labels must be distinct")
        labels.append(label)
    n = len(active)
    if siblings is None:
        if not isinstance(ops, FreeGroupOps):
            raise PreconditionViolated(
                "default sibling construction needs a free ambient group; "
                "pass explicit triples"
            )
        family = standard_free_family(ops, 3 * n)
        siblings = [tuple(family[3 * i : 3 * i + 3]) for i in range(n)]
    if witnesses is None:
        if not isinstance(ops, FreeGroupOps):
            raise PreconditionViolated(
                "default witness construction needs a free ambient group; "
                "pass explicit triples"
            )
        symbols = ops.alphabet.symbols
        witnesses = [
            star_witness_locally_free(
                symmetric_closure(quotient_set(ElementSet.of(ops, phi.support))),
                symbols[0],
                symbols[1],
            )
            for _, phi, _ in active
        ]
    if len(siblings) != n or len(witnesses) != n:
        raise PreconditionViolated(
            "need one sibling triple and one witness triple per active instance"
        )

    per_instance = []
    e_parts: list[RingElement] = []
    w1 = ring_zero(ops, char)
    w2 = ring_zero(ops, char)
    w = ring_zero(ops, char)
    for (_, phi, u), label, sibs, wits in zip(active, labels, siblings, witnesses):
        sibs = [canonical_form(ops, s) for s in sibs]
        wits = [canonical_form(ops, x) for x in wits]
        eps, eps1, conj_parts = _epsilon_parts(sibs, wits, phi)
        inner = right_translation_table(
            ops,
            conj_parts[0].support,
            conj_parts[1].support,
            conj_parts[2].support,
            u.support,
            max_product_len,
            expansion_budget,
        )
        e_b = ring_mul(ring_sum(ops, conj_parts, char), u)
        if e_b.is_zero:
            raise HypothesisUnverified(
                "a product block collapsed to zero in the given characteristic"
            )
        eps_u = ring_mul(eps, u)
        split = ring_sum(
            ops, [ring_mul(monomial(ops, s, 1, char), e_b) for s in sibs], char
        )
        u_count = len(u.support)
        entry = {
            "label": ops.fmt(label),
            "phi_support": len(phi.support),
            "u_support": u_count,
            "siblings": [ops.fmt(s) for s in sibs],
            "witnesses": [ops.fmt(x) for x in wits],
            "inner_isolated": inner.isolated_count,
            "e_support": len(e_b.support),
            "decomposition_ok": eps_u == split,
            "inner_holds": len(e_b.support) >= inner.isolated_count > u_count,
        }
        per_instance.append(entry)
        e_parts.append(e_b)
        w1 = ring_add(w1, eps_u)
        w2 = ring_add(w2, u)
        w = ring_add(w, ring_mul(eps1, u))

    outer = left_translation_table(
        ops,
        [e.support for e in e_parts],
        [tuple(s) for s in siblings],
        max_product_len,
        expansion_budget,
    )
    sum_e = sum(len(e.support) for e in e_parts)
    sum_u = sum(entry["u_support"] for entry in per_instance)
    checks = {
        "decomposition": all(e["decomposition_ok"] for e in per_instance),
        "inner": all(e["inner_holds"] for e in per_instance),
        "outer": len(w1.support) >= outer.isolated_count > sum_e,
        "difference": len(w.support) >= len(w1.support) - len(w2.support) > 0,
        "support_at_least_two": len(w.support) >= 2,
    }
    return {
        "kind": "support-bound",
        "char": char,
        "instance_count": n,
        "instances": per_instance,
        "outer_isolated": outer.isolated_count,
        "sum_e_supports": sum_e,
        "sum_u_supports": sum_u,
        "support_w1": len(w1.support),
        "support_w2": len(w2.support),
        "support_w": len(w.support),
        "w_terms": ring_terms(w),
        "checks": checks,
        "holds": all(checks.values()),
    }


SUPPORT_CSV_FIELDS = (
    "instance_count",
    "char",
    "support_w1",
    "support_w2",
    "support_w",
    "outer_isolated",
    "sum_e_supports",
    "sum_u_supports",
    "holds",
)


def support_csv_row(report: dict) -> dict:
    return {key: report[key] for key in SUPPORT_CSV_FIELDS}

"""Free associative algebra over D_n with bounded-degree linear reduction.

Elements are complex linear combinations of pairs (tag mask, word), where a
word is a tuple of generator ids.  Words concatenate under multiplication and
tag masks combine by the nilpotent rule (overlap kills the term).  The
tensor square TensorElement inherits FreeElement's arithmetic and replaces
only its term product, the one plain loop over disjoint masks kept here for
speed; every other D_n product goes through `pimenov.tag_product`.  An
algebra map out of the free algebra is fixed by its generator images, and
`algebra_map` is its one extension over words and terms.

Quadratic relation sets are turned into rewrite rules by viewing their
tag-closure as a plain complex linear space in the (mask, word) basis and
row-reducing it: every pivot becomes a rule head, the rest of its row the
tail (`quadratic_reduction`).  `build_reduction` adds degree-3 rules in
one row reduction of the quadratic rules' overlap ambiguities, and the
diamond check over all tagged degree-3 words (`confluence_check`)
certifies that normal forms are unique up to degree 3, not beyond.  Tags
that no relation carries are factored out: the ideal over them is an exact
tensor copy of the ideal over the other tags, so the pipeline runs on the
other tags and ORs the free ones back in.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .pimenov import PimenovElement, Scalar, worst_residual

PIVOT_THRESHOLD = 1e-8
NOISE_LEVEL = 1e-12  # rounding noise, relative (see _rref_rules, completion_residuals)
CLOSURE_DEGREE = 3

Word = tuple[int, ...]
TermKey = tuple[int, Word]
TensorKey = tuple[int, Word, Word]


class InconsistentIdeal(ValueError):
    """The ideal is outside the build's scope: 1 lies in it (row reduction
    produced a bare constant), or its rule heads are too short for the
    one-step completion (a quadratic head below degree 2, a new one below 3).
    """


class NonTerminatingRules(ValueError):
    """Rewriting did not terminate: the rules cycle or lengthen words.

    A built system keeps every tail below its head (see _rref_rules), so
    this is raised only for hand-built rules and for a tensor reduction
    whose banks keep trading tags.
    """


def term_order_key(mask: int, word: Word) -> tuple:
    """Sort key; larger key = larger term.

    Words compare degree-then-lexicographically; for equal words, terms with
    fewer tags are larger, ties broken toward the smaller bitmask.  The mask
    part is translation invariant under disjoint tag union, so rule heads
    stay heads when a rule is multiplied by extra tags.
    """
    return (len(word), word, -mask.bit_count(), -mask)


class FreeElement:
    """Complex combination of (mask, word) terms.

    The arithmetic returns `type(self)`, so the tensor square reuses it: a
    subclass only names the words of its unit key and its term product.
    """

    __slots__ = ("n", "G", "terms")
    UNIT_WORDS: tuple[Word, ...] = ((),)

    def __init__(self, n: int, G: int, terms: Mapping[TermKey | TensorKey, Scalar] | None = None):
        self.n = n
        self.G = G
        clean: dict[TermKey | TensorKey, complex] = {}
        if terms:
            for k, c in terms.items():
                c = complex(c)
                if c != 0:
                    clean[k] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int, G: int) -> "FreeElement":
        return cls(n, G)

    @classmethod
    def const(cls, n: int, G: int, value: "Scalar | PimenovElement") -> "FreeElement":
        if isinstance(value, PimenovElement):
            return cls(n, G, {(m, *cls.UNIT_WORDS): c for m, c in value.coeffs.items()})
        return cls(n, G, {(0, *cls.UNIT_WORDS): value})

    @classmethod
    def generator(cls, n: int, G: int, g: int) -> "FreeElement":
        if not (0 <= g < G):
            raise ValueError(f"generator id {g} out of range")
        return cls(n, G, {(0, (g,)): 1.0})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        return worst_residual(abs(c) for c in self.terms.values())

    def degree(self) -> int:
        """The largest total word length of a term."""
        return max((sum(map(len, k[1:])) for k in self.terms), default=0)

    # -- algebra --------------------------------------------------------

    def _check(self, other: "FreeElement") -> None:
        if self.n != other.n or self.G != other.G:
            raise ValueError("alphabet/tag mismatch")

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0j) + c
        return type(self)(self.n, self.G, out)

    def __neg__(self) -> "FreeElement":
        return type(self)(self.n, self.G, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __mul__(self, other: "FreeElement | Scalar | PimenovElement") -> "FreeElement":
        if isinstance(other, (int, float, complex)):
            return type(self)(self.n, self.G, {k: c * other for k, c in self.terms.items()})
        if isinstance(other, PimenovElement):
            other = self.const(self.n, self.G, other)
        self._check(other)
        return type(self)(self.n, self.G, self._product(other.terms))

    __rmul__ = __mul__

    def _product(self, other: Mapping[TermKey, complex]) -> dict[TermKey, complex]:
        out: dict[TermKey, complex] = {}
        for (m1, w1), c1 in self.terms.items():
            for (m2, w2), c2 in other.items():
                if m1 & m2:
                    continue
                k = (m1 | m2, w1 + w2)
                out[k] = out.get(k, 0j) + c1 * c2
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.terms)} terms, deg {self.degree()})"


def free_tensor(a: FreeElement, b: FreeElement) -> "TensorElement":
    """a (x) b in the tensor square (left/right word banks, shared tags)."""
    a._check(b)
    left = TensorElement(a.n, a.G, {(m, w, ()): c for (m, w), c in a.terms.items()})
    right = TensorElement(b.n, b.G, {(m, (), w): c for (m, w), c in b.terms.items()})
    return left * right


class TensorElement(FreeElement):
    """Element of the tensor square: terms (mask, left word, right word)."""

    __slots__ = ()
    UNIT_WORDS = ((), ())

    def _product(self, other: Mapping[TensorKey, complex]) -> dict[TensorKey, complex]:
        out: dict[TensorKey, complex] = {}
        for (m1, l1, r1), c1 in self.terms.items():
            for (m2, l2, r2), c2 in other.items():
                if m1 & m2:
                    continue
                k = (m1 | m2, l1 + l2, r1 + r2)
                out[k] = out.get(k, 0j) + c1 * c2
        return out


def algebra_map(x: FreeElement, images: Mapping[int, Any], unit: Any) -> Any:
    """The D_n-algebra map fixed by the generator images, applied to x.

    Each term's image is `unit` times the images of its letters, left to
    right, times its tag coefficient; the terms' images are summed in the
    order of x.  `unit` and the images only need to multiply with each other
    and with a PimenovElement (floats, PimenovElement, FreeElement or
    TensorElement); the result has the type of `unit` times a PimenovElement.
    """
    out = unit * PimenovElement(x.n)
    for (mask, word), c in x.terms.items():
        acc = unit
        for g in word:
            acc = acc * images[g]
        out = out + acc * PimenovElement(x.n, {mask: c})
    return out


def unused_tags(elements: Iterable[FreeElement], n: int) -> int:
    """Bitmask of the tags that no term of the elements carries."""
    used = 0
    for e in elements:
        for mask, _ in e.terms:
            used |= mask
    return ((1 << n) - 1) & ~used


def iota_closure(rs: Iterable[FreeElement], n: int, unused: int = 0) -> list[FreeElement]:
    """All nonzero multiples of the relations by tag monomials disjoint from `unused`.

    With unused = 0 (the default) every tag monomial is used, and the ideal
    over D, viewed as a complex linear space, is spanned by these.  When no
    relation carries the tags in `unused`, the full closure is this compact
    one with every subset of `unused` OR-ed into each row.
    """
    out: list[FreeElement] = []
    for r in rs:
        for mask in range(1 << n):
            if mask & unused:
                continue
            m = r * PimenovElement(n, {mask: 1.0})
            if not m.is_zero():
                out.append(m)
    return out


class ReductionSystem:
    """Inter-reduced linear rewrite rules head -> tail, heads of degree <= 3.

    Rule heads of degree 3 come from bounded-degree completion (see
    build_reduction): the cubic elements of the ideal that subword
    rewriting with the quadratic rules leaves unresolved are row-reduced
    once and adjoined as explicit rules, which is what makes the degree-3
    diamond check (confluence_check) a meaningful certificate.

    `unused` marks free tags: every rule must be the copy, with some of them
    OR-ed into head and tail, of a rule that carries none of them.  A term
    carrying free tags e is then normalized as the term without them, with e
    OR-ed into the result; the rule chosen under e is always the copy of the
    one chosen without it, so this equals the plain normal form.
    """

    def __init__(
        self, n: int, G: int, rules: dict[TermKey, FreeElement], unused: int = 0
    ):
        self.n = n
        self.G = G
        self.rules = rules
        self.unused = unused
        self.rules_by_word: dict[Word, list[tuple[int, FreeElement]]] = {}
        for (hm, hw), tail in rules.items():
            self.rules_by_word.setdefault(hw, []).append((hm, tail))
        for lst in self.rules_by_word.values():
            lst.sort(key=lambda it: (-it[0].bit_count(), it[0]))
        self._head_lengths = sorted({len(w) for w in self.rules_by_word}, reverse=True)
        self._memo: dict[str, dict[TermKey, dict[TermKey, complex]]] = {
            "left": {},
            "right": {},
        }
        # filled by build_reduction: sizes and pivot margins of the build
        self.stats: dict = {}

    def __len__(self) -> int:
        return len(self.rules)

    # -- normal forms ----------------------------------------------------

    def _nf_term(self, mask: int, word: Word, strategy: str) -> dict[TermKey, complex]:
        memo = self._memo[strategy]
        key = (mask, word)
        hit = memo.get(key)
        if hit is not None:
            return hit
        free = mask & self.unused
        if free:
            compact = self._nf_term(mask ^ free, word, strategy)
            result = {(m | free, w): c for (m, w), c in compact.items()}
            memo[key] = result
            return result
        positions = range(len(word))
        if strategy == "right":
            positions = reversed(positions)
        chosen = None
        for p in positions:
            for L in self._head_lengths:
                if p + L > len(word):
                    continue
                sub = word[p : p + L]
                for hm, tail in self.rules_by_word.get(sub, ()):
                    if hm & mask == hm:
                        chosen = (p, L, hm, tail)
                        break
                if chosen:
                    break
            if chosen:
                break
        if chosen is None:
            result = {key: 1.0 + 0j}
            memo[key] = result
            return result
        p, L, hm, tail = chosen
        rest_mask = mask ^ hm
        prefix, suffix = word[:p], word[p + L :]
        acc: dict[TermKey, complex] = {}
        for (tm, tw), tc in tail.terms.items():
            if rest_mask & tm:
                continue
            sub = self._nf_term(rest_mask | tm, prefix + tw + suffix, strategy)
            for k, c in sub.items():
                acc[k] = acc.get(k, 0j) + tc * c
        acc = {k: c for k, c in acc.items() if c != 0}
        memo[key] = acc
        return acc

    def _nf(self, mask: int, word: Word, strategy: str) -> dict[TermKey, complex]:
        """Normal form of one term; a rewriting that never ends is a domain error."""
        try:
            return self._nf_term(mask, word, strategy)
        except RecursionError:
            raise NonTerminatingRules(
                f"rewriting {(mask, word)} did not terminate: a rule tail lies above "
                "its head, which no system built by row reduction holds"
            ) from None

    def reduce(self, x: FreeElement) -> FreeElement:
        if x.degree() > CLOSURE_DEGREE:
            raise ValueError(f"degree cap {CLOSURE_DEGREE} exceeded")
        out: dict[TermKey, complex] = {}
        for (mask, word), c in x.terms.items():
            for k, c2 in self._nf(mask, word, "left").items():
                out[k] = out.get(k, 0j) + c * c2
        return FreeElement(x.n, x.G, out)

    def reduce_tensor(self, x: TensorElement) -> TensorElement:
        """Reduce both banks of a tensor-square element (shared tag pool).

        A pass takes the left normal form of each term, then the right normal
        form under the tags of the left result.  A result whose tags the
        right bank did not change is normal in both banks; the others go
        through another pass, because the left bank may reduce further under
        their new tags.  Terms left unsettled after 2 * CLOSURE_DEGREE passes
        raise NonTerminatingRules rather than being returned as if normal.
        """
        nf = self._nf
        done: dict[TensorKey, complex] = {}
        todo = x.terms
        for _ in range(2 * CLOSURE_DEGREE):
            nxt: dict[TensorKey, complex] = {}
            for (mask, lw, rw), c in todo.items():
                for (m1, lw1), c1 in nf(mask, lw, "left").items():
                    for (m2, rw1), c2 in nf(m1, rw, "left").items():
                        k = (m2, lw1, rw1)
                        target = done if m2 == m1 else nxt
                        target[k] = target.get(k, 0j) + c * c1 * c2
            todo = {k: c for k, c in nxt.items() if c != 0}
            if not todo:
                break
        else:
            raise NonTerminatingRules(
                f"tensor reduction still rewrote terms after {2 * CLOSURE_DEGREE} passes"
            )
        return TensorElement(x.n, x.G, done)


def coefficient_matrix(
    elements: Sequence[FreeElement], columns: Sequence[TermKey]
) -> np.ndarray:
    """Dense complex matrix with one row per element over the given columns.

    Every (mask, word) key of every element must be among the columns.
    """
    col_index = {k: i for i, k in enumerate(columns)}
    A = np.zeros((len(elements), len(columns)), dtype=complex)
    for i, r in enumerate(elements):
        for k, c in r.terms.items():
            A[i, col_index[k]] = c
    return A


def _rref_rules(
    elements: Sequence[FreeElement], n: int, G: int, stats: dict | None = None
) -> dict[TermKey, FreeElement]:
    """Row-reduce a list of elements into head -> tail rewrite rules.

    Gauss-Jordan over the columns in descending term order, pivoting on the
    largest remaining entry of each column.  It is a pivot only if it
    exceeds PIVOT_THRESHOLD times its row's scale: the row's largest entry
    on entering the elimination, which follows the row through swaps.  The
    pivot is set to 1 and the rest of its column to 0, as exact elimination
    gives, so every tail lies below its head.  NOISE_LEVEL decides what is
    rounding noise: input rows whose largest entry is at most that fraction
    of the matrix maximum, and tail entries at most that fraction of their
    row's largest.  A given `stats` dict receives the smallest accepted and
    the largest rejected pivot ratio (entry over row scale).
    """
    elements = [e for e in elements if e.terms]
    if not elements:
        return {}
    columns = sorted(
        {k for r in elements for k in r.terms},
        key=lambda k: term_order_key(*k),
        reverse=True,
    )
    A = coefficient_matrix(elements, columns)
    scales = np.abs(A).max(axis=1)
    live = ~(scales <= NOISE_LEVEL * scales.max())  # a nan row stays and fails visibly
    A, scales = A[live], scales[live]
    accepted, rejected = math.inf, 0.0
    pivot_cols: list[int] = []
    row = 0
    for col in range(len(columns)):
        if row >= len(A):
            break
        sub = np.abs(A[row:, col])
        best = int(np.argmax(sub))
        row_scale = scales[row + best]
        ratio = sub[best] / row_scale
        if sub[best] <= PIVOT_THRESHOLD * row_scale:
            # no pivot: the column is structurally zero below this point,
            # which keeps rule tails strictly below their heads
            rejected = max(rejected, ratio)
            A[row:, col] = 0
            continue
        accepted = min(accepted, ratio)
        best += row
        A[[row, best]] = A[[best, row]]
        scales[[row, best]] = scales[[best, row]]
        A[row] = A[row] / A[row, col]
        A[row, col] = 1
        touched = np.flatnonzero(np.abs(A[:, col]) > 0)
        touched = touched[touched != row]
        A[touched] -= np.outer(A[touched, col], A[row])
        A[touched, col] = 0
        pivot_cols.append(col)
        row += 1
    if stats is not None:
        stats["min_accepted_pivot_ratio"] = min(stats.get("min_accepted_pivot_ratio", math.inf), float(accepted))
        stats["max_rejected_pivot_ratio"] = max(stats.get("max_rejected_pivot_ratio", 0.0), float(rejected))
    rules: dict[TermKey, FreeElement] = {}
    for r_i, col in enumerate(pivot_cols):
        head = columns[col]
        if len(head[1]) == 0:
            raise InconsistentIdeal("a bare constant survived row reduction")
        row_vec = np.abs(A[r_i])
        kept = np.flatnonzero(~(row_vec <= NOISE_LEVEL * row_vec.max()))
        rules[head] = FreeElement(n, G, {columns[k]: -A[r_i, k] for k in kept if k != col})
    return rules


def completion_residuals(sys: ReductionSystem) -> list[FreeElement]:
    """Cubic ideal elements that the quadratic rules leave unresolved.

    These are the overlap ambiguities (Bergman 1978), reduced term by term as
    they are formed: the products g*r, r = head - tail a rule without free
    tags and of head (hm, ab), where some rule rewrites (g, a) under a mask
    inside hm.  Every other g*r and every r*g is 0 in exact arithmetic, as
    left-first rewriting of its head applies r first.  A product no larger
    than NOISE_LEVEL times the largest term summed into it is rounding noise.
    """
    n, G, unused = sys.n, sys.G, sys.unused
    out: list[FreeElement] = []
    for (hm, hw), tail in sys.rules.items():
        if hm & unused:
            continue
        r = FreeElement(n, G, {(hm, hw): 1.0}) - tail
        for g in range(G):
            if not any(m & hm == m for m, _ in sys.rules_by_word.get((g, hw[0]), ())):
                continue
            acc: dict[TermKey, complex] = {}
            scale = 0.0  # the largest term summed in sets the rounding level
            for (mask, word), c in r.terms.items():
                for k, c2 in sys._nf(mask, (g, *word), "left").items():
                    p = c * c2
                    acc[k] = acc.get(k, 0j) + p
                    scale = max(scale, abs(p))
            red = FreeElement(n, G, acc)
            if not red.max_abs() <= NOISE_LEVEL * scale:  # a nan row stays
                out.append(red)
    return out


def _lift_rules(rules: dict[TermKey, FreeElement], unused: int) -> dict[TermKey, FreeElement]:
    """The rules with every subset of the free tags OR-ed into head and tail.

    The copies are ordered by head, largest first: the pivot order of the
    elimination over the full tag closure, whose matrix is block diagonal
    with one copy of the compact matrix per subset.
    """
    if not unused:
        return rules
    lifted = {}
    for e in range(unused + 1):
        if e & unused != e:
            continue
        for (hm, hw), tail in rules.items():
            terms = {(tm | e, tw): c for (tm, tw), c in tail.terms.items()}
            lifted[(hm | e, hw)] = FreeElement(tail.n, tail.G, terms)
    return dict(sorted(lifted.items(), key=lambda it: term_order_key(*it[0]), reverse=True))


def quadratic_reduction(rs: Sequence[FreeElement], n: int, G: int) -> ReductionSystem:
    """Row-reduce the tag closure of a degree <= 2 relation set into rules.

    The system holds the quadratic rules only: words of degree <= 2 meet no
    cubic head, so they reduce here as in the completion (build_reduction)
    whenever it adds no rule of degree <= 2.  Tags that no relation carries
    are free: the elimination runs on the other tags, and the rules are
    lifted to every free-tag subset.  `stats` describes the full system over
    all n tags: closure rows, quadratic rules, free tags (1-based), copies
    and the pivot ratios closest to PIVOT_THRESHOLD on either side.
    """
    unused = unused_tags(rs, n)
    copies = 1 << unused.bit_count()
    closure = iota_closure(rs, n, unused)
    for r in closure:
        if r.degree() > 2:
            raise ValueError("relations must have word degree <= 2")
    stats: dict = {
        "closure_rows": len(closure) * copies,
        "free_tags": [k + 1 for k in range(n) if unused >> k & 1],
        "tag_copies": copies,
        "pivot_threshold": PIVOT_THRESHOLD,
    }
    rules = _lift_rules(_rref_rules(closure, n, G, stats=stats), unused)
    stats["quadratic_rules"] = len(rules)
    sys = ReductionSystem(n, G, rules, unused)
    sys.stats = stats
    return sys


def build_reduction(quadratic: ReductionSystem) -> ReductionSystem:
    """Complete a quadratic system (see quadratic_reduction) at degree 3.

    The overlap ambiguities of the quadratic rules (see
    completion_residuals) are row-reduced once, and their pivots become
    degree-3 rules, lifted to every free-tag subset.  One step is enough:
    every term of a residual is irreducible, so in exact arithmetic every
    nonzero element of the degree-3 ideal whose terms are all irreducible has
    a new pivot as its leading term.  That makes the step complete whenever
    every quadratic head has degree 2 and every new head degree 3; other
    inputs raise InconsistentIdeal.  The completion reduces with a new system
    and leaves `quadratic` as it was.  Its `stats` extend those of
    `quadratic` with the residual rows (the ambiguities that are not rounding
    noise) and the cubic rules, both counted over all n tags.
    """
    n, G, unused = quadratic.n, quadratic.G, quadratic.unused
    stats, rules = dict(quadratic.stats), quadratic.rules
    _require_head_degree(rules, 2, "quadratic")
    residuals = completion_residuals(ReductionSystem(n, G, rules, unused))
    cubic = _lift_rules(_rref_rules(residuals, n, G, stats=stats), unused)
    _require_head_degree(cubic, 3, "completed")
    stats["residual_rows"] = len(residuals) * stats["tag_copies"]
    stats["cubic_rules"] = len(cubic)
    sys = ReductionSystem(n, G, rules | cubic, unused)
    sys.stats = stats
    return sys


def _require_head_degree(rules: Mapping[TermKey, FreeElement], degree: int, what: str) -> None:
    low = [hw for _, hw in rules if len(hw) < degree]
    if low:
        raise InconsistentIdeal(
            f"a {what} rule head of degree {len(low[0])} lies outside the one-step "
            f"degree-3 completion, which needs degree {degree}"
        )


def confluence_check(sys: ReductionSystem) -> dict:
    """Left-first vs right-first reduction of every tagged degree-3 word.

    Every word is checked under every tag mask; `words_checked` counts the
    words, `tagged_words_checked` the (mask, word) pairs.  Only the masks
    without free tags are visited: each of them stands for `tag_copies`
    masks whose gaps are exact copies of its own (see _nf_term), so a word's
    worst gap over them is its worst over every mask.
    """
    masks = [m for m in range(1 << sys.n) if not m & sys.unused]
    per_word = {}
    for word in product(range(sys.G), repeat=CLOSURE_DEGREE):
        gaps = []
        for mask in masks:
            nl, nr = sys._nf(mask, word, "left"), sys._nf(mask, word, "right")
            if nl != nr:
                gaps += [abs(nl.get(k, 0j) - nr.get(k, 0j)) for k in nl.keys() | nr.keys()]
        per_word[word] = worst_residual(gaps)
    failing = [w for w, diff in per_word.items() if not diff <= 1e-9]
    return {
        "degree": CLOSURE_DEGREE,
        "rules": len(sys),
        "words_checked": len(per_word),
        "tagged_words_checked": len(per_word) * (1 << sys.n),
        "tag_copies": 1 << sys.unused.bit_count(),
        "max_discrepancy": worst_residual(per_word.values()),
        "failing_words": failing,
        "confluent": not failing,
    }


def relation_rank(relations: Sequence[FreeElement]) -> int:
    """Numeric rank of a relation list in the (mask, word) basis: the count
    of singular values above PIVOT_THRESHOLD times the largest."""
    columns = sorted({k for r in relations for k in r.terms})
    if not columns:
        return 0
    sv = np.linalg.svd(coefficient_matrix(relations, columns), compute_uv=False)
    return int(np.count_nonzero(sv > PIVOT_THRESHOLD * sv[0]))

"""The quotient pipeline's row reduction, completion residuals and
free-tag factoring, checked against the plain reference implementations in
oracles.py."""

import cmath
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckq import frt
from ckq.free_algebra import (
    CLOSURE_DEGREE,
    PIVOT_THRESHOLD,
    FreeElement,
    InconsistentIdeal,
    NonTerminatingRules,
    ReductionSystem,
    _rref_rules,
    build_reduction,
    completion_residuals,
    confluence_check,
    iota_closure,
    quadratic_reduction,
    term_order_key,
    unused_tags,
)
from ckq.pimenov import ParameterSignature
from oracles import (
    closure_keep,
    closure_residuals,
    multi_round_build_reduction,
    product_residuals,
    reference_build_reduction,
    reference_confluence_check,
    reference_rref_rules,
)

QUANTUM_SIGS = ["1,1", "1,n", "n,1", "n,n"]
V_SAMPLES = [0.37, 0.61 + 0.29j]
G = frt.NGEN
# tags no relation carries (1-based) and the 2^k copies of the ideal over them
FREE_TAGS = {"1,1": [1, 2], "1,n": [1], "n,1": [2], "n,n": []}
# the stats that describe the full system; the pivot ratios come from the
# compact elimination and may differ where equal-magnitude pivots tie
STRUCTURAL_STATS = ("closure_rows", "quadratic_rules", "residual_rows", "cubic_rules", "pivot_threshold")
# cubic rules the completion adds per signature
CUBIC_RULES = {"1,1": 92, "1,n": 66, "n,1": 74, "n,n": 46}


def complete(rs, n, G):
    """Both stages of the quotient build of a relation set."""
    return build_reduction(quadratic_reduction(rs, n, G))


def assert_same_rules(got, want, tol=1e-12, relative=False):
    # a relative tol scales with the largest coefficient of each wanted tail
    assert list(got) == list(want)  # the same heads in the same pivot order
    for head, tail in got.items():
        ref = want[head].terms
        assert set(tail.terms) == set(ref), head
        bound = tol * max([1.0, *map(abs, ref.values())]) if relative else tol
        assert all(abs(c - ref[k]) <= bound for k, c in tail.terms.items()), head


def quadratic_stage(sig_text, v):
    """Tag closure, quadratic rules, their system and the oracles' keep level."""
    sig = ParameterSignature.parse(sig_text)
    n = sig.n_slots
    closure = iota_closure(frt.full_relations(sig, v), n)
    rules = _rref_rules(closure, n, G)
    return closure, rules, ReductionSystem(n, G, dict(rules)), closure_keep(closure)


def as_elements(rules, n):
    return [FreeElement(n, G, {h: 1.0}) - t for h, t in rules.items()]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_rref_matches_reference_gauss_jordan(sig_text):
    for v in V_SAMPLES:
        closure, rules, system, _ = quadratic_stage(sig_text, v)
        n = system.n
        assert_same_rules(rules, reference_rref_rules(closure, n, G))
        residuals = completion_residuals(system)
        assert_same_rules(_rref_rules(residuals, n, G), reference_rref_rules(residuals, n, G))


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_rule_residuals_give_closure_residual_heads(sig_text):
    closure, rules, system, keep = quadratic_stage(sig_text, 0.37)
    n = system.n
    from_rules = _rref_rules(completion_residuals(system), n, G)
    from_closure = _rref_rules(closure_residuals(system, closure, keep), n, G)
    assert list(from_rules) == list(from_closure)
    assert_same_rules(from_rules, from_closure, tol=1e-9)


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_rule_residuals_equal_reduced_whole_products(sig_text):
    # every row of the completion is the oracle's product g*r for the same
    # rule r and generator g, term list for term list, in the same order;
    # every product it skips, g*r or r*g, reduces to rounding noise
    for v in V_SAMPLES:
        _, rules, system, _ = quadratic_stage(sig_text, v)
        got = completion_residuals(system)
        i = 0
        for r in as_elements(rules, system.n):
            bound = 1e-14 * max(1.0, r.max_abs())
            # g*r then r*g for each g, none dropped
            for product in product_residuals(system, [r], -1.0):
                if i < len(got) and list(got[i].terms.items()) == list(product.terms.items()):
                    i += 1
                else:
                    assert product.max_abs() <= bound
        assert i == len(got)


def overlaps(system, head, g):
    """Whether some rule rewrites the first two letters of g * head under a
    mask inside the head's."""
    hm, (a, _) = head
    return any(w == (g, a) and m & hm == m for m, w in system.rules)


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_completion_forms_exactly_the_overlap_products(sig_text):
    # the head of each product g*r the completion reduces is an overlap
    # ambiguity, and every overlap ambiguity is reduced
    _, rules, system, _ = quadratic_stage(sig_text, 0.37)
    reduced = []
    nf = system._nf
    system._nf = lambda mask, word, strategy: reduced.append((mask, word)) or nf(mask, word, strategy)
    completion_residuals(system)
    formed = [(m, w) for m, w in reduced if (m, w[1:]) in rules]
    want = [(hm, (g, *hw)) for hm, hw in rules for g in range(G) if overlaps(system, (hm, hw), g)]
    assert formed == want
    assert 0 < len(want) < G * len(rules)


@given(
    q=st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=30, deadline=None)
def test_completion_adds_no_rule_where_every_ambiguity_resolves(q):
    # the quantum 3-space y*x = q1 x*y, z*x = q2 x*z, z*y = q3 y*z: its one
    # ambiguity, z*y*x, resolves in exact arithmetic, and in floats its
    # rounding noise is the only row, so no other row can tell it from a
    # residual; it must not become a rule such as x*y*z -> 0
    pairs = [(0, 1), (0, 2), (1, 2)]
    rels = [FreeElement(0, 3, {(0, (b, a)): 1.0, (0, (a, b)): -qk}) for (a, b), qk in zip(pairs, q)]
    system = complete(rels, 0, 3)
    assert system.stats["residual_rows"] == system.stats["cubic_rules"] == 0
    assert len(system) == 3
    # the gap of z*y*x is rounding relative to q1*q2*q3; confluence_check's
    # absolute 1e-9 gate fails near |q| = 1e3
    assert confluence_check(system)["max_discrepancy"] <= 1e-14 * max(1.0, abs(q[0] * q[1] * q[2]))


# words of length 1 and 2 under every tag mask of D_2 over 3 generators
_KEYS = [(m, (a,)) for m in range(4) for a in range(3)] + [
    (m, (a, b)) for m in range(4) for a in range(3) for b in range(3)
]


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 40),
    cols=st.integers(2, 24),
    rank=st.integers(1, 5),
    integer=st.booleans(),
    noise_rows=st.integers(0, 5),
    small_rows=st.integers(0, 3),
    small=st.sampled_from([1e-11, 1e-9, 1e-7, 1e-4]),
)
@settings(max_examples=60, deadline=None)
def test_rref_matches_reference_on_low_rank_matrices(
    seed, rows, cols, rank, integer, noise_rows, small_rows, small
):
    # integer factors give exact ties and exact cancellations, float factors
    # rounding noise.  Rows of 1e-14 noise must be dropped as dead rows.  A
    # small sparse part P is added to some rows and also stacked on its own:
    # rows far below the others in scale, and rows that shrink by orders of
    # magnitude once the low-rank part is eliminated, so a stale or swapped
    # row scale would misjudge their pivots.
    rng = np.random.default_rng(seed)

    def draw(shape):
        if integer:
            return rng.integers(-2, 3, size=shape) + 1j * rng.integers(-1, 2, size=shape)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    M = draw((rows, rank)) @ draw((rank, cols))
    assume(np.abs(M).max() >= 0.1)
    small_rows = min(small_rows, rows)
    P = small * draw((small_rows, cols)) * (rng.random((small_rows, cols)) < 0.5)
    M[:small_rows] += P
    noise = 1e-14 * (rng.normal(size=(noise_rows, cols)) + 1j * rng.normal(size=(noise_rows, cols)))
    A = np.vstack([M, P, noise])
    A = A[rng.permutation(len(A))]
    keys = [_KEYS[i] for i in rng.choice(len(_KEYS), size=cols, replace=False)]
    elements = [FreeElement(2, 3, {k: c for k, c in zip(keys, row)}) for row in A]
    rules = _rref_rules(elements, 2, 3)
    assert_same_rules(rules, reference_rref_rules(elements, 2, 3))


def test_rref_row_keeps_its_own_scale_after_a_swap():
    # the first row is 1e-9 in scale and zero in the first column, so it is
    # swapped below the pivot and survives elimination untouched; judged by
    # its own scale its entry is a pivot, judged by the pivot row's it is not
    small = FreeElement(1, 3, {(0, (1, 1)): 1e-9})
    big = FreeElement(1, 3, {(0, (2, 2)): 1.0})
    rules = _rref_rules([small, big], 1, 3)
    assert list(rules) == [(0, (2, 2)), (0, (1, 1))]
    assert_same_rules(rules, reference_rref_rules([small, big], 1, 3))


# frt.FROZEN_RULES holds for 0.02 <= |v| <= 0.9; outside that range at 1,1
# the counts may hold while confluence fails (see test_cli)
@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    r=st.floats(0.05, 0.9),
    phase=st.floats(0.0, 2 * cmath.pi),
)
@settings(max_examples=6, deadline=None)
def test_rule_counts_on_v_disc(sig_text, r, phase):
    sig = ParameterSignature.parse(sig_text)
    system = complete(frt.full_relations(sig, cmath.rect(r, phase)), sig.n_slots, G)
    assert len(system) == frt.FROZEN_RULES[sig_text]
    rep = confluence_check(system)
    assert rep["confluent"] and rep["max_discrepancy"] <= 1e-9


def test_build_reduction_reports_stats():
    stats = frt.reduction_system(ParameterSignature.parse("1,1"), 0.37).stats
    assert stats["closure_rows"] == 380
    assert stats["quadratic_rules"] == frt.FROZEN_QUADRATIC_RULES["1,1"]
    # of the 2 * 9 * 188 products g*r and r*g, 760 do not reduce to 0
    assert stats["residual_rows"] == 760
    assert stats["cubic_rules"] == frt.FROZEN_RULES["1,1"] - frt.FROZEN_QUADRATIC_RULES["1,1"]
    assert "rounds" not in stats and "completion_rounds" not in stats
    assert stats["max_rejected_pivot_ratio"] < PIVOT_THRESHOLD < stats["min_accepted_pivot_ratio"]


def assert_completion_keeps_quadratic_rules(sig, v):
    # the degree <= 2 rules of the completed system are exactly the
    # quadratic system's: the same heads in the same order, equal tails
    completed = frt.reduction_system(sig, v)
    quadratic = frt.quadratic_system(sig, v)
    low = {h: t for h, t in completed.rules.items() if len(h[1]) <= 2}
    assert list(low) == list(quadratic.rules)
    assert all(low[h].terms == t.terms for h, t in quadratic.rules.items())
    assert len(completed) > len(quadratic) == quadratic.stats["quadratic_rules"]
    return quadratic


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_quadratic_system_has_the_frozen_rule_count(sig_text):
    sig = ParameterSignature.parse(sig_text)
    for v in V_SAMPLES:
        quadratic = frt.quadratic_system(sig, v)
        assert len(quadratic) == quadratic.stats["quadratic_rules"] == frt.FROZEN_QUADRATIC_RULES[sig_text]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_completion_keeps_the_quadratic_rules(sig_text):
    for v in V_SAMPLES:
        assert_completion_keeps_quadratic_rules(ParameterSignature.parse(sig_text), v)


@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    r=st.floats(0.02, 0.9),
    phase=st.floats(0.0, 2 * cmath.pi),
)
@settings(max_examples=6, deadline=None)
def test_completion_keeps_the_quadratic_rules_on_v_disc(sig_text, r, phase):
    v = cmath.rect(r, phase)
    quadratic = assert_completion_keeps_quadratic_rules(ParameterSignature.parse(sig_text), v)
    assert quadratic._memo == {"left": {}, "right": {}}


def assert_one_step_matches_rounds(sig_text, v):
    # the rounds add every cubic rule in their first round and confirm in the
    # second.  Their first round also eliminates the quadratic system's
    # diamond gaps, which moves the last bits of the tails at 1,1 only.
    sig = ParameterSignature.parse(sig_text)
    got = frt.reduction_system(sig, v)
    keep = closure_keep(iota_closure(frt.full_relations(sig, v), sig.n_slots))
    want = multi_round_build_reduction(frt.quadratic_system(sig, v), keep)
    assert [rd["added_rules"] for rd in want.stats["rounds"]] == [CUBIC_RULES[sig_text], 0]
    if sig_text == "1,1":
        assert_same_rules(got.rules, want.rules, relative=True)
    else:
        assert list(got.rules) == list(want.rules)
        assert all(t.terms == want.rules[h].terms for h, t in got.rules.items())


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_one_step_completion_matches_the_rounds(sig_text):
    for v in V_SAMPLES:
        assert_one_step_matches_rounds(sig_text, v)


@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    r=st.floats(0.02, 0.9),
    phase=st.floats(0.0, 2 * cmath.pi),
)
@settings(max_examples=6, deadline=None)
def test_one_step_completion_matches_the_rounds_on_v_disc(sig_text, r, phase):
    assert_one_step_matches_rounds(sig_text, cmath.rect(r, phase))


def test_completion_leaves_its_input_untouched():
    sig = ParameterSignature.parse("n,n")
    quadratic = quadratic_reduction(frt.full_relations(sig, 0.37), sig.n_slots, G)
    rules, stats = dict(quadratic.rules), dict(quadratic.stats)
    completed = build_reduction(quadratic)
    assert quadratic._memo == {"left": {}, "right": {}}
    assert quadratic.rules == rules and quadratic.stats == stats
    assert completed.stats["cubic_rules"] == CUBIC_RULES["n,n"] and "cubic_rules" not in stats


def assert_same_build(got, want, tol=1e-12):
    assert_same_rules(got.rules, want.rules, tol)
    for key in STRUCTURAL_STATS:
        assert got.stats[key] == want.stats[key], key
    for stats in (got.stats, want.stats):
        assert stats["max_rejected_pivot_ratio"] < PIVOT_THRESHOLD < stats["min_accepted_pivot_ratio"]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_factored_build_matches_reference(sig_text):
    sig = ParameterSignature.parse(sig_text)
    for v in V_SAMPLES:
        rs = frt.full_relations(sig, v)
        system = complete(rs, sig.n_slots, G)
        assert_same_build(system, reference_build_reduction(rs, sig.n_slots, G))
        assert len(system) == frt.FROZEN_RULES[sig_text]
        assert system.stats["cubic_rules"] == CUBIC_RULES[sig_text]
        assert system.stats["free_tags"] == FREE_TAGS[sig_text]
        assert system.stats["tag_copies"] == 2 ** len(FREE_TAGS[sig_text])


# every (mask, word) of degree <= 3 over D_2 and the 9 generators
_ALL_TERMS = [
    (mask, word)
    for d in range(CLOSURE_DEGREE + 1)
    for word in product(range(G), repeat=d)
    for mask in range(4)
]


@pytest.mark.parametrize("sig_text", ["1,1", "1,n", "n,1"])
def test_factored_normal_forms_equal_plain_ones(sig_text):
    sig = ParameterSignature.parse(sig_text)
    factored = frt.reduction_system(sig, 0.37)
    assert factored.unused
    plain = ReductionSystem(sig.n_slots, G, dict(factored.rules))
    for strategy in ("left", "right"):
        for mask, word in _ALL_TERMS:
            assert factored._nf_term(mask, word, strategy) == plain._nf_term(mask, word, strategy)


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_every_tail_term_lies_below_its_head(sig_text):
    # rewriting ends (ReductionSystem._nf_term recurses on tail terms) only
    # because every tail term is smaller than its head
    sig = ParameterSignature.parse(sig_text)
    for v in V_SAMPLES + [size * v / abs(v) for size in (0.02, 0.9) for v in V_SAMPLES]:
        for system in (frt.quadratic_system(sig, v), frt.reduction_system(sig, v)):
            for head, tail in system.rules.items():
                assert all(term_order_key(*t) < term_order_key(*head) for t in tail.terms), (v, head)


def test_unused_tags_and_compact_closure():
    n = 3
    x = FreeElement(n, 2, {(0b001, (0,)): 1.0, (0, (1, 1)): 2.0})
    y = FreeElement(n, 2, {(0b100, (1,)): 1.0})
    assert unused_tags([x, y], n) == 0b010
    assert unused_tags([], n) == 0b111
    full = iota_closure([x, y], n)
    compact = iota_closure([x, y], n, unused=0b010)
    assert len(full) == 2 * len(compact)
    assert all(all(m & 0b010 == 0 for m, _ in r.terms) for r in compact)


def _random_relation(draw, n, tags):
    # one term carries every tag of `tags`, so exactly the others are free
    terms = {(tags, (draw(st.integers(0, 2)),)): 1.0}
    for _ in range(draw(st.integers(0, 3))):
        word = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
        mask = draw(st.integers(0, (1 << n) - 1)) & tags
        re, im = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
        terms[(mask, word)] = complex(re, im)
    return FreeElement(n, 3, terms)


@st.composite
def relation_sets(draw):
    n = 3
    tags = draw(st.sampled_from([0, 0b111, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110]))
    return [_random_relation(draw, n, tags) for _ in range(draw(st.integers(1, 4)))]


def _result_or_error(fn, *args):
    # an InconsistentIdeal keeps its message, which tells 1 in the ideal from
    # a rule head outside the one-step completion's scope, and names the stage
    try:
        return fn(*args)
    except NonTerminatingRules as exc:
        return type(exc)
    except InconsistentIdeal as exc:
        return type(exc), str(exc)


def assert_confluence_matches_reference(system):
    # the reference compares normal forms under every tag mask on a plain
    # copy of the rules, with no free tags factored out
    got = _result_or_error(confluence_check, system)
    plain = ReductionSystem(system.n, system.G, dict(system.rules))
    want = _result_or_error(reference_confluence_check, plain)
    if isinstance(want, type):
        assert got is want
        return got
    assert got.pop("tag_copies") == 2 ** system.unused.bit_count()
    assert got == want
    return got


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_confluence_matches_all_mask_reference(sig_text):
    sig = ParameterSignature.parse(sig_text)
    for v in V_SAMPLES:
        rep = assert_confluence_matches_reference(frt.reduction_system(sig, v))
        assert rep["confluent"]
        # the quadratic rules alone leave many words with gaps of order 1
        quadratic = frt.quadratic_system(sig, v)
        rep = assert_confluence_matches_reference(
            ReductionSystem(sig.n_slots, G, dict(quadratic.rules), quadratic.unused)
        )
        assert not rep["confluent"]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_confluence_without_some_cubic_rules_matches_reference(sig_text):
    # every other cubic rule is dropped with all its free-tag copies, so the
    # rules are still copies of the rules that carry no free tag
    system = frt.reduction_system(ParameterSignature.parse(sig_text), 0.37)
    cubic = sorted({(hm & ~system.unused, hw) for hm, hw in system.rules if len(hw) == 3})
    dropped = set(cubic[::2])
    rules = {h: t for h, t in system.rules.items() if (h[0] & ~system.unused, h[1]) not in dropped}
    rep = assert_confluence_matches_reference(ReductionSystem(system.n, G, rules, system.unused))
    assert not rep["confluent"]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_confluence_visits_only_the_masks_without_free_tags(sig_text):
    # the completion reduces with a system of its own, so the certificate
    # takes every normal form of the system it is given; rewriting from a
    # mask without free tags never reaches one with them
    sig = ParameterSignature.parse(sig_text)
    system = complete(frt.full_relations(sig, 0.37), sig.n_slots, G)
    assert system._memo == {"left": {}, "right": {}}
    rep = assert_confluence_matches_reference(system)
    assert rep["rules"] == frt.FROZEN_RULES[sig_text]
    assert all(not mask & system.unused for memo in system._memo.values() for mask, _ in memo)


@given(rels=relation_sets())
@settings(max_examples=25, deadline=None)
def test_confluence_matches_reference_on_random_relations(rels):
    # most of these sets have a head of degree 1, which the completion
    # rejects; their quadratic systems are still compared
    quadratic = quadratic_reduction(rels, 3, 3)
    assert_confluence_matches_reference(quadratic)
    completed = _result_or_error(build_reduction, quadratic)
    if isinstance(completed, ReductionSystem):
        assert_confluence_matches_reference(completed)


@given(rels=relation_sets())
@settings(max_examples=40, deadline=None)
def test_factored_build_matches_reference_on_random_relations(rels):
    # relations over n = 3 tags that use none, some or all of them
    got = _result_or_error(complete, rels, 3, 3)
    want = _result_or_error(reference_build_reduction, rels, 3, 3)
    if not isinstance(want, ReductionSystem):
        assert got == want
        return
    assert_same_rules(got.rules, want.rules, tol=1e-9)
    for key in STRUCTURAL_STATS:
        assert got.stats[key] == want.stats[key], key
    assert got.unused == unused_tags(rels, 3)
    assert got.stats["tag_copies"] == 2 ** bin(got.unused).count("1")

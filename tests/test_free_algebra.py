"""Tests for the free-algebra term order, row reduction and rewriting."""

import pytest

from ckq.free_algebra import (
    FreeElement,
    InconsistentIdeal,
    NonTerminatingRules,
    ReductionSystem,
    TensorElement,
    build_reduction,
    confluence_check,
    free_tensor,
    iota_closure,
    quadratic_reduction,
    relation_rank,
    term_order_key,
)
from ckq.pimenov import PimenovElement
from oracles import reference_reduce_tensor


def gen(g, n=1, G=3):
    return FreeElement.generator(n, G, g)


# -- term order -------------------------------------------------------------


def test_term_order_graded():
    # longer words always dominate
    assert term_order_key(0, (2, 2)) > term_order_key(0b1, (2,))


def test_term_order_translation_invariant_under_tag_union():
    # comparing two terms is stable when both acquire the same disjoint tags
    a, b = (0b01, (1, 0)), (0b00, (1, 0))
    assert (term_order_key(*a) > term_order_key(*b)) == (
        term_order_key(a[0] | 0b10, a[1]) > term_order_key(b[0] | 0b10, b[1])
    )


def test_more_tags_reduce_rank():
    # with equal words, more nilpotent tags sorts lower
    assert term_order_key(0b0, (1,)) > term_order_key(0b1, (1,))


# -- arithmetic -------------------------------------------------------------


def test_product_concatenates_words():
    x = gen(0) * gen(1)
    ((mask, word),) = x.terms.keys()
    assert word == (0, 1) and mask == 0


def test_nilpotent_coefficients_multiply_masks():
    n, G = 2, 3
    t1 = PimenovElement.tag(n, 1)
    x = FreeElement.generator(n, G, 0) * t1
    y = x * t1
    assert y.is_zero()


def test_tensor_product_banks_independent():
    t = free_tensor(gen(0), gen(1)) * 2.0
    ((mask, lw, rw),) = t.terms.keys()
    assert lw == (0,) and rw == (1,)


# -- row reduction and rewriting --------------------------------------------


def _toy_commutative_rules():
    # x y - q y x = 0 for two generators
    n, G = 1, 2
    rel = gen(1, n, G) * gen(0, n, G) - gen(0, n, G) * gen(1, n, G) * 0.5
    return build_reduction(quadratic_reduction([rel], n, G))


def test_build_reduction_toy_system():
    sys = _toy_commutative_rules()
    x, y = gen(0, 1, 2), gen(1, 1, 2)
    nf = sys.reduce(y * x)
    assert (nf - x * y * 0.5).max_abs() <= 1e-14


def test_confluence_toy_system():
    sys = _toy_commutative_rules()
    rep = confluence_check(sys)
    assert rep["confluent"]
    assert rep["words_checked"] == 2**3
    assert rep["tagged_words_checked"] == 2**3 * 2


def test_reduce_is_idempotent():
    sys = _toy_commutative_rules()
    x, y = gen(0, 1, 2), gen(1, 1, 2)
    e = y * x * y + x * x - y * 3.0
    once = sys.reduce(e)
    twice = sys.reduce(once)
    assert (once - twice).max_abs() == 0


def test_inconsistent_ideal_detected():
    n, G = 1, 2
    one = FreeElement.const(n, G, 1.0)
    with pytest.raises(InconsistentIdeal):
        quadratic_reduction([one], n, G)


def test_empty_relation_set_gives_empty_systems():
    quadratic = quadratic_reduction([FreeElement(3, 3)], 3, 3)
    assert len(quadratic) == 0
    completed = build_reduction(quadratic)
    assert len(completed) == 0
    assert completed.stats["residual_rows"] == completed.stats["cubic_rules"] == 0
    assert confluence_check(completed)["confluent"]


def test_linear_head_is_outside_the_completion():
    n, G = 1, 2
    quadratic = quadratic_reduction([gen(1, n, G) - gen(0, n, G)], n, G)
    assert {hw for _, hw in quadratic.rules} == {(1,)}
    with pytest.raises(InconsistentIdeal, match="quadratic rule head of degree 1"):
        build_reduction(quadratic)


def test_quadratic_head_after_completion_is_outside_it():
    # x*(xx - y) reduces to yx - xy: the ideal has a quadratic element that
    # the relation's tag closure does not span, and one step cannot adopt it
    n, G = 1, 2
    x, y = gen(0, n, G), gen(1, n, G)
    with pytest.raises(InconsistentIdeal, match="completed rule head of degree 2"):
        build_reduction(quadratic_reduction([x * x - y], n, G))


def test_iota_closure_splits_masks():
    n, G = 2, 2
    t1 = PimenovElement.tag(n, 1)
    rel = gen(0, n, G) + gen(1, n, G) * t1
    closure = iota_closure([rel], n)
    # multiplying by the complementary tags isolates homogeneous layers
    assert len(closure) >= 2


def test_relation_rank_counts_independent_rows():
    n, G = 1, 2
    x, y = gen(0, n, G), gen(1, n, G)
    rels = [x * y - y * x, (x * y - y * x) * 2.0, x * x]
    assert relation_rank(rels) == 2


def test_reduce_tensor_applies_both_banks():
    sys = _toy_commutative_rules()
    x, y = gen(0, 1, 2), gen(1, 1, 2)
    t = free_tensor(y * x, y * x)
    nf = sys.reduce_tensor(t)
    want = free_tensor(x * y, x * y) * 0.25
    assert (nf - want).max_abs() <= 1e-14


def test_reduce_tensor_rereduces_the_left_bank_under_new_tags():
    # z = i1 x and i1 y = i1 x: y (x) z = i1 y (x) x = i1 x (x) x, which takes
    # a second pass, because the tag appears only when the right bank reduces
    n, G = 1, 3
    rules = {
        (0, (2,)): FreeElement(n, G, {(1, (0,)): 1.0}),
        (1, (1,)): FreeElement(n, G, {(1, (0,)): 1.0}),
    }
    sys = ReductionSystem(n, G, rules)
    t = TensorElement(n, G, {(0, (1,), (2,)): 1.0})
    assert sys.reduce_tensor(t).terms == {(1, (0,), (0,)): 1.0}
    assert reference_reduce_tensor(sys, t).terms == {(1, (0,), (0,)): 1.0}


def test_reduce_tensor_raises_when_the_banks_keep_trading_tags():
    # each bank terminates on its own, but the left rule swaps tag 1 for tag
    # 2 and the right rule swaps it back, so the shared tag pool never settles
    n, G = 2, 2
    rules = {
        (1, (0,)): FreeElement(n, G, {(2, (0,)): 1.0}),
        (2, (1,)): FreeElement(n, G, {(1, (1,)): 1.0}),
    }
    sys = ReductionSystem(n, G, rules)
    assert sys.reduce(FreeElement(n, G, {(1, (0,)): 1.0})).terms == {(2, (0,)): 1.0}
    with pytest.raises(NonTerminatingRules):
        sys.reduce_tensor(TensorElement(n, G, {(2, (0,), (1,)): 1.0}))

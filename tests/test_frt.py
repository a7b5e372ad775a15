"""Tests for the N=3 quantum-group module: exchange matrix, quadratic
relations, quotient well-definedness and Hopf structure."""

import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckq import frt
from ckq.free_algebra import (
    PIVOT_THRESHOLD,
    FreeElement,
    build_reduction,
    coefficient_matrix,
    confluence_check,
    iota_closure,
    quadratic_reduction,
    relation_rank,
)
from ckq.frt import FROZEN_QUOTIENT_RANK
from ckq.pimenov import ParameterSignature, PimenovElement, worst_residual
from oracles import reference_coproduct_compatibility, reference_rtt_relations

QUANTUM_SIGS = ["1,1", "1,n", "n,1", "n,n"]
CONTRACTED_SIGS = ["1,n", "n,1", "n,n"]
V_SAMPLES = [0.37, 0.61 + 0.29j]

# rank of the tag closure of the full relation set, the same on the direct
# and the substituted route, and so the number of quadratic rules; it holds on
# the whole disc |v| <= 0.9, v = 0 included
CONTRACTION_RANK = frt.FROZEN_QUADRATIC_RULES
# copies of the closures over the tags neither relation set carries
TAG_COPIES = {"1,1": 4, "1,n": 2, "n,1": 2, "n,n": 1}
# distinct (mask, word) terms of the full relation set
COPRODUCT_BASIS_TERMS = {"1,1": 82, "1,n": 90, "n,1": 90, "n,n": 62}


def sig_of(text):
    return ParameterSignature.parse(text)


def golden_entries(v):
    """Nonzero entries of the 9x9 exchange matrix at the trivial signature
    (1-based positions)."""
    ep, em = cmath.exp(v), cmath.exp(-v)
    em2, sh = cmath.exp(-v / 2), cmath.sinh(v)
    return {
        (1, 1): ep,
        (2, 2): 1,
        (3, 3): em,
        (4, 2): 2 * sh,
        (4, 4): 1,
        (5, 3): -2 * em2 * sh,
        (5, 5): 1,
        (6, 6): 1,
        (7, 3): 2 * (1 - em) * sh,
        (7, 5): -2 * em2 * sh,
        (7, 7): em,
        (8, 6): 2 * sh,
        (8, 8): 1,
        (9, 9): ep,
    }


# -- exchange matrix --------------------------------------------------------


@pytest.mark.parametrize("v", V_SAMPLES)
def test_rmatrix_golden_table(v):
    R = frt.rmatrix3(sig_of("1,1"), v)
    gold = golden_entries(v)
    for i in range(9):
        for j in range(9):
            want = gold.get((i + 1, j + 1), 0)
            got = R.mat.entry(i, j).scalar_part
            assert abs(got - want) <= 1e-12, (i + 1, j + 1)


@pytest.mark.parametrize("sig_text", CONTRACTED_SIGS)
def test_contracted_rmatrix_structure(sig_text):
    R = frt.rmatrix3(sig_of(sig_text), 0.37)
    assert frt.contracted_structure_residual(R) == 0.0


def test_rmatrix_rejects_imaginary_slots():
    with pytest.raises(ValueError):
        frt.rmatrix3(ParameterSignature.parse("i,1"), 0.37)


# -- Yang-Baxter ------------------------------------------------------------


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_qybe(sig_text, v):
    assert frt.qybe_check(frt.rmatrix3(sig_of(sig_text), v)) <= 1e-10


def test_qybe_negative_control():
    R = frt.rmatrix3(sig_of("1,1"), 0.37)
    R.mat.blocks[0][3, 1] += 0.2
    assert frt.qybe_check(R) > 1e-2


# -- quotient ---------------------------------------------------------------


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_confluence_all_words(sig_text):
    sys = frt.reduction_system(sig_of(sig_text), 0.37)
    rep = confluence_check(sys)
    assert rep["words_checked"] == 9**3
    assert rep["tagged_words_checked"] == 9**3 * 4  # every tag mask of D_2
    assert rep["confluent"], rep["failing_words"][:5]
    assert rep["max_discrepancy"] <= 1e-9
    assert rep["degree"] == 3


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("attachments", [True, False])
def test_rtt_relations_match_whole_element_sums(sig_text, attachments):
    # the same keys in the same order and the same bits in every coefficient
    for v in V_SAMPLES + [1.2, -1.5]:
        R = frt.rmatrix3(sig_of(sig_text), v)
        got = frt.rtt_relations(R, attachments)
        want = reference_rtt_relations(R, attachments)
        assert [[(k, repr(c)) for k, c in r.terms.items()] for r in got] == [
            [(k, repr(c)) for k, c in r.terms.items()] for r in want
        ]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_rank_matches_frozen_oracle(sig_text, v):
    assert frt.rtt_rank(sig_of(sig_text), v) == FROZEN_QUOTIENT_RANK[sig_text]


def test_corrupted_relations_change_rank():
    # mutating one exchange-matrix entry is detectable as a rank jump
    R = frt.rmatrix3(sig_of("1,1"), 0.37)
    R.mat.blocks[0][3, 1] += 0.2
    rank = relation_rank(frt.rtt_relations(R))
    assert rank != FROZEN_QUOTIENT_RANK["1,1"]


def test_orthogonality_relations_annihilated_by_counit():
    sig = sig_of("1,1")
    C = frt.cmatrix(sig, 0.37)
    for rel in frt.orthogonality_relations(C):
        assert frt.counit(rel).max_abs() <= 1e-12


# -- Hopf structure ---------------------------------------------------------


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_counit_annihilates_relations(sig_text):
    assert frt.counit_residual(sig_of(sig_text), 0.37) == 0.0


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_antipode(sig_text):
    rep = frt.antipode_check(sig_of(sig_text), 0.37)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-9
    # certified at degree 2, by the quadratic rules (one per closure rank)
    assert rep["degree"] == 2 and rep["rules"] == CONTRACTION_RANK[sig_text]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_coproduct_compatible_with_relations(sig_text):
    rep = frt.coproduct_compatibility(sig_of(sig_text), 0.37)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-9
    assert rep["degree"] == 2 and rep["rules"] == CONTRACTION_RANK[sig_text]


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_coproduct_check_equals_whole_relation_reference(sig_text, v):
    # mapping and reducing each basis term once is the same linear map as
    # mapping and reducing every relation whole
    sig = sig_of(sig_text)
    got = frt.coproduct_compatibility(sig, v)
    want = reference_coproduct_compatibility(sig, v)
    assert got["pass"] and want["pass"]
    assert abs(got["residual"] - want["residual"]) <= 1e-12
    assert [i for i, _ in got["failures"]] == [i for i, _ in want["failures"]]
    assert got["stats"] == {
        "relations": len(frt.full_relations(sig, v)),
        "basis_terms": COPRODUCT_BASIS_TERMS[sig_text],
    }


@pytest.mark.parametrize("sig_text", ["1,1", "n,n"])
@pytest.mark.parametrize("perturbation", ["new word", "scaled term"])
def test_coproduct_check_flags_a_perturbed_relation(sig_text, perturbation, monkeypatch):
    sig, v, k = sig_of(sig_text), 0.37, 17
    frt.quadratic_system(sig, v)  # the quotient stays that of the true relations
    relations = list(frt.full_relations(sig, v))
    rel = relations[k]
    if perturbation == "new word":
        t11, t12 = (FreeElement.generator(sig.n_slots, frt.NGEN, g) for g in (0, 2))
        relations[k] = rel + t11 * t12 * 0.5
    else:
        key, c = next(iter(rel.terms.items()))
        relations[k] = rel + FreeElement(sig.n_slots, frt.NGEN, {key: 0.01 * c})
    perturbed = tuple(relations)
    monkeypatch.setattr(frt, "full_relations", lambda *args, **kwargs: perturbed)
    got = frt.coproduct_compatibility(sig, v)
    want = reference_coproduct_compatibility(sig, v)
    assert not got["pass"] and not want["pass"]
    assert [i for i, _ in got["failures"]] == [i for i, _ in want["failures"]] == [k]
    assert abs(got["residual"] - want["residual"]) <= 1e-12


# The three algebra maps out of the coordinate algebra, each as f(sig, x).
ALGEBRA_MAPS = {
    "counit": lambda sig, x: frt.counit(x),
    "coproduct": frt.coproduct,
    "substitution": lambda sig, x: frt.substitute_generators(sig, [x])[0],
}
COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def free_elements(n):
    """Elements of word degree <= 2 whose terms carry any tag subset."""
    key = st.tuples(st.integers(0, (1 << n) - 1), st.lists(st.integers(0, frt.NGEN - 1), max_size=2).map(tuple))
    return st.dictionaries(key, COEFFS, min_size=1, max_size=3).map(lambda t: FreeElement(n, frt.NGEN, t))


@given(data=st.data(), sig_text=st.sampled_from(["1,n", "n,n"]), name=st.sampled_from(sorted(ALGEBRA_MAPS)))
@settings(max_examples=60, deadline=None)
def test_algebra_maps_are_multiplicative_and_tag_linear(data, sig_text, name):
    sig = sig_of(sig_text)
    n = sig.n_slots
    x, y = data.draw(free_elements(n)), data.draw(free_elements(n))
    d = PimenovElement(n, data.draw(st.dictionaries(st.integers(0, (1 << n) - 1), COEFFS, min_size=1)))

    def f(e):
        return ALGEBRA_MAPS[name](sig, e)

    for got, want in ((f(x * y), f(x) * f(y)), (f(x * d + y), f(x) * d + f(y))):
        assert (got - want).max_abs() <= 1e-12 * max(1.0, got.max_abs(), want.max_abs())


# -- contraction ------------------------------------------------------------


def assert_contraction_holds(sig_text, v):
    rep = frt.verify_contraction_transform(sig_of(sig_text), v)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-9
    want = CONTRACTION_RANK[sig_text]
    assert (rep["rank_direct"], rep["rank_substituted"], rep["rank_union"]) == (want,) * 3
    assert rep["tag_copies"] == TAG_COPIES[sig_text]
    assert rep["gap"] > 1e8  # the numeric rank is far from its threshold


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_contraction_transform(sig_text):
    for v in V_SAMPLES:
        assert_contraction_holds(sig_text, v)


@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    r=st.floats(0.0, 0.9),
    phase=st.floats(0.0, 2 * cmath.pi),
)
@settings(max_examples=8, deadline=None)
def test_contraction_transform_on_v_disc(sig_text, r, phase):
    assert_contraction_holds(sig_text, cmath.rect(r, phase))


@pytest.mark.parametrize("sig_text", ["1,1", "1,n"])
def test_contraction_ranks_equal_full_closure_ranks(sig_text):
    # the certificate works on the tags the relations use; over all tag masks
    # the closures give the same ranks and the same span residual
    sig, v = sig_of(sig_text), 0.37
    direct = iota_closure(frt.full_relations(sig, v), sig.n_slots)
    substituted = iota_closure(
        frt.substitute_generators(sig, frt.full_relations(sig, v, attachments=False)),
        sig.n_slots,
    )
    columns = sorted({k for r in direct + substituted for k in r.terms})
    A, B = coefficient_matrix(direct, columns), coefficient_matrix(substituted, columns)
    ranks = []
    for X in (A, B, np.vstack([A, B])):
        sv = np.linalg.svd(X, compute_uv=False)
        ranks.append(int(np.count_nonzero(sv > PIVOT_THRESHOLD * sv[0])))
    basis = np.linalg.svd(A, full_matrices=False)[2][: ranks[0]]
    off_span = np.abs(B - (B @ basis.conj().T) @ basis).max()
    rep = frt.verify_contraction_transform(sig, v)
    assert ranks == [rep["rank_direct"], rep["rank_substituted"], rep["rank_union"]]
    assert off_span <= 1e-9 and rep["residual"] <= 1e-9


@pytest.mark.parametrize("sig_text", ["1,n", "n,n"])
def test_contraction_detects_wrong_exponent(sig_text, monkeypatch):
    # tt11 rescaled by j1 instead of j1*j2: wrong wherever j2 is nilpotent
    monkeypatch.setitem(frt._SUBST_EXPONENTS, 1, (1, 0))
    rep = frt.verify_contraction_transform(sig_of(sig_text), 0.37)
    assert not rep["pass"]
    assert rep["residual"] > 0.1


@pytest.mark.parametrize("wrong_exponent", [False, True])
def test_contraction_agrees_with_mutual_reduction(wrong_exponent, monkeypatch):
    # reference: reduce each relation set modulo the completed quotient of the other
    if wrong_exponent:
        monkeypatch.setitem(frt._SUBST_EXPONENTS, 1, (1, 0))
    sig = sig_of("n,n")
    direct = list(frt.full_relations(sig, 0.37))
    substituted = frt.substitute_generators(sig, frt.full_relations(sig, 0.37, attachments=False))
    sys_direct = build_reduction(quadratic_reduction(direct, sig.n_slots, frt.NGEN))
    sys_substituted = build_reduction(quadratic_reduction(substituted, sig.n_slots, frt.NGEN))
    mutual = worst_residual(
        [sys_direct.reduce(r).max_abs() for r in substituted]
        + [sys_substituted.reduce(r).max_abs() for r in direct]
    )
    rep = frt.verify_contraction_transform(sig, 0.37)
    assert rep["pass"] == (mutual <= 1e-9) == (not wrong_exponent)


# -- relation sets ----------------------------------------------------------


def test_full_relations_built_once_and_immutable():
    sig = sig_of("1,n")
    rs = frt.full_relations(sig, 0.37)
    assert frt.full_relations(sig, 0.37) is rs
    assert frt.full_relations(sig, 0.37, attachments=False) is not rs
    assert isinstance(rs, tuple)


def test_rank_reuses_the_exchange_relations(monkeypatch):
    sig = sig_of("n,1")
    rs = frt.full_relations(sig, 0.41)
    exchange = frt.exchange_relations(sig, 0.41, True)
    assert rs[: len(exchange)] == exchange
    monkeypatch.setattr(frt, "rtt_relations", lambda *args: pytest.fail("exchange relations rebuilt"))
    assert frt.rtt_rank(sig, 0.41) == FROZEN_QUOTIENT_RANK["n,1"]


# -- serialization ----------------------------------------------------------


def test_relation_json_round_trip():
    sig = sig_of("1,n")
    rs = frt.full_relations(sig, 0.37)
    text = frt.relations_json_str(rs)
    data = json.loads(text)
    assert "relations" in data and len(data["relations"]) == len(rs)
    back = frt.relations_from_json(data, sig.n_slots)
    worst = worst_residual(
        (a - b).max_abs() for a, b in zip(rs, back)
    )
    assert worst <= 1e-12

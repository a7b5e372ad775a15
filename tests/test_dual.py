"""Tests for the dual quantum algebra: pairing table, representation
identities, commutators, the deformed rotation algebra and the duality
substitution."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckq import dual
from ckq.dmat import DMatrix
from ckq.pimenov import ParameterSignature
from oracles import (
    assembled_slice,
    reference_L_relations,
    reference_sow_mul,
    reference_tensor2_mul,
    replay_mono_mul,
    word_antipode_mono,
    word_delta_mono,
)

QUANTUM_SIGS = ["1,1", "1,n", "n,1", "n,n"]
CONTRACTED_SIGS = ["1,n", "n,1", "n,n"]
V_SAMPLES = [0.37, 0.61 + 0.29j]


def sig_of(text):
    return ParameterSignature.parse(text)


# -- functionals from the exchange matrix -----------------------------------


def test_plus_minus_slices_are_triangular():
    f = dual.build_functionals(sig_of("1,1"), 0.37)
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                assert f.slice(i, j, "+").max_abs() == 0
            if i < j:
                assert f.slice(i, j, "-").max_abs() == 0


def test_diagonal_slices_inverse_pair():
    f = dual.build_functionals(sig_of("1,n"), 0.37)
    I = DMatrix.identity(2, 3)
    assert (f.slice(1, 1, "+") @ f.slice(1, 1, "-") - I).max_abs() <= 1e-12


def assert_same_bits(got, want):
    """The same keys in the same order, with bit-identical arrays."""
    assert list(got) == list(want)
    for k, w in want.items():
        assert got[k].tobytes() == w.tobytes(), k


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_slices_equal_the_entrywise_assembly(sig_text):
    for v in V_SAMPLES:
        f = dual.build_functionals(sig_of(sig_text), v)
        for i, j, eps in product(range(1, 4), range(1, 4), "+-"):
            assert_same_bits(f.slice(i, j, eps).blocks, assembled_slice(f, i, j, eps).blocks)


def test_slices_of_sparse_tables_keep_the_entrywise_mask_order():
    # masks in a random order, windows whose first nonzero entries come in
    # another order, and exact zeros of both signs
    rng = np.random.default_rng(5)
    for _ in range(20):
        tables = []
        for _ in range(2):
            blocks = {}
            for m in rng.permutation(4):
                block = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
                block[rng.random((9, 9)) < 0.8] = complex(-0.0, -0.0)
                blocks[int(m)] = block
            tables.append(DMatrix(2, 9, blocks))
        f = dual.DualFunctionals(sig_of("n,n"), 0.37, *tables)
        for i, j, eps in product(range(1, 4), range(1, 4), "+-"):
            assert_same_bits(f.slice(i, j, eps).blocks, assembled_slice(f, i, j, eps).blocks)


# -- pairing table ----------------------------------------------------------


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_pairing_table(sig_text, v):
    rep = dual.verify_pairing_table(sig_of(sig_text), v)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-10


def test_pairing_completeness_and_flags():
    rep = dual.verify_pairing_table(sig_of("1,1"), 0.37)
    assert rep["entry_mismatches"] == []
    assert rep["unlisted_nonzero"] == []
    flagged = {f["entry"] for f in rep["flagged"]}
    assert flagged == {"l13(tt13)", "lt13(t13)"}


def test_flagged_corner_entries_are_half_published():
    # the published corner values are exactly twice the exchange-derived ones
    sig = sig_of("1,1")
    table = dual.pairing_table(sig, 0.37)
    f = dual.build_functionals(sig, 0.37)
    atoms = dual.atom_matrices(f)
    got = dual._extract_pairings_trivial(atoms["l13"])["tt13"]
    c, _, _, kern = table[("l13", "tt13")]
    assert abs(got - c * kern) <= 1e-12
    assert abs(got * 2 - c * kern) > 1e-3  # doubling breaks the match


# -- representation identities ----------------------------------------------


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_L_relations(sig_text):
    rep = dual.verify_L_relations(sig_of(sig_text), 0.37)
    assert rep["pass"], rep


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_L_relations_match_the_per_use_reference(sig_text, v):
    # the windows and metric entries are read once per call; the report keeps every bit
    sig = sig_of(sig_text)
    assert repr(dual.verify_L_relations(sig, v)) == repr(reference_L_relations(sig, v))


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
@pytest.mark.parametrize("v", V_SAMPLES)
def test_dual_commutators(sig_text, v):
    rep = dual.verify_dual_commutators(sig_of(sig_text), v)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-9


# -- series helpers ---------------------------------------------------------


def test_series_division_and_sqrt():
    rng = np.random.default_rng(2)
    a = rng.normal(size=9) + 1.0j * rng.normal(size=9)
    a[0] = 1.5
    d = 8
    q = dual.ser_div(a, a, d)
    assert np.abs(q - np.eye(1, d + 1)[0]).max() <= 1e-12
    s = dual.ser_sqrt(a, d)
    assert np.abs(dual.ser_mul(s, s, d) - a[: d + 1]).max() <= 1e-12


# -- deformed rotation algebra ----------------------------------------------


def test_normal_ordering_rules():
    alg = dual.SowAlgebra(sig_of("1,1"), dw=6, dx=6)
    X01, X02, X12 = (alg.gen(n) for n in ("X01", "X02", "X12"))
    r1 = alg.word(["X02", "X01"]) - (X01 * X02 - X12 * alg.j1sq)
    r3 = alg.word(["X12", "X02"]) - (X02 * X12 - X01 * alg.j2sq)
    assert r1.max_abs() == 0 and r3.max_abs() == 0
    # the mixed rule produces the odd power series
    r2 = alg.word(["X12", "X01"]) - X01 * X12
    coeff = r2.terms[(0, 1, 0)]
    assert abs(coeff[0] - 1.0) <= 1e-15  # leading sinh coefficient


@pytest.mark.parametrize("sig_text", ["1,1", "n,n"])
def test_mono_mul_equals_letter_replay(sig_text):
    # the memoized product extends its prefix by one push; replaying every
    # push from the unit does the same operations in the same order
    alg = dual.SowAlgebra(sig_of(sig_text), dw=6, dx=6)
    keys = [(a, m, b) for a in range(3) for m in range(7) for b in range(2)]
    for k1 in keys[::5]:
        for k2 in keys:
            got, want = alg.mono_mul(k1, k2), replay_mono_mul(alg, k1, k2)
            assert list(got) == list(want)
            assert all(np.array_equal(got[k], want[k]) for k in got)


MONO_KEYS = [(a, m, b) for a in range(3) for m in range(4) for b in range(3)]


@pytest.mark.parametrize("sig_text", ["1,1", "n,n"])
def test_monomial_hopf_images_equal_letter_by_letter_products(sig_text):
    # each image extends its memoized neighbour one letter shorter: the same
    # products, in the same order, as multiplying every letter in from the unit
    alg = dual.SowAlgebra(sig_of(sig_text), dw=4)
    for key in MONO_KEYS:
        assert_same_bits(alg.delta_mono(key), word_delta_mono(alg, key))
        assert_same_bits(alg.antipode_mono(key).terms, word_antipode_mono(alg, key).terms)


def random_series(rng, alg):
    """A w-series with sparse random complex coefficients."""
    arr = np.zeros(alg.dw + 1, dtype=complex)
    on = rng.random(alg.dw + 1) < 0.4
    arr[on] = rng.normal(size=on.sum()) + 1j * rng.normal(size=on.sum())
    return arr


def random_keys(rng, count):
    return [MONO_KEYS[i] for i in rng.choice(len(MONO_KEYS), size=count, replace=False)]


def assert_products_agree(got, want):
    assert (got - want).max_abs() <= 1e-13 * max(1.0, want.max_abs())
    assert bool(got.terms) == bool(want.terms)


@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batched_sow_product_equals_per_term_reference(sig_text, sizes, seed):
    rng = np.random.default_rng(seed)
    alg = dual.SowAlgebra(sig_of(sig_text), dw=6, dx=6)
    x, y = (
        dual.SowElement(alg, {k: random_series(rng, alg) for k in random_keys(rng, size)})
        for size in sizes
    )
    assert_products_agree(x * y, reference_sow_mul(x, y))


@given(
    sig_text=st.sampled_from(QUANTUM_SIGS),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batched_tensor_product_equals_per_term_reference(sig_text, sizes, seed):
    rng = np.random.default_rng(seed)
    alg = dual.SowAlgebra(sig_of(sig_text), dw=6, dx=6)
    x, y = (
        dual.SowTensor2(
            alg,
            {
                (kl, kr): random_series(rng, alg)
                for kl, kr in zip(random_keys(rng, size), random_keys(rng, size))
            },
        )
        for size in sizes
    )
    assert_products_agree(x * y, reference_tensor2_mul(x, y))


@pytest.mark.parametrize("sig_text", ["1,1", "n,n"])
def test_hopf_checks_equal_per_term_products_bit_for_bit(sig_text, monkeypatch):
    sig = sig_of(sig_text)
    batched = (dual.verify_sow_hopf(sig), dual.verify_duality_isomorphism(sig))
    for cls, reference in ((dual.SowElement, reference_sow_mul), (dual.SowTensor2, reference_tensor2_mul)):
        batched_mul = cls.__mul__
        monkeypatch.setattr(
            cls,
            "__mul__",
            lambda x, y, cls=cls, ref=reference, mul=batched_mul: (
                ref(x, y) if isinstance(y, cls) else mul(x, y)
            ),
        )
    assert (dual.verify_sow_hopf(sig), dual.verify_duality_isomorphism(sig)) == batched


def test_products_with_a_zero_operand_are_zero():
    # an empty operand has no coefficient rows; the bulk product must still shape them
    alg = dual.SowAlgebra(sig_of("n,n"), dw=4, dx=4)
    x = alg.word(["X12", "X01"]) + alg.gen("X02") * 0.5
    t = alg.delta_gen("X01")
    for a, zero in ((x, alg.zero()), (t, dual.SowTensor2(alg, {}))):
        for r in (a * zero, zero * a, zero * zero):
            assert type(r) is type(a)
            assert r.terms == {}


def test_a_series_on_the_left_multiplies_as_on_the_right():
    # numpy must defer to __rmul__ instead of broadcasting over the series
    alg = dual.SowAlgebra(sig_of("1,1"), dw=4, dx=4)
    series = np.arange(alg.dw + 1.0)
    for x in (alg.word(["X12", "X01"]), alg.delta_gen("X01")):
        got, want = series * x, x * series
        assert type(got) is type(x)
        assert list(got.terms) == list(want.terms)
        assert all(np.array_equal(got.terms[k], want.terms[k]) for k in want.terms)


def test_hopf_subchecks_catch_a_broken_coproduct(monkeypatch):
    # Delta(X01) gains w (X02 x X02): a term the sums must carry, not drop
    delta_gen = dual.SowAlgebra.delta_gen

    def broken(alg, name):
        d = delta_gen(alg, name)
        if name == "X01":
            d = d + dual.SowTensor2(alg, {((0, 1, 0), (0, 1, 0)): alg.w_mono(1, 1.0)})
        return d

    monkeypatch.setattr(dual.SowAlgebra, "delta_gen", broken)
    rep = dual.verify_sow_hopf(sig_of("1,1"))
    hit = {"delta_rel2", "delta_rel3", "antipode_X01", "coassoc_X01"}
    assert not rep["pass"]
    assert {k for k, r in rep["checks"].items() if r >= 0.5} == hit
    assert all(r <= 1e-15 for k, r in rep["checks"].items() if k not in hit)


def test_word_commutes_contracted_generators():
    alg = dual.SowAlgebra(sig_of("n,n"), dw=4, dx=4)
    x = alg.word(["X02", "X01"])
    # both contracted slots: plain commutation
    assert (x - alg.word(["X01", "X02"])).max_abs() == 0


@pytest.mark.parametrize("sig_text", QUANTUM_SIGS)
def test_sow_hopf(sig_text):
    rep = dual.verify_sow_hopf(sig_of(sig_text), dw=8)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-9


def test_sow_hopf_residual_non_increasing():
    residuals = [
        dual.verify_sow_hopf(sig_of("1,1"), dw=d)["residual"]
        for d in (6, 8, 10)
    ]
    assert residuals[1] <= residuals[0] + 1e-15
    assert residuals[2] <= residuals[1] + 1e-15


# -- duality isomorphism ----------------------------------------------------


def test_duality_isomorphism_trivial_signature():
    rep = dual.verify_duality_isomorphism(sig_of("1,1"), dw=8)
    assert rep["pass"], rep
    assert rep["residual"] <= 1e-8


@pytest.mark.parametrize("sig_text", CONTRACTED_SIGS)
def test_duality_isomorphism_contracted(sig_text):
    rep = dual.verify_duality_isomorphism(sig_of(sig_text), dw=8)
    assert rep["residual"] <= 1e-12

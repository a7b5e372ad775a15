"""Unit and property tests for the nilpotent coefficient algebra."""

import cmath
import math
import operator
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckq.dmat import DMatrix
from ckq.pimenov import (
    KERNELS,
    NotInvertible,
    ParameterSignature,
    PimenovElement,
    format_element,
    jfactor_square,
    parse_element,
    pim_apply,
    scaled_trig,
    tag_product,
    worst_residual,
)

from oracles import (
    geometric_dmatrix_inverse,
    geometric_inverse,
    grassmann_product,
    lift_fd,
    lift_taylor,
    reference_pim_apply,
    reference_tag_product,
)


def rand_element(rng, n, base=None):
    coeffs = {m: complex(rng.normal(), rng.normal()) for m in range(2**n)}
    if base is not None:
        coeffs[0] = base
    return PimenovElement(n, coeffs)


# -- ring structure ---------------------------------------------------------


def test_tags_square_to_zero():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            t = PimenovElement.tag(n, k)
            assert (t * t).is_zero()


def test_format_parenthesises_two_part_tag_coefficients():
    a = PimenovElement(2, {0: 1.3 + 0.2j, 1: 0.5 + 0.3j, 2: -0.5 - 0.3j, 3: 0.7j})
    assert format_element(a) == "1.3+0.2j + (0.5+0.3j)*i1 + (-0.5-0.3j)*i2 + 0.7j*i1*i2"


@given(st.dictionaries(st.integers(0, 3), st.complex_numbers(allow_nan=False, allow_infinity=False)))
@settings(max_examples=200, deadline=None)
def test_format_element_round_trip(coeffs):
    a = PimenovElement(2, coeffs)
    assert parse_element(format_element(a), 2).coeffs == a.coeffs


def test_worst_residual_propagates_non_finite():
    assert worst_residual([]) == 0.0
    assert worst_residual([0.1, 0.3, 0.2]) == 0.3
    assert math.isnan(worst_residual([0.1, math.nan, 0.2]))
    assert math.isnan(worst_residual([0.1, math.inf]))
    # max() would keep 1.0 here and drop the nan
    assert math.isnan(PimenovElement(2, {0: 1.0, 3: complex(math.nan, 0)}).max_abs())


def test_tags_commute():
    t1 = PimenovElement.tag(2, 1)
    t2 = PimenovElement.tag(2, 2)
    assert (t1 * t2 - t2 * t1).is_zero()


def test_mixed_products_survive():
    t1 = PimenovElement.tag(2, 1)
    t2 = PimenovElement.tag(2, 2)
    p = (1 + 2 * t1) * (3 + t2)
    assert p.coeffs[0b11] == 2.0


coeff_st = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def elements(draw, n=3):
    coeffs = {m: draw(coeff_st) for m in range(2**n)}
    return PimenovElement(n, coeffs)


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert ((a + b) * c).isclose(a * c + b * c, tol=1e-6)
    assert (a * (b * c)).isclose((a * b) * c, tol=1e-6)
    assert (a * b).isclose(b * a, tol=1e-6)


@given(elements())
@settings(max_examples=60, deadline=None)
def test_inverse_property(a):
    if a.scalar_part == 0:
        with pytest.raises(NotInvertible):
            a.inv()
    elif abs(a.scalar_part) >= 1e-3:
        assert (a * a.inv() - 1).max_abs() <= 1e-6 * max(1.0, a.max_abs() ** 3)


def test_nilpotent_part_not_invertible():
    with pytest.raises(NotInvertible):
        PimenovElement.tag(2, 1).inv()


# exact zeros of every sign: a sum taken in another order, or a product of
# other factors, flips the sign of a zero part
SIGNED_VALUES = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -2.0 + 1j, 0.5j)


def mask_map(rng, n, density, value):
    """value(rng) on a random share of the 2^n masks, in a random order."""
    masks = [m for m in range(2**n) if rng.random() < density]
    rng.shuffle(masks)
    return {m: value(rng) for m in masks}


def signed_scalar(rng):
    if rng.random() < 0.5:
        return SIGNED_VALUES[rng.integers(len(SIGNED_VALUES))]
    return complex(rng.normal(), rng.normal())


def signed_block(rng):
    return np.array([[signed_scalar(rng) for _ in range(2)] for _ in range(2)])


def bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    densities=st.tuples(*[st.sampled_from([0.1, 0.5, 1.0])] * 2),
    mul=st.sampled_from([operator.mul, np.matmul, np.kron]),
)
@settings(max_examples=150, deadline=None)
def test_tag_product_equals_the_pair_scan(seed, n, densities, mul):
    rng = np.random.default_rng(seed)
    value = signed_scalar if mul is operator.mul else signed_block
    a, b = (mask_map(rng, n, d, value) for d in densities)
    got, want = tag_product(a, b, mul), reference_tag_product(a, b, mul)
    assert list(got) == list(want)  # the same masks in the same order
    for m, w in want.items():
        assert np.array_equal(got[m], w) and bits(got[m]) == bits(w), m


def l1(x: PimenovElement) -> float:
    """The sum of |coefficients|: it bounds every coefficient of a product."""
    return sum(abs(c) for c in x.coeffs.values())


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    density=st.sampled_from([0.2, 1.0]),
    scale=st.sampled_from([0.1, 1.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_inverse_by_tag_splitting(seed, n, density, scale):
    rng = np.random.default_rng(seed)
    coeffs = {m: scale * complex(*rng.normal(size=2)) for m in range(1, 2**n) if rng.random() < density}
    coeffs[0] = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    x = PimenovElement(n, coeffs)
    y = x.inv()
    assert (x * y - 1).max_abs() <= 1e-12 * l1(x) * l1(y)
    series = geometric_inverse(x)
    assert (y - series).max_abs() <= 1e-12 * l1(series)
    with pytest.raises(NotInvertible):
        x.nil_part().inv()


# -- D_n matrices -------------------------------------------------------------


@st.composite
def sparse_dmatrices(draw, n, size, tag):
    """A DMatrix with sparse random blocks on a random subset of the masks, OR-ed with `tag`."""
    masks = draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = {}
    for m in masks:
        block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        block[rng.random((size, size)) < 0.3] = 0
        blocks[m | tag] = block
    return DMatrix(n, size, blocks)


@given(data=st.data(), n=st.integers(0, 3), size=st.integers(1, 3), overlap=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dmatrix_products_equal_entrywise_element_sums(data, n, size, overlap):
    # with `overlap` every block of A and B carries tag i1, and i1 * i1 = 0
    tag = 1 if overlap and n else 0
    A = data.draw(sparse_dmatrices(n, size, tag))
    B = data.draw(sparse_dmatrices(n, size, tag))
    c = data.draw(elements(n))
    matmul, kron, scaled = A @ B, A.kron(B), A * c

    def assert_close(got, want):
        assert (got - want).max_abs() <= 1e-12 * max(1.0, want.max_abs())

    for i, j in product(range(size), repeat=2):
        want = sum((A.entry(i, k) * B.entry(k, j) for k in range(size)), PimenovElement(n))
        assert_close(matmul.entry(i, j), want)
        assert_close(scaled.entry(i, j), A.entry(i, j) * c)
        for k, l in product(range(size), repeat=2):
            assert_close(kron.entry(i * size + k, j * size + l), A.entry(i, j) * B.entry(k, l))
    if tag:
        assert matmul.blocks == kron.blocks == (A * PimenovElement.tag(n, 1)).blocks == {}


@given(data=st.data(), size=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dmatrix_inverse_equals_the_geometric_series(data, size):
    n = 3
    M = data.draw(sparse_dmatrices(n, size, 0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a unitary scalar block: invertible and well conditioned
    q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    M = DMatrix(n, size, {**M.blocks, 0: q})
    got, want = M.inv(), geometric_dmatrix_inverse(M)
    scale = max(1.0, want.max_abs())
    assert (got - want).max_abs() <= 1e-12 * scale
    assert (M @ got - DMatrix.identity(n, size)).max_abs() <= 1e-12 * scale * M.max_abs()
    singular = DMatrix(n, size, {**M.blocks, 0: q @ np.diag([0.0] + [1.0] * (size - 1))})
    nilpotent = DMatrix(n, size, {m: b for m, b in M.blocks.items() if m})
    for X in (singular, nilpotent):
        with pytest.raises(NotInvertible):
            X.inv()


# -- Grassmann embedding ----------------------------------------------------


def test_grassmann_oracle_products_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = PimenovElement(
            2, {m: complex(rng.integers(-5, 6), rng.integers(-5, 6)) for m in range(4)}
        )
        b = PimenovElement(
            2, {m: complex(rng.integers(-5, 6), rng.integers(-5, 6)) for m in range(4)}
        )
        direct = a * b
        oracle = grassmann_product(a, b)
        assert (direct - oracle).max_abs() == 0


# -- analytic lifting -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_lifting_matches_taylor_oracle(name):
    rng = np.random.default_rng(11)
    for _ in range(100):
        base = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        a = rand_element(rng, 3, base=base)
        lifted = pim_apply(KERNELS[name], a)
        oracle = lift_taylor(name, a)
        assert (lifted - oracle).max_abs() <= 1e-12 * max(1.0, oracle.max_abs())


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_lifting_matches_finite_differences(name):
    rng = np.random.default_rng(13)
    for _ in range(100):
        base = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        a = rand_element(rng, 2, base=base)
        lifted = pim_apply(KERNELS[name], a)
        oracle = lift_fd(name, a)
        scale = max(1.0, lifted.max_abs())
        assert (lifted - oracle).max_abs() <= 1e-6 * scale


def test_exp_is_multiplicative_on_nilpotents():
    t1 = PimenovElement.tag(2, 1)
    t2 = PimenovElement.tag(2, 2)
    a, b = t1 * 0.7, t2 * (-1.3)
    lhs = pim_apply(KERNELS["exp"], a + b)
    rhs = pim_apply(KERNELS["exp"], a) * pim_apply(KERNELS["exp"], b)
    assert (lhs - rhs).max_abs() <= 1e-14


def test_log_inverts_exp():
    rng = np.random.default_rng(3)
    a = rand_element(rng, 3, base=0.8)
    back = pim_apply(KERNELS["log"], pim_apply(KERNELS["exp"], a))
    assert (back - a).max_abs() <= 1e-12


def mixed_element(rng, n, density):
    """A random share of the masks, each holding an exact zero (dropped), a
    small integer or a Gaussian complex; the scalar part keeps log defined."""
    coeffs = {0: complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))}
    for m in range(1, 2**n):
        if rng.random() < density:
            coeffs[m] = (0, int(rng.integers(-3, 4)), complex(rng.normal(), rng.normal()))[rng.integers(3)]
    return PimenovElement(n, coeffs)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_lifting_is_bit_identical_to_the_full_partition_sum(name):
    # N^r / r! holds at each mask the partition sum d(K;r), so the Taylor sum
    # meets the reference in its masks and up to round-off in its values; where
    # N^2 = 0 both are f(a0) + f'(a0) N, bit for bit
    rng = np.random.default_rng(29)
    cases = [(n, density) for n in range(8) for density in (0.1, 0.4, 1.0)] + [(8, 1.0)]
    for n, density in cases:
        a = mixed_element(rng, n, density)
        lifted = pim_apply(KERNELS[name], a)
        reference = reference_pim_apply(KERNELS[name], a)
        assert lifted.coeffs.keys() == reference.coeffs.keys(), (n, density, a)
        scale = reference.max_abs()
        assert all(abs(c - reference.coeffs[m]) <= 1e-14 * scale for m, c in lifted.coeffs.items()), (n, density, a)
        nil = a.nil_part()
        if (nil * nil).is_zero():
            assert lifted.coeffs == reference.coeffs, (n, density, a)


# -- signatures and j-factors ----------------------------------------------


def test_signature_parse_and_properties():
    sig = ParameterSignature.parse("1,n,i")
    assert sig.n_slots == 3
    assert not sig.quantum_allowed
    assert ParameterSignature.parse("1,n").quantum_allowed
    with pytest.raises(ValueError):
        ParameterSignature.parse("1,x")


def test_jfactor_square_values():
    assert jfactor_square(ParameterSignature.parse("1,1").jfactor(1, 3)) == 1
    assert jfactor_square(ParameterSignature.parse("n,1").jfactor(1, 3)) == 0
    assert jfactor_square(ParameterSignature.parse("i,1").jfactor(1, 3)) == -1


def test_scaled_trig_limits():
    sig = ParameterSignature.parse("n")
    j = sig.jfactor(1, 2)
    sin_el, sin_over, cos_val = scaled_trig(j, 0.4)
    # flat slot: sin(j phi)/j -> phi and cos(j phi) -> 1
    assert abs(sin_over - 0.4) <= 1e-14
    assert abs(cos_val - 1.0) <= 1e-14
    sig1 = ParameterSignature.parse("1")
    _, s_over, c_val = scaled_trig(sig1.jfactor(1, 2), 0.4)
    assert abs(s_over - math.sin(0.4)) <= 1e-14
    assert abs(c_val - math.cos(0.4)) <= 1e-14


# -- text round trip --------------------------------------------------------


def test_parse_format_round_trip():
    text = "1 + 2*i1 - 0.5*i1*i2"
    a = parse_element(text, 2)
    b = parse_element(format_element(a), 2)
    assert (a - b).max_abs() == 0

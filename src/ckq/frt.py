"""Quantum deformation of the N=3 orthogonal Cayley-Klein group.

Builds the 9x9 R-matrix and 3x3 metric C over D_n, the 9-generator
coordinate algebra with its exchange (RTT) and deformed-orthogonality
relations, and the Hopf structure maps (coproduct, counit, antipode).  The
deformation parameter v is numerically sampled; nilpotent signature slots
are carried exactly, so contracted cases are structurally exact.

The generator matrix is assembled in one place, `generator_matrix`, over
any values of the nine generators; the relation builders take it as given.
R and C read the multiplier J of v from one function, `multiplier`.  The counit and the coproduct are
algebra maps given by their generator images and extended by
`free_algebra.algebra_map`; the contraction's rescaling is diagonal and is
applied term by term.  Relation sets are tuples.
`quadratic_system` holds the quadratic rules that the degree-2 Hopf checks
read; `reduction_system` completes them at degree 3 for the confluence check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product, zip_longest
from typing import Any, Callable, Sequence

import numpy as np

from .dmat import DMatrix
from .free_algebra import (
    FreeElement,
    ReductionSystem,
    TensorElement,
    algebra_map,
    build_reduction,
    free_tensor,
    quadratic_reduction,
    relation_rank,
)
from .pimenov import KERNELS, ParameterSignature, PimenovElement, pim_apply, worst_residual

N = 3
NGEN = 9
GEN_NAMES = ("t11", "tt11", "t12", "tt12", "t13", "tt13", "t21", "tt21", "t22")
GEN_INDEX = {name: g for g, name in enumerate(GEN_NAMES)}
# rank of the exchange-relation space per signature, frozen from the rank
# oracle.  Measured to hold for 1e-7 <= |v| <= 5 (16 phases); round-off
# lowers it below (36/30/30/25 at 1e-9), and at 1,1 it is 40 at v = 10, 30.
FROZEN_QUOTIENT_RANK = {"1,1": 46, "1,n": 44, "n,1": 44, "n,n": 29}
# rules of the quotient per signature: the quadratic rules (`quadratic_system`,
# one per rank of the relations' tag closure) and the rules completed at
# degree 3 (`reduction_system`).  Gated for 0.02 <= |v| <= 0.9.  Measured
# beyond it, 1,1 (8 phases) gives 280 rules for 0.001 <= |v| <= 3 and
# confluence passes for 0.005 <= |v| <= 1.1 (it fails at v = 1.2, -1.5, 2.5);
# the contracted counts (4 phases) hold for 1e-5 <= |v| <= 5.
FROZEN_QUADRATIC_RULES = {"1,1": 188, "1,n": 112, "n,1": 112, "n,n": 68}
FROZEN_RULES = {"1,1": 280, "1,n": 178, "n,1": 186, "n,n": 114}

# The 3x3 generator matrix T has entries built from 9 independent
# generators sitting at five canonical positions; the other four positions
# reuse them through the point reflection (a,b) -> (4-a, 4-b).
# (t-generator id, tt-generator id or None) per canonical position
GEN_AT = {
    (1, 1): (0, 1),
    (1, 2): (2, 3),
    (1, 3): (4, 5),
    (2, 1): (6, 7),
    (2, 2): (8, None),
}
# generator id -> (its canonical position, whether it is the tt partner)
GEN_POSITION = {
    g: (pos, is_tt) for pos, pair in GEN_AT.items() for is_tt, g in zip((False, True), pair) if g is not None
}
# counit images: the generator matrix goes to the identity
COUNIT = {g: 1.0 if name in ("t11", "t22") else 0.0 for g, name in enumerate(GEN_NAMES)}

# A monomial c * j1^e1 * j2^e2 as (c, e1, e2); None is the zero monomial.
Mono = "tuple[complex, int, int] | None"

# Coefficients (c_ab, d_ab) of T_ab = c_ab * t + d_ab * tt at each matrix
# position, where (t, tt) is the generator pair of the canonical image.
CD_TABLE: dict[tuple[int, int], tuple[Mono, Mono]] = {
    (1, 1): ((1, 0, 0), (-1, 1, 1)),
    (1, 2): ((1, 1, 0), (-1j, 0, 1)),
    (1, 3): ((1, 0, 0), (-1j, 1, 1)),
    (2, 1): ((1, 1, 0), (1j, 0, 1)),
    (2, 2): ((1, 0, 0), None),
    (2, 3): ((1, 1, 0), (-1j, 0, 1)),
    (3, 1): ((1, 0, 0), (1j, 1, 1)),
    (3, 2): ((1, 1, 0), (1j, 0, 1)),
    (3, 3): ((1, 0, 0), (1, 1, 1)),
}


def canonical_position(a: int, b: int) -> tuple[int, int]:
    return (a, b) if (a, b) in GEN_AT else (4 - a, 4 - b)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if m1 is None or m2 is None:
        return None
    return (m1[0] * m2[0], m1[1] + m2[1], m1[2] + m2[2])


def _mono_ratio(num: Mono, den: Mono) -> Mono:
    """num / den, defined only when the quotient is again a monomial."""
    if num is None:
        return None
    if den is None:
        raise ZeroDivisionError("zero denominator monomial")
    e1, e2 = num[1] - den[1], num[2] - den[2]
    if e1 < 0 or e2 < 0:
        raise ValueError("monomial ratio has a negative exponent")
    return (num[0] / den[0], e1, e2)


def mono_eval(sig: ParameterSignature, m: Mono) -> PimenovElement:
    n = sig.n_slots
    if m is None:
        return PimenovElement.scalar(n, 0.0)
    out = PimenovElement.scalar(n, m[0])
    for slot, e in ((1, m[1]), (2, m[2])):
        for _ in range(e):
            out = out * sig.slot_value(slot)
    return out


def _require_quantum(sig: ParameterSignature) -> None:
    if not sig.quantum_allowed:
        raise ValueError(
            "signature contains an imaginary slot; the deformed construction "
            "only accepts slots 1 and n"
        )
    if sig.n_slots != N - 1:
        raise ValueError(f"need a {N - 1}-slot signature for N={N}")


# ---------------------------------------------------------------------------
# R-matrix and C-matrix
# ---------------------------------------------------------------------------


@dataclass
class DeformedMatrix:
    """A matrix over D of the deformation at (sig, v): R or C."""

    mat: DMatrix
    sig: ParameterSignature
    v: complex


def multiplier(sig: ParameterSignature) -> PimenovElement:
    """J = j1*j2, the multiplier of v: the deformation enters as Jv."""
    return sig.jfactor(1, N)


def _exp_j(sig: ParameterSignature, x: complex) -> PimenovElement:
    """e^{Jx} over D, with J the multiplier."""
    return pim_apply(KERNELS["exp"], multiplier(sig) * x)


def rmatrix3(sig: ParameterSignature, v: complex) -> DeformedMatrix:
    """Lower-triangular 9x9 deformation matrix on C^3 (x) C^3 over D."""
    _require_quantum(sig)
    n = sig.n_slots
    e_p, e_m, e_m2 = _exp_j(sig, v), _exp_j(sig, -v), _exp_j(sig, -v / 2)
    sh = (e_p - e_m) * 0.5
    one = PimenovElement.unit(n)
    zero = PimenovElement.scalar(n, 0.0)
    E = [[zero for _ in range(9)] for _ in range(9)]
    E[0][0] = e_p
    E[1][1] = one
    E[2][2] = e_m
    E[3][1] = sh * 2.0
    E[3][3] = one
    E[4][2] = e_m2 * sh * -2.0
    E[4][4] = one
    E[5][5] = one
    E[6][2] = (one - e_m) * sh * 2.0
    E[6][4] = e_m2 * sh * -2.0
    E[6][6] = e_m
    E[7][5] = sh * 2.0
    E[7][7] = one
    E[8][8] = e_p
    return DeformedMatrix(DMatrix.from_entries(n, E), sig, v)


def rtilde3() -> np.ndarray:
    """First-order skeleton of the contracted R-matrix: R = I + Jv*Rt."""
    Rt = np.zeros((9, 9), dtype=complex)
    Rt[0, 0] = Rt[8, 8] = 1
    Rt[2, 2] = Rt[6, 6] = -1
    Rt[3, 1] = Rt[7, 5] = 2
    Rt[4, 2] = Rt[6, 4] = -2
    return Rt


def contracted_structure_residual(R: DeformedMatrix) -> float:
    """Max-norm of R - (I + Jv*Rt); exact zero when J is nilpotent."""
    n = R.sig.n_slots
    model = DMatrix.identity(n, 9) + DMatrix.from_scalar(n, rtilde3()) * (multiplier(R.sig) * R.v)
    return (R.mat - model).max_abs()


def cmatrix(sig: ParameterSignature, v: complex) -> DeformedMatrix:
    """Deformed metric C = C0 * diag(e^{Jv/2}, 1, e^{-Jv/2})."""
    _require_quantum(sig)
    n = sig.n_slots
    diag = [_exp_j(sig, v / 2), PimenovElement.unit(n), _exp_j(sig, -v / 2)]
    zero = PimenovElement.scalar(n, 0.0)
    E = [[zero] * 3 for _ in range(3)]
    for k in range(3):
        E[2 - k][k] = diag[k]
    return DeformedMatrix(DMatrix.from_entries(n, E), sig, v)


def flip_matrix() -> np.ndarray:
    """Permutation P on C^N (x) C^N exchanging the tensor factors."""
    P = np.zeros((N * N, N * N))
    for a in range(N):
        for b in range(N):
            P[N * a + b, N * b + a] = 1.0
    return P


def legs(R: DMatrix) -> tuple[DMatrix, DMatrix, DMatrix]:
    """R12, R13, R23: the 9x9 matrix R acting on two factors of C^3 (x) C^3 (x) C^3."""
    I3 = DMatrix.identity(R.n, 3)
    R12 = R.kron(I3)
    P23 = DMatrix.from_scalar(R.n, np.kron(np.eye(3), flip_matrix()))
    return R12, P23 @ R12 @ P23, I3.kron(R)


def qybe_check(R: DeformedMatrix) -> float:
    """Residual of R12 R13 R23 = R23 R13 R12 on the 27-dimensional space."""
    R12, R13, R23 = legs(R.mat)
    return (R12 @ R13 @ R23 - R23 @ R13 @ R12).max_abs()


# ---------------------------------------------------------------------------
# Generator matrix and relations
# ---------------------------------------------------------------------------


def generator_matrix(at: ParameterSignature, value: Callable[[int], Any]) -> list[list]:
    """The 3x3 matrix T_ab = value(t) c_ab + value(tt) d_ab, with (t, tt) the
    generator pair at the canonical image of (a, b) and the coefficient
    monomials of CD_TABLE evaluated at `at`."""
    T = []
    for a in range(1, 4):
        row = []
        for b in range(1, 4):
            c, d = CD_TABLE[(a, b)]
            gt, gtt = GEN_AT[canonical_position(a, b)]
            el = value(gt) * mono_eval(at, c)
            if gtt is not None and d is not None:
                el = el + value(gtt) * mono_eval(at, d)
            row.append(el)
        T.append(row)
    return T


def t_matrix(at: ParameterSignature) -> list[list[FreeElement]]:
    """The generator matrix over the 9-letter alphabet, its coefficient
    monomials evaluated at `at`."""
    n = at.n_slots
    return generator_matrix(at, lambda g: FreeElement.generator(n, NGEN, g))


def _fmat_mul(A: Sequence[Sequence], B: Sequence[Sequence]):
    """Product of 3x3 matrices whose entries multiply and add pairwise."""
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = None
            for k in range(3):
                p = A[i][k] * B[k][j]
                acc = p if acc is None else acc + p
            row.append(acc)
        out.append(row)
    return out


def _pim_entries(M: DMatrix) -> list[list[PimenovElement]]:
    return [[M.entry(i, j) for j in range(M.size)] for i in range(M.size)]


def rtt_relations(R: DeformedMatrix, T: Sequence[Sequence[FreeElement]]) -> tuple[FreeElement, ...]:
    """Entries of R T1 T2 - T2 T1 R: the 81 exchange relations.  Each sums its
    products in one dict and drops a key the moment its sum is exactly 0."""
    n = R.sig.n_slots
    # TT1[3i + k][3j + l] = T[i][j] T[k][l], TT2 the product in the other order
    pairs = list(product(range(3), repeat=2))
    TT1 = [[T[i][j] * T[k][l] for j, l in pairs] for i, k in pairs]
    TT2 = [[T[k][l] * T[i][j] for j, l in pairs] for i, k in pairs]
    Rc = [[FreeElement.const(n, NGEN, r).terms for r in row] for row in _pim_entries(R.mat)]
    relations = []
    for al, be in product(range(9), repeat=2):
        acc: dict = {}
        for ga in range(9):
            for sign, tt, r in ((1, TT1[ga][be], Rc[al][ga]), (-1, TT2[al][ga], Rc[ga][be])):
                for k, c in tt._product(r).items():
                    if c == 0:
                        continue
                    total = acc.get(k, 0j) + c if sign > 0 else acc.get(k, 0j) - c
                    if total == 0:
                        acc.pop(k, None)
                    else:
                        acc[k] = total
        if acc:
            relations.append(FreeElement(n, NGEN, acc))
    return tuple(relations)


def orthogonality_relations(C: DeformedMatrix, T: Sequence[Sequence[FreeElement]]) -> tuple[FreeElement, ...]:
    """Entries of T C T^t - C and T^t C T - C (deformed orthogonality)."""
    n = C.sig.n_slots
    Tt = [[T[j][i] for j in range(3)] for i in range(3)]
    Cp = _pim_entries(C.mat)
    relations = []
    for prod_mat in (_fmat_mul(_fmat_mul(T, Cp), Tt), _fmat_mul(_fmat_mul(Tt, Cp), T)):
        for i in range(3):
            for j in range(3):
                rel = prod_mat[i][j] - FreeElement.const(n, NGEN, Cp[i][j])
                if not rel.is_zero():
                    relations.append(rel)
    return tuple(relations)


@lru_cache(maxsize=32)
def exchange_relations(sig: ParameterSignature, v: complex) -> tuple[FreeElement, ...]:
    """The RTT exchange relations, built once per (sig, v): the first part of
    `full_relations` and the input of `rtt_rank`."""
    return rtt_relations(rmatrix3(sig, v), t_matrix(sig))


@lru_cache(maxsize=32)
def full_relations(sig: ParameterSignature, v: complex) -> tuple[FreeElement, ...]:
    """Exchange plus orthogonality relations, built once per (sig, v)."""
    return exchange_relations(sig, v) + orthogonality_relations(cmatrix(sig, v), t_matrix(sig))


@lru_cache(maxsize=32)
def quadratic_system(sig: ParameterSignature, v: complex) -> ReductionSystem:
    """The quadratic rules of the relations, not completed: enough to reduce
    elements of degree <= 2 (per tensor bank), which meet no cubic head."""
    return quadratic_reduction(full_relations(sig, v), sig.n_slots, NGEN)


@lru_cache(maxsize=32)
def reduction_system(sig: ParameterSignature, v: complex) -> ReductionSystem:
    """The quadratic system completed at degree 3, for the confluence check."""
    return build_reduction(quadratic_system(sig, v))


def rtt_rank(sig: ParameterSignature, v: complex) -> int:
    """Independent count of the degree-2 exchange relations (rank oracle)."""
    return relation_rank(exchange_relations(sig, v))


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------


def counit(x: FreeElement) -> PimenovElement:
    """Algebra map sending the generator matrix to the identity."""
    return algebra_map(x, COUNIT, 1.0)


def _counit_leg(x: TensorElement, side: int) -> FreeElement:
    """(eps (x) id)x for side 0, (id (x) eps)x for side 1."""
    out = FreeElement.zero(x.n, NGEN)
    for (mask, *words), c in x.terms.items():
        eps = counit(FreeElement(x.n, NGEN, {(mask, words[side]): c}))
        out = out + FreeElement(x.n, NGEN, {(0, words[1 - side]): 1.0}) * eps
    return out


def counit_residual(sig: ParameterSignature, v: complex) -> float:
    """The largest coefficient that the counit leaves: eps of every relation,
    eps(T) - I, and (eps (x) id)Delta(g) - g and (id (x) eps)Delta(g) - g for
    every generator g."""
    n = sig.n_slots
    T = t_matrix(sig)
    return worst_residual(chain(
        (counit(r).max_abs() for r in full_relations(sig, v)),
        ((counit(T[a][b]) - float(a == b)).max_abs() for a in range(3) for b in range(3)),
        ((_counit_leg(delta, side) - FreeElement.generator(n, NGEN, g)).max_abs()
         for g, delta in coproduct_table(sig).items() for side in (0, 1)),
    ))


def coproduct_generator(sig: ParameterSignature, g: int) -> TensorElement:
    """Matrix coproduct T -> T (x). T pushed down to a single generator.

    Of the products in T_ak (x) T_kb, t (x) t and tt (x) tt make up the
    t-part of T_ab, the mixed ones its tt-part; dividing by that part's
    coefficient monomial leaves g.
    """
    n = sig.n_slots
    (a, b), is_tt = GEN_POSITION[g]
    den = CD_TABLE[(a, b)][is_tt]
    out = TensorElement.zero(n, NGEN)
    for k in range(1, 4):
        left = enumerate(zip(CD_TABLE[(a, k)], GEN_AT[canonical_position(a, k)]))
        right = enumerate(zip(CD_TABLE[(k, b)], GEN_AT[canonical_position(k, b)]))
        for (il, (ml, gl)), (ir, (mr, gr)) in product(left, right):
            if (il ^ ir) != is_tt or gl is None or gr is None:
                continue
            coeff = mono_eval(sig, _mono_ratio(_mono_mul(ml, mr), den))
            if coeff.is_zero():
                continue
            term = free_tensor(
                FreeElement.generator(n, NGEN, gl),
                FreeElement.generator(n, NGEN, gr),
            )
            out = out + term * coeff
    return out


@lru_cache(maxsize=8)
def coproduct_table(sig: ParameterSignature) -> dict[int, TensorElement]:
    """The coproduct of every generator, built once per signature."""
    return {g: coproduct_generator(sig, g) for g in range(NGEN)}


def coproduct(sig: ParameterSignature, x: FreeElement) -> TensorElement:
    """The algebra map that extends the generator coproduct to x."""
    return algebra_map(x, coproduct_table(sig), TensorElement.const(x.n, NGEN, 1.0))


def antipode_matrix(sig: ParameterSignature, v: complex) -> list[list[FreeElement]]:
    """S(T) = C T^t C^{-1}, entrywise over the free algebra."""
    T = t_matrix(sig)
    Tt = [[T[j][i] for j in range(3)] for i in range(3)]
    C = cmatrix(sig, v)
    Cp = _pim_entries(C.mat)
    Cip = _pim_entries(C.mat.inv())
    return _fmat_mul(_fmat_mul(Cp, Tt), Cip)


def antipode_check(sig: ParameterSignature, v: complex) -> dict:
    """Reduce S(T)T - I and T S(T) - I modulo the quadratic rules (degree 2)."""
    n = sig.n_slots
    sys = quadratic_system(sig, v)
    T = t_matrix(sig)
    ST = antipode_matrix(sig, v)
    residuals = []
    failures = []
    for label, M in (("S(T)*T", _fmat_mul(ST, T)), ("T*S(T)", _fmat_mul(T, ST))):
        for i in range(3):
            for j in range(3):
                target = FreeElement.const(n, NGEN, 1.0 if i == j else 0.0)
                res = sys.reduce(M[i][j] - target).max_abs()
                residuals.append(res)
                if not res <= 1e-9:
                    failures.append((label, i + 1, j + 1, res))
    return {"residual": worst_residual(residuals), "failures": failures, "pass": not failures,
            "degree": 2, "rules": len(sys)}


def coproduct_compatibility(sig: ParameterSignature, v: complex) -> dict:
    """Delta(relation) must reduce to 0 in the tensor square.

    Each bank of Delta(relation) has degree <= 2, so the quadratic rules
    reduce it.  Delta and the tensor reduction are both C-linear, so each
    (mask, word) basis term that occurs in the relations is mapped and
    reduced once, kept as coefficient arrays over a shared tensor-term
    index, and each relation's reduced image is the sum of its terms'
    images.  `stats` counts the relations and the distinct basis terms.
    """
    n = sig.n_slots
    sys = quadratic_system(sig, v)
    relations = full_relations(sig, v)
    columns: dict = {}
    images = {}
    for key in dict.fromkeys(k for rel in relations for k in rel.terms):
        image = sys.reduce_tensor(coproduct(sig, FreeElement(n, NGEN, {key: 1.0}))).terms
        cols = np.array([columns.setdefault(k, len(columns)) for k in image], dtype=np.intp)
        images[key] = (cols, np.array(list(image.values()), dtype=complex))
    residuals = []
    for rel in relations:
        acc = np.zeros(len(columns), dtype=complex)
        for key, c in rel.terms.items():
            cols, vals = images[key]
            acc[cols] += c * vals
        residuals.append(float(np.abs(acc).max(initial=0.0)))
    failures = [(i, res) for i, res in enumerate(residuals) if not res <= 1e-9]
    return {
        "residual": worst_residual(residuals),
        "failures": failures,
        "pass": not failures,
        "degree": 2, "rules": len(sys),
        "stats": {"relations": len(relations), "basis_terms": len(images)},
    }


# ---------------------------------------------------------------------------
# Contraction transform
# ---------------------------------------------------------------------------

# j-monomial (e1, e2) each primed generator picks up when the undeformed
# alphabet is rescaled into the contracted one.
_SUBST_EXPONENTS = {
    0: (0, 0),  # t11
    1: (1, 1),  # tt11
    2: (1, 0),  # t12
    3: (0, 1),  # tt12
    4: (0, 0),  # t13
    5: (1, 1),  # tt13
    6: (1, 0),  # t21
    7: (0, 1),  # tt21
    8: (0, 0),  # t22
}


def substitute_generators(sig: ParameterSignature, relations: Sequence[FreeElement]) -> list[FreeElement]:
    """Rescale each generator by its contraction j-monomial, in every relation.

    The map is diagonal, so it is applied term by term: a term keeps its word
    and takes the j-monomials of its letters, left to right, then its own
    coefficient.  The arithmetic is that of `algebra_map` on the generator
    images, with each product added to 0j; a term whose tags overlap
    vanishes."""
    scales = {}
    for g, (e1, e2) in _SUBST_EXPONENTS.items():
        ((mask, c),) = mono_eval(sig, (1, e1, e2)).coeffs.items()  # a j-monomial
        scales[g] = (mask, 0j + (1 + 0j) * c)
    out = []
    for r in relations:
        terms: dict = {}
        for (mask, word), c in r.terms.items():
            acc_mask, acc = 0, 1 + 0j
            for g in word:
                m, s = scales[g]
                if acc_mask & m:
                    break
                acc_mask, acc = acc_mask | m, 0j + acc * s
            else:
                if not acc_mask & mask:
                    key = (acc_mask | mask, word)
                    terms[key] = terms.get(key, 0j) + (0j + acc * c)
        out.append(FreeElement(r.n, r.G, terms))
    return out


def verify_contraction_transform(sig: ParameterSignature, v: complex) -> dict:
    """Relations built directly at sig vs the rescaled undeformed relations.

    The second route keeps the undeformed (all-slots-1) shape of the
    generator matrix, evaluates every coefficient kernel at the nilpotent
    argument Jv, and then rescales the generators.  Its nonzero relations
    are compared with the direct ones term by term, in order: the residual
    is the largest coefficient of a difference.  A relation without a
    partner, when the counts differ, is compared with 0, so its largest
    coefficient enters the residual.  Equal generating sets generate the same ideal, so this is
    stricter than equality of the spans over D, and no quotient is needed.
    `relations` and `terms` count the pairs and the (mask, word) terms
    compared.
    """
    n = sig.n_slots
    direct = full_relations(sig, v)
    T = t_matrix(ParameterSignature.parse(",".join(["1"] * n)))
    undeformed = rtt_relations(rmatrix3(sig, v), T) + orthogonality_relations(cmatrix(sig, v), T)
    substituted = [r for r in substitute_generators(sig, undeformed) if not r.is_zero()]
    pairs = list(zip_longest(direct, substituted, fillvalue=FreeElement.zero(n, NGEN)))
    residual = worst_residual((a - b).max_abs() for a, b in pairs)
    return {
        "residual": residual,
        "relations": len(pairs),
        "terms": sum(len(a.terms.keys() | b.terms.keys()) for a, b in pairs),
        "pass": residual <= 1e-9,
    }


# ---------------------------------------------------------------------------
# Relation JSON schema
# ---------------------------------------------------------------------------


def relations_to_json(rs: Sequence[FreeElement]) -> dict:
    out = []
    for rel in rs:
        terms = []
        for (mask, word), c in sorted(rel.terms.items()):
            iotas = [k + 1 for k in range(rel.n) if mask >> k & 1]
            terms.append(
                {
                    "iota": iotas,
                    "word": [GEN_NAMES[g] for g in word],
                    "re": c.real,
                    "im": c.imag,
                }
            )
        out.append({"terms": terms})
    return {"relations": out}


def relations_from_json(data: dict, n: int) -> tuple[FreeElement, ...]:
    rels = []
    for rel in data["relations"]:
        terms: dict[tuple[int, tuple[int, ...]], complex] = {}
        for t in rel["terms"]:
            mask = 0
            for k in t.get("iota", []):
                mask |= 1 << (k - 1)
            word = tuple(GEN_INDEX[w] for w in t["word"])
            terms[(mask, word)] = terms.get((mask, word), 0j) + complex(
                t.get("re", 0.0), t.get("im", 0.0)
            )
        rels.append(FreeElement(n, NGEN, terms))
    return tuple(rels)


def relations_json_str(rs: Sequence[FreeElement]) -> str:
    return json.dumps(relations_to_json(rs), sort_keys=True)

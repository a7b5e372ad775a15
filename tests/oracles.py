"""Independent oracles used only by the test suite.

These deliberately avoid the library's Taylor-sum lifting code: the
Grassmann oracle realizes the nilpotent units inside a brute-force exterior
algebra, the Taylor oracle lifts analytic kernels through an explicit
truncated series, and the finite-difference oracle recovers lifted
coefficients from mixed numerical partial derivatives.  The reference
partition sum keeps the lifting that walks every set partition of a tag
set into r blocks, once per block count r, zero blocks included.  The quotient
oracles keep the plain Gauss-Jordan elimination, which rescans every
remaining row at every column, the completion residuals generated from
the whole tag closure instead of from the quadratic rules, every product
g*r and r*g of a quadratic rule cut at an absolute keep level (the library
forms only the overlap ambiguities), the build
that eliminates and completes over every tag mask instead of factoring out
the tags no relation carries, the completion in rounds with diamond gaps
among its residuals (the library row-reduces once), the confluence check
that compares normal forms under every tag mask, and the exchange
relations summed one whole element per product, the contraction's
rescaling extended as an algebra map from the rescaled generators, and the
contraction certified by span equality of the two relation sets' tag
closures through three SVDs (the library compares the relations term by
term).  The
series oracles keep the monomial product that replays every letter push from
the unit and the linear extension with one ser_mul per term pair.  The Hopf-check oracles keep
the coproduct check that maps and reduces every relation whole, with the
tensor reduction that repeats full passes until one rewrites nothing, and
the deformed-algebra products that take one ser_mul per term pair and per
contribution.  The D_n oracles keep the product that scans every pair of
masks and skips the overlapping ones, the inverse of an element and of a
DMatrix as a geometric series in the nilpotent part, the functional slices assembled entry by entry, the
L-relation identities that cut a functional window and read a metric entry
at each use, and the Hopf images of monomials multiplied letter by letter
from the unit.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from ckq import dual, frt
from ckq.free_algebra import (
    CLOSURE_DEGREE,
    PIVOT_THRESHOLD,
    FreeElement,
    NonTerminatingRules,
    ReductionSystem,
    TensorElement,
    _lift_rules,
    _require_head_degree,
    _rref_rules,
    algebra_map,
    coefficient_matrix,
    iota_closure,
    term_order_key,
    unused_tags,
)
from ckq.dmat import DMatrix
from ckq.pimenov import AnalyticKernel, PimenovElement, _support, worst_residual

# ---------------------------------------------------------------------------
# D_n product, inverse and slice oracles
# ---------------------------------------------------------------------------


def reference_tag_product(a, b, mul=operator.mul):
    """mul(a[m1], b[m2]) summed at m1 | m2 over every pair of disjoint masks."""
    out = {}
    for m1, x in a.items():
        for m2, y in b.items():
            if m1 & m2:
                continue
            m = m1 | m2
            p = mul(x, y)
            out[m] = out[m] + p if m in out else p
    return out


def geometric_inverse(a: PimenovElement) -> PimenovElement:
    """1/a = (1/a0) * sum_k m^k with a = a0*(1 - m), m nilpotent (m^(n+1) = 0)."""
    a0 = a.scalar_part
    m = a.nil_part() * (-1.0 / a0)
    acc = PimenovElement.unit(a.n)
    term = PimenovElement.unit(a.n)
    for _ in range(a.n):
        term = term * m
        if term.is_zero():
            break
        acc = acc + term
    return acc * (1.0 / a0)


def geometric_dmatrix_inverse(M: DMatrix) -> DMatrix:
    """1/M = (sum_k (-K)^k) L with L the inverse scalar block and K = L (M - M0), nilpotent."""
    lead = DMatrix(M.n, M.size, {0: np.linalg.inv(M.scalar_block())})
    k = lead @ DMatrix(M.n, M.size, {m: b for m, b in M.blocks.items() if m != 0})
    acc = DMatrix.identity(M.n, M.size)
    term = DMatrix.identity(M.n, M.size)
    for _ in range(M.n):
        term = (term @ k) * -1.0
        if not term.blocks:
            break
        acc = acc + term
    return acc @ lead


def assembled_slice(f, i, j, eps):
    """The (i, j) functional's 3x3 value matrix, built entry by entry."""
    R = f.rp if eps == "+" else f.rm
    ents = [[R.entry(3 * (i - 1) + k, 3 * (j - 1) + l) for l in range(3)] for k in range(3)]
    return DMatrix.from_entries(f.sig.n_slots, ents)


def reference_L_relations(sig, v):
    """`dual.verify_L_relations` with every window cut and every metric
    entry read where it is used (236 slices and 324 entry reads per call)."""
    f = dual.build_functionals(sig, v)
    n = sig.n_slots
    I3 = DMatrix.identity(n, 3)
    L1, L2 = {}, {}
    for eps in ("+", "-"):
        acc1 = DMatrix.zeros(n, 27)
        acc2 = DMatrix.zeros(n, 27)
        for i in range(1, 4):
            for j in range(1, 4):
                E = np.zeros((3, 3))
                E[i - 1, j - 1] = 1.0
                S = f.slice(i, j, eps)
                acc1 = acc1 + DMatrix.from_scalar(n, np.kron(E, np.eye(3))).kron(S)
                acc2 = acc2 + DMatrix.from_scalar(n, np.kron(np.eye(3), E)).kron(S)
        L1[eps] = acc1
        L2[eps] = acc2
    R27 = f.rp.kron(I3)
    res = {}
    for e1, e2 in (("+", "+"), ("-", "-"), ("+", "-")):
        res[f"exchange{e1}{e2}"] = (R27 @ L1[e1] @ L2[e2] - L2[e2] @ L1[e1] @ R27).max_abs()
    C = frt.cmatrix(sig, v)
    for label, M in (("metric", C.mat.T), ("metric_inv", C.mat.inv().T)):
        for eps in ("+", "-"):
            residuals = []
            for i in range(1, 4):
                for j in range(1, 4):
                    acc = DMatrix.zeros(n, 3)
                    for k in range(1, 4):
                        for l in range(1, 4):
                            coeff = M.entry(k - 1, l - 1)
                            if coeff.is_zero():
                                continue
                            acc = acc + (f.slice(i, k, eps) @ f.slice(j, l, eps)) * coeff
                    target = DMatrix.identity(n, 3) * M.entry(i - 1, j - 1)
                    residuals.append((acc - target).max_abs())
            res[f"{label}{eps}"] = worst_residual(residuals)
    res["diag_inverse"] = (f.slice(1, 1, "+") @ f.slice(1, 1, "-") - DMatrix.identity(n, 3)).max_abs()
    worst = worst_residual(res.values())
    return {"identities": res, "residual": worst, "pass": worst <= 1e-9}


def word_delta_mono(alg, key):
    """Delta of X01^a X02^m X12^b: the unit times Delta of each letter, left to right."""
    a, m, b = key
    out = dual.SowTensor2(alg, alg._unit_map(((0, 0, 0), (0, 0, 0))))
    for name in ["X01"] * a + ["X02"] * m + ["X12"] * b:
        out = out * alg.delta_gen(name)
    return out.terms


def word_antipode_mono(alg, key):
    """S of X01^a X02^m X12^b: the unit times S of each letter, last letter first."""
    a, m, b = key
    out = alg.one()
    for name in reversed(["X01"] * a + ["X02"] * m + ["X12"] * b):
        out = out * alg.antipode_gen(name)
    return out

# ---------------------------------------------------------------------------
# Grassmann (exterior algebra) oracle
# ---------------------------------------------------------------------------


class GrassmannElement:
    """Element of the exterior algebra on `m` anticommuting generators,
    stored as subset-mask -> coefficient."""

    def __init__(self, m: int, coeffs: dict[int, complex] | None = None):
        self.m = m
        self.coeffs = dict(coeffs or {})

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        out: dict[int, complex] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if m1 & m2:
                    continue  # repeated generator squares to zero
                sign = 1
                for bit in range(self.m):
                    if m2 & (1 << bit):
                        # count generators of m1 that this factor must jump over
                        higher = m1 >> (bit + 1)
                        sign *= (-1) ** bin(higher).count("1")
                key = m1 | m2
                out[key] = out.get(key, 0) + sign * c1 * c2
        return GrassmannElement(self.m, out)


def embed_in_grassmann(a: PimenovElement) -> GrassmannElement:
    """Send the k-th nilpotent unit to the adjacent pair xi_{2k} xi_{2k+1};
    adjacent even pairs reorder without signs."""
    n = a.n
    out: dict[int, complex] = {}
    for mask, c in a.coeffs.items():
        gmask = 0
        for k in range(n):
            if mask & (1 << k):
                gmask |= (1 << (2 * k)) | (1 << (2 * k + 1))
        out[gmask] = out.get(gmask, 0) + c
    return GrassmannElement(2 * n, out)


def grassmann_product(a: PimenovElement, b: PimenovElement) -> PimenovElement:
    """Multiply through the exterior-algebra embedding and pull back."""
    n = a.n
    g = embed_in_grassmann(a) * embed_in_grassmann(b)
    coeffs: dict[int, complex] = {}
    for gmask, c in g.coeffs.items():
        mask = 0
        for k in range(n):
            pair = (1 << (2 * k)) | (1 << (2 * k + 1))
            if gmask & pair == pair:
                mask |= 1 << k
                gmask &= ~pair
        assert gmask == 0, "image not in the even pair subalgebra"
        coeffs[mask] = coeffs.get(mask, 0) + c
    return PimenovElement(n, coeffs)


# ---------------------------------------------------------------------------
# Taylor-series lifting oracle
# ---------------------------------------------------------------------------


def _cyclic(fns):
    return lambda r, a0: fns[r % len(fns)](a0)


_DERIVS = {
    "exp": lambda r, a0: cmath.exp(a0),
    "log": lambda r, a0: cmath.log(a0) if r == 0 else (-1) ** (r - 1) * math.factorial(r - 1) / a0**r,
    "sin": _cyclic([cmath.sin, cmath.cos, lambda z: -cmath.sin(z), lambda z: -cmath.cos(z)]),
    "cos": _cyclic([cmath.cos, lambda z: -cmath.sin(z), lambda z: -cmath.cos(z), cmath.sin]),
    "sinh": _cyclic([cmath.sinh, cmath.cosh]),
    "cosh": _cyclic([cmath.cosh, cmath.sinh]),
}

FUNCS = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
}


def lift_taylor(name: str, a: PimenovElement) -> PimenovElement:
    """f(a0 + nu) = sum_r f^(r)(a0) nu^r / r! with nu the nilpotent part;
    the series terminates at the tag count."""
    d = _DERIVS[name]
    a0 = a.scalar_part
    nu = a.nil_part()
    out = PimenovElement.scalar(a.n, d(0, a0))
    power = PimenovElement.unit(a.n)
    for r in range(1, a.n + 1):
        power = power * nu
        out = out + power * (d(r, a0) / math.factorial(r))
    return out


# ---------------------------------------------------------------------------
# Finite-difference lifting oracle
# ---------------------------------------------------------------------------

FD_H = 2.5e-3
# fourth-order central first-derivative stencil
_FD_STENCIL = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))


def lift_fd(name: str, a: PimenovElement) -> PimenovElement:
    """Recover every lifted coefficient as a mixed first partial derivative
    of f(a(t)) with each nilpotent unit replaced by a real variable t_k."""
    f = FUNCS[name]
    n = a.n

    def value(t: tuple[float, ...]) -> complex:
        z = 0j
        for mask, c in a.coeffs.items():
            term = c
            for k in range(n):
                if mask & (1 << k):
                    term *= t[k]
            z += term
        return f(z)

    coeffs: dict[int, complex] = {}
    for mask in range(2**n):
        vars_ = [k for k in range(n) if mask & (1 << k)]
        total = 0j
        for combo in product(_FD_STENCIL, repeat=len(vars_)):
            t = [0.0] * n
            weight = 1.0
            for k, (step, w) in zip(vars_, combo):
                t[k] = step * FD_H
                weight *= w / FD_H
            total += weight * value(tuple(t))
        coeffs[mask] = total
    return PimenovElement(n, coeffs)


# ---------------------------------------------------------------------------
# Reference partition sum
# ---------------------------------------------------------------------------


def _partitions(mask: int, r: int) -> Iterable[tuple[int, ...]]:
    """Unordered partitions of the tag set `mask` into r nonempty blocks."""
    if r == 1:
        yield (mask,)
        return
    low = mask & -mask  # the block containing the lowest tag is canonical
    rest = mask ^ low
    # enumerate subsets s of `rest`; the first block is low|s
    s = rest
    while True:
        block = low | s
        remainder = mask ^ block
        if remainder.bit_count() >= r - 1:
            for tail in _partitions(remainder, r - 1):
                yield (block,) + tail
        if s == 0:
            break
        s = (s - 1) & rest


def partition_sum(coeffs: Mapping[int, complex], mask: int, r: int) -> complex:
    """d(p;r): sum over partitions of `mask` into r blocks of block-coefficient
    products.  d(p;1) is the coefficient of `mask` itself; d(p;p) is the
    product of the singleton coefficients."""
    p = mask.bit_count()
    if not (1 <= r <= p):
        raise ValueError(f"block count {r} out of range 1..{p}")
    total = 0j
    for blocks in _partitions(mask, r):
        prod = 1.0 + 0j
        for b in blocks:
            c = coeffs.get(b, 0j)
            if c == 0:
                prod = 0j
                break
            prod *= c
        total += prod
    return total


def a_subsets(a: PimenovElement) -> list[int]:
    """All nonempty tag subsets reachable from the nilpotent support of a."""
    support = _support(a.coeffs)
    subs = []
    s = support
    while s:
        subs.append(s)
        s = (s - 1) & support
    return sorted(subs, key=lambda m: m.bit_count())


def reference_pim_apply(f: AnalyticKernel, a: PimenovElement) -> PimenovElement:
    """f lifted to D_n with one full `partition_sum` per (tag subset, r)."""
    a0 = a.scalar_part
    out: dict[int, complex] = {0: f.deriv(0, a0)}
    derivs: dict[int, complex] = {}
    for mask in a_subsets(a):
        p = mask.bit_count()
        total = 0j
        for r in range(1, p + 1):
            if r not in derivs:
                derivs[r] = f.deriv(r, a0)
            total += derivs[r] * partition_sum(a.coeffs, mask, r)
        if total != 0:
            out[mask] = total
    return PimenovElement(a.n, out)


# ---------------------------------------------------------------------------
# Quotient-pipeline oracles
# ---------------------------------------------------------------------------


def reference_rref_rules(elements, n, G, pivot_threshold=PIVOT_THRESHOLD):
    """Row-reduce elements into head -> tail rules, rescanning all rows per column."""
    elements = [e for e in elements if e.terms]
    if not elements:
        return {}
    columns = sorted(
        {k for r in elements for k in r.terms},
        key=lambda k: term_order_key(*k),
        reverse=True,
    )
    A = coefficient_matrix(elements, columns)
    global_scale = np.abs(A).max()
    noise = 1e-12 * global_scale
    pivot_cols = []
    row = 0
    for col in range(len(columns)):
        if row >= len(A):
            break
        scales = np.abs(A[row:]).max(axis=1)
        dead = (scales > 0) & (scales <= noise)
        if dead.any():
            A[row:][dead] = 0
            scales[dead] = 0
        sub = np.abs(A[row:, col])
        best = int(np.argmax(sub))
        row_scale = scales[best]
        if row_scale == 0 or sub[best] <= pivot_threshold * row_scale:
            A[row:, col] = 0
            continue
        best += row
        A[[row, best]] = A[[best, row]]
        A[row] = A[row] / A[row, col]
        mask = np.abs(A[:, col]) > 0
        mask[row] = False
        A[mask] -= np.outer(A[mask, col], A[row])
        pivot_cols.append(col)
        row += 1
    rules = {}
    for r_i, col in enumerate(pivot_cols):
        row_vec = A[r_i]
        row_max = np.abs(row_vec).max()
        tail_terms = {}
        for k_i in np.nonzero(row_vec)[0]:
            if k_i == col:
                continue
            c = row_vec[k_i]
            if abs(c) <= pivot_threshold * row_max:
                continue
            tail_terms[columns[k_i]] = -c
        rules[columns[col]] = FreeElement(n, G, tail_terms)
    return rules


def closure_residuals(system, closure, keep):
    """Reduced products g*r and r*g over every tag-closure row r and generator g."""
    out = []
    for r in closure:
        for g in range(system.G):
            gx = FreeElement.generator(system.n, system.G, g)
            for prod in (gx * r, r * gx):
                red = system.reduce(prod)
                if red.max_abs() > keep:
                    out.append(red)
    return out


def closure_keep(closure):
    """The cut-off of the product residuals: 1e-10 times the largest
    coefficient of the tag closure, and at least 1e-10."""
    return 1e-10 * max([1.0, *(r.max_abs() for r in closure)])


def product_residuals(sys, quadratic, keep):
    """The products g*r and r*g over every generator g and every quadratic
    rule r (head - tail), reduced term by term as they are formed; residuals
    no larger than keep are dropped.  The library forms only the overlap
    ambiguities, the products g*r that are not 0 in exact arithmetic."""
    n, G = sys.n, sys.G
    out = []
    one = 1.0 + 0j  # the generator's coefficient, multiplied in on its side
    for r in quadratic:
        for g in range(G):
            for left in (True, False):
                acc = {}
                for (mask, word), c in r.terms.items():
                    gc, gword = (one * c, (g, *word)) if left else (c * one, (*word, g))
                    for k, c2 in sys._nf(mask, gword, "left").items():
                        acc[k] = acc.get(k, 0j) + gc * c2
                red = FreeElement(n, G, acc)
                if red.max_abs() > keep:
                    out.append(red)
    return out


def reference_build_reduction(rs, n, G, pivot_threshold=PIVOT_THRESHOLD):
    """build_reduction over the full tag closure: one row reduction of the
    products of every quadratic rule (product_residuals), with the same
    scope check."""
    closure = iota_closure(rs, n)
    stats = {"closure_rows": len(closure), "pivot_threshold": pivot_threshold}
    rules = _rref_rules(closure, n, G, pivot_threshold, stats)
    stats["quadratic_rules"] = len(rules)
    _require_head_degree(rules, 2, "quadratic")
    quadratic = [FreeElement(n, G, {h: 1.0}) - t for h, t in rules.items()]
    residuals = product_residuals(ReductionSystem(n, G, rules), quadratic, closure_keep(closure))
    cubic = _rref_rules(residuals, n, G, pivot_threshold, stats)
    _require_head_degree(cubic, 3, "completed")
    stats["residual_rows"] = len(residuals)
    stats["cubic_rules"] = len(cubic)
    system = ReductionSystem(n, G, rules | cubic)
    system.stats = stats
    return system


def diamond_gaps(system):
    """Left-first minus right-first normal form of every degree-3 word under
    every tag mask without free tags, where the two differ."""
    masks = [m for m in range(1 << system.n) if not m & system.unused]
    gaps = []
    for word in product(range(system.G), repeat=CLOSURE_DEGREE):
        for mask in masks:
            nl, nr = system._nf(mask, word, "left"), system._nf(mask, word, "right")
            if nl != nr:
                d = {k: nl.get(k, 0j) - nr.get(k, 0j) for k in set(nl) | set(nr)}
                gaps.append(FreeElement(system.n, system.G, d))
    return gaps


def multi_round_build_reduction(quadratic, keep):
    """build_reduction in rounds: each round row-reduces the products g*r and
    r*g (product_residuals) and the diamond gaps of the current system, both
    cut at keep (see closure_keep), and rounds repeat until one adds no rule,
    at most ten times."""
    n, G, unused = quadratic.n, quadratic.G, quadratic.unused
    stats = dict(quadratic.stats)
    rules = dict(quadratic.rules)
    rounds = []
    system = ReductionSystem(n, G, rules, unused)
    if rules:
        compact = [FreeElement(n, G, {h: 1.0}) - t for h, t in rules.items() if not h[0] & unused]
        for _ in range(10):
            residuals = product_residuals(system, compact, keep)
            residuals += [d for d in diamond_gaps(system) if d.max_abs() > keep]
            added = {}
            if residuals:
                new = _rref_rules(residuals, n, G, stats=stats)
                added = {h: t for h, t in _lift_rules(new, unused).items() if h not in rules}
            rounds.append({"residual_rows": len(residuals) * stats["tag_copies"], "added_rules": len(added)})
            if not added:
                break
            rules.update(added)
            system = ReductionSystem(n, G, rules, unused)
    stats["rounds"] = rounds
    system.stats = stats
    return system


def reference_confluence_check(system):
    """confluence_check with the left- and right-first normal forms of every
    degree-3 word under every tag mask, free tags included."""
    masks = range(1 << system.n)
    per_word, failing = [], []
    for word in product(range(system.G), repeat=CLOSURE_DEGREE):
        gaps = []
        for mask in masks:
            nl = system._nf(mask, word, "left")
            nr = system._nf(mask, word, "right")
            gaps += [abs(nl.get(k, 0j) - nr.get(k, 0j)) for k in set(nl) | set(nr)]
        diff = worst_residual(gaps)
        per_word.append(diff)
        if not diff <= 1e-9:
            failing.append(word)
    return {
        "degree": CLOSURE_DEGREE,
        "rules": len(system),
        "words_checked": len(per_word),
        "tagged_words_checked": len(per_word) * len(masks),
        "max_discrepancy": worst_residual(per_word),
        "failing_words": failing,
        "confluent": not failing,
    }


def reference_rtt_relations(R, attachments=True):
    """R T1 T2 - T2 T1 R entry by entry, one whole FreeElement per product."""
    n = R.sig.n_slots
    T = frt.t_matrix(R.sig, attachments)
    TT1 = [[None] * 9 for _ in range(9)]
    TT2 = [[None] * 9 for _ in range(9)]
    for i, k, j, l in product(range(3), repeat=4):
        TT1[3 * i + k][3 * j + l] = T[i][j] * T[k][l]
        TT2[3 * i + k][3 * j + l] = T[k][l] * T[i][j]
    relations = []
    for al in range(9):
        for be in range(9):
            acc = FreeElement.zero(n, frt.NGEN)
            for ga in range(9):
                r1 = R.mat.entry(al, ga)
                if not r1.is_zero():
                    acc = acc + TT1[ga][be] * r1
                r2 = R.mat.entry(ga, be)
                if not r2.is_zero():
                    acc = acc - TT2[al][ga] * r2
            if not acc.is_zero():
                relations.append(acc)
    return tuple(relations)


def reference_substitute_generators(sig, relations):
    """The contraction's rescaling as the algebra map fixed by the rescaled generators."""
    n = sig.n_slots
    images = {
        g: FreeElement.generator(n, frt.NGEN, g) * frt.mono_eval(sig, (1, e1, e2))
        for g, (e1, e2) in frt._SUBST_EXPONENTS.items()
    }
    unit = FreeElement.const(n, frt.NGEN, 1.0)
    return [algebra_map(r, images, unit) for r in relations]


def reference_contraction_transform(sig, v):
    """The contraction transform certified by span equality over C.

    Both relation sets are closed under the tags they carry and put on one
    (mask, word) column set as matrices A and B.  The check passes when
    rank(A) = rank(B) = rank([A; B]), each the count of singular values
    above PIVOT_THRESHOLD times the largest, and the residual
    max(|B - B P_A|, |A - A P_B|) is at most 1e-9, P_X the orthogonal
    projector onto the row space of X.  Over the tags neither set carries,
    A and B are block diagonal with `tag_copies` equal blocks, so the
    reported ranks are the block ranks times `tag_copies`.  `gap` is
    sigma_r / sigma_{r+1} of [A; B].
    """
    n = sig.n_slots
    direct_rel = frt.full_relations(sig, v)
    substituted_rel = frt.substitute_generators(sig, frt.full_relations(sig, v, attachments=False))
    unused = unused_tags([*direct_rel, *substituted_rel], n)
    copies = 1 << unused.bit_count()
    direct = iota_closure(direct_rel, n, unused)
    substituted = iota_closure(substituted_rel, n, unused)
    columns = sorted({k for r in direct + substituted for k in r.terms})
    A = coefficient_matrix(direct, columns)
    B = coefficient_matrix(substituted, columns)
    _, sv_a, basis_a = np.linalg.svd(A, full_matrices=False)
    _, sv_b, basis_b = np.linalg.svd(B, full_matrices=False)
    sv_ab = np.linalg.svd(np.vstack([A, B]), compute_uv=False)
    rank_a, rank_b, rank_ab = (int(np.count_nonzero(sv > PIVOT_THRESHOLD * sv[0])) for sv in (sv_a, sv_b, sv_ab))

    def off_span(X, basis):
        # max |X - X P| with P = basis^H basis, basis orthonormal rows
        return float(np.abs(X - (X @ basis.conj().T) @ basis).max())

    substituted_in_direct = off_span(B, basis_a[:rank_a])
    direct_in_substituted = off_span(A, basis_b[:rank_b])
    worst = worst_residual((substituted_in_direct, direct_in_substituted))
    gap = math.inf
    if rank_ab < sv_ab.size and sv_ab[rank_ab] > 0:
        gap = float(sv_ab[rank_ab - 1] / sv_ab[rank_ab])
    return {
        "residual": worst,
        "direct_in_substituted": direct_in_substituted,
        "substituted_in_direct": substituted_in_direct,
        "rank_direct": rank_a * copies,
        "rank_substituted": rank_b * copies,
        "rank_union": rank_ab * copies,
        "tag_copies": copies,
        "gap": gap,
        "pass": rank_a == rank_b == rank_ab and worst <= 1e-9,
    }


# ---------------------------------------------------------------------------
# Series-algebra oracles
# ---------------------------------------------------------------------------


def reference_combine(alg, state, image):
    """The linear extension with one ser_mul per (state term, image term) pair, summed in order."""
    out = {}
    for key, coeff in state.items():
        for k2, c2 in image(key).items():
            add = dual.ser_mul(coeff, c2, alg.dw)
            out[k2] = out[k2] + add if k2 in out else add
    return {k: c for k, c in out.items() if c.any()}


def replay_mono_mul(alg, k1, k2):
    """X01^a X02^m X12^b pushed into k1 letter by letter, from the unit each time."""
    state = alg._unit_map(k1)
    a2, m2, b2 = k2
    for _ in range(a2):
        state = alg._combine(state, alg._push01)
    for _ in range(m2):
        state = alg._combine(state, alg._push02)
    return {(a, m, b + b2): c for (a, m, b), c in state.items()}


# ---------------------------------------------------------------------------
# Hopf-check oracles
# ---------------------------------------------------------------------------


def reference_reduce_tensor(system, x):
    """Reduce both banks of every term, pass after pass, until a pass rewrites nothing."""
    terms = dict(x.terms)
    for _ in range(2 * CLOSURE_DEGREE):
        nxt = {}
        changed = False
        for (mask, lw, rw), c in terms.items():
            left_nf = system._nf(mask, lw, "left")
            changed = changed or left_nf != {(mask, lw): 1.0 + 0j}
            for (m1, lw1), c1 in left_nf.items():
                right_nf = system._nf(m1, rw, "left")
                changed = changed or right_nf != {(m1, rw): 1.0 + 0j}
                for (m2, rw1), c2 in right_nf.items():
                    k = (m2, lw1, rw1)
                    nxt[k] = nxt.get(k, 0j) + c * c1 * c2
        terms = {k: c for k, c in nxt.items() if c != 0}
        if not changed:
            return TensorElement(x.n, x.G, terms)
    raise NonTerminatingRules("reference tensor reduction did not settle")


def reference_coproduct_compatibility(sig, v):
    """Map every relation whole and reduce its image with reference_reduce_tensor."""
    system = frt.reduction_system(sig, v)
    residuals, failures = [], []
    for i, rel in enumerate(frt.full_relations(sig, v)):
        res = reference_reduce_tensor(system, frt.coproduct(sig, rel)).max_abs()
        residuals.append(res)
        if not res <= 1e-9:
            failures.append((i, res))
    return {"residual": worst_residual(residuals), "failures": failures, "pass": not failures}


def reference_sow_mul(x, y):
    """x * y with one ser_mul per term pair and one per contribution."""
    alg = x.alg
    out = {}
    for k1, d1 in x.terms.items():
        for k2, d2 in y.terms.items():
            coeff = dual.ser_mul(d1, d2, alg.dw)
            for k3, arr in alg.mono_mul(k1, k2).items():
                add = dual.ser_mul(coeff, arr, alg.dw)
                out[k3] = out[k3] + add if k3 in out else add
    return dual.SowElement(alg, out)


def reference_tensor2_mul(x, y):
    """Tensor-square product, bank by bank, one ser_mul per contribution."""
    alg = x.alg
    out = {}
    for (l1, r1), d1 in x.terms.items():
        for (l2, r2), d2 in y.terms.items():
            coeff = dual.ser_mul(d1, d2, alg.dw)
            for kl, al in alg.mono_mul(l1, l2).items():
                left = dual.ser_mul(coeff, al, alg.dw)
                for kr, ar in alg.mono_mul(r1, r2).items():
                    add = dual.ser_mul(left, ar, alg.dw)
                    out[(kl, kr)] = out[(kl, kr)] + add if (kl, kr) in out else add
    return dual.SowTensor2(alg, out)

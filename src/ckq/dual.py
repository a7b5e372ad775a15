"""Dual side of the N=3 quantum Cayley-Klein group.

Contains the triangular functional matrices L+/L- obtained by slicing the
exchange matrix, the pairing table of the generating functionals against
the group generators, the fundamental-representation identities, the
deformed rotation algebra with truncated normal-ordered arithmetic in the
dual deformation parameter w, its Hopf structure, and the substitution map
identifying the two presentations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .dmat import DMatrix
from .frt import CD_TABLE, GEN_AT, GEN_NAMES, N, canonical_position, cmatrix, flip_matrix, mono_eval, rmatrix3
from .pimenov import (
    ParameterSignature,
    PimenovElement,
    Scalar,
    cosh_j,
    jfactor_square,
    sinhc_j,
    tag_product,
    tanhc_j,
    worst_residual,
)

PAIR_TOL = 1e-10

ATOMS = ("l11", "l11inv", "l12", "lt12", "l21", "lt21", "l13", "lt13")


# ---------------------------------------------------------------------------
# Functionals from the exchange matrix
# ---------------------------------------------------------------------------


@dataclass
class DualFunctionals:
    sig: ParameterSignature
    v: complex
    rp: DMatrix  # value table of the upper-triangular functional matrix
    rm: DMatrix  # value table of the lower-triangular functional matrix

    def slice(self, i: int, j: int, eps: str) -> DMatrix:
        """3x3 value matrix of the (i, j) functional, eps in {'+', '-'}.

        Entry (k, l) is the pairing of the functional with the (k, l)
        entry of the generator matrix.
        """
        R = self.rp if eps == "+" else self.rm
        n = self.sig.n_slots
        # (i,k) is the row index and (j,l) the column index of the 9x9 table
        ents = [
            [R.entry(3 * (i - 1) + k, 3 * (j - 1) + l) for l in range(3)]
            for k in range(3)
        ]
        return DMatrix.from_entries(n, ents)


def build_functionals(sig: ParameterSignature, v: complex) -> DualFunctionals:
    R = rmatrix3(sig, v)
    n = sig.n_slots
    P = DMatrix.from_scalar(n, flip_matrix())
    rp = P @ R.mat @ P
    rm = R.mat.inv()
    return DualFunctionals(sig, v, rp, rm)


# ---------------------------------------------------------------------------
# Atom value matrices and the pairing table
# ---------------------------------------------------------------------------


def atom_matrices(f: DualFunctionals) -> dict[str, DMatrix]:
    """Value matrices of the generating functionals, extracted from the
    triangular slices by polynomial (division-free) combinations."""
    sig = f.sig
    half_j1 = mono_eval(sig, (0.5, 1, 0))
    half_ij2 = mono_eval(sig, (0.5j, 0, 1))
    half_iJ = mono_eval(sig, (0.5j, 1, 1))
    s = f.slice
    return {
        "l11": s(1, 1, "+"),
        "l11inv": s(3, 3, "+"),
        "l12": (s(1, 2, "+") + s(3, 2, "-")) * half_j1,
        "lt12": (s(1, 2, "+") - s(3, 2, "-")) * half_ij2,
        "l21": (s(2, 3, "+") + s(2, 1, "-")) * half_j1,
        "lt21": (s(2, 3, "+") - s(2, 1, "-")) * half_ij2,
        "l13": (s(1, 3, "+") + s(3, 1, "-")) * 0.5,
        "lt13": (s(1, 3, "+") - s(3, 1, "-")) * half_iJ,
    }


def _corner_kernel(kappa: complex, v: complex) -> complex:
    """(2 sinh Jv - sinh 2Jv) / (2 J^3) as a scalar, given kappa = J^2."""
    v = complex(v)
    if kappa == 0:
        return -(v**3) / 2.0
    s = cmath.sqrt(kappa)
    return (2 * cmath.sinh(s * v) - cmath.sinh(2 * s * v)) / (2 * s**3)


def _h3_kernel(kappa: complex, v: complex) -> complex:
    """(cosh(3Jv/2) - cosh(Jv/2)) / (2 J^2) as a scalar."""
    v = complex(v)
    if kappa == 0:
        return v**2
    s = cmath.sqrt(kappa)
    return (cmath.cosh(1.5 * s * v) - cmath.cosh(0.5 * s * v)) / (2 * kappa)


def _h4_kernel(kappa: complex, v: complex) -> complex:
    """(cosh(2Jv) - 1) / (2 J^2) as a scalar."""
    v = complex(v)
    if kappa == 0:
        return v**2
    s = cmath.sqrt(kappa)
    return (cmath.cosh(2 * s * v) - 1) / (2 * kappa)


def pairing_table(sig: ParameterSignature, v: complex) -> dict[tuple[str, str], tuple]:
    """Reference pairings (atom, generator) -> (coeff, e1, e2, kernel value).

    The value is coeff * j1^e1 * j2^e2 * kernel.  The two corner entries
    are stored at the magnitude derived from the exchange matrix, which is
    half the magnitude quoted in the published table (see
    verify_pairing_table's flagged entries).
    """
    kappa = jfactor_square(sig.jfactor(1, N))
    ch = cosh_j(kappa, v)
    K1 = sinhc_j(kappa, v)
    K2 = (sinhc_j(kappa, 1.5 * v) + sinhc_j(kappa, 0.5 * v)) / 2
    H3 = _h3_kernel(kappa, v)
    H4 = _h4_kernel(kappa, v)
    G = _corner_kernel(kappa, v)
    return {
        ("l11", "t22"): (1, 0, 0, 1.0),
        ("l11", "t11"): (1, 0, 0, ch),
        ("l11", "tt11"): (-1, 0, 0, K1),
        ("l11inv", "t22"): (1, 0, 0, 1.0),
        ("l11inv", "t11"): (1, 0, 0, ch),
        ("l11inv", "tt11"): (1, 0, 0, K1),
        ("l12", "tt21"): (-1j, 2, 0, K1),
        ("l12", "tt12"): (1j, 2, 0, K2),
        ("l12", "t12"): (1, 2, 2, H3),
        ("lt12", "tt12"): (1, 2, 2, H3),
        ("lt12", "t21"): (1j, 0, 2, K1),
        ("lt12", "t12"): (-1j, 0, 2, K2),
        ("l21", "tt12"): (-1j, 2, 0, K1),
        ("l21", "tt21"): (1j, 2, 0, K2),
        ("l21", "t21"): (1, 2, 2, H3),
        ("lt21", "tt21"): (1, 2, 2, H3),
        ("lt21", "t12"): (1j, 0, 2, K1),
        ("lt21", "t21"): (-1j, 0, 2, K2),
        ("l13", "t13"): (1, 2, 2, H4),
        ("l13", "tt13"): (-1j, 2, 2, G),
        ("lt13", "tt13"): (1, 2, 2, H4),
        ("lt13", "t13"): (1j, 4, 4, G),
    }


# entries whose published values are exactly twice the ones derived from
# the exchange matrix (and whose J vs 1/J prefactors cannot be told apart:
# the difference is J^3-divisible, hence invisible both at the trivial
# signature and after contraction)
FLAGGED_PAIRINGS = (("l13", "tt13"), ("lt13", "t13"))

# how each triangular slot decomposes into atoms: slot -> [(atom, monomial)]
_SLOT_ATOMS = {
    ("+", 1, 1): [("l11", (1, 0, 0))],
    ("+", 2, 2): "unit",
    ("+", 3, 3): [("l11inv", (1, 0, 0))],
    ("+", 1, 2): [("l12", (1, -1, 0)), ("lt12", (-1j, 0, -1))],
    ("+", 2, 3): [("l21", (1, -1, 0)), ("lt21", (-1j, 0, -1))],
    ("+", 1, 3): [("l13", (1, 0, 0)), ("lt13", (-1j, -1, -1))],
    ("-", 1, 1): [("l11inv", (1, 0, 0))],
    ("-", 2, 2): "unit",
    ("-", 3, 3): [("l11", (1, 0, 0))],
    ("-", 2, 1): [("l21", (1, -1, 0)), ("lt21", (1j, 0, -1))],
    ("-", 3, 2): [("l12", (1, -1, 0)), ("lt12", (1j, 0, -1))],
    ("-", 3, 1): [("l13", (1, 0, 0)), ("lt13", (1j, -1, -1))],
}


def _predicted_pairings(
    sig: ParameterSignature, v: complex, slot: tuple
) -> dict[str, PimenovElement] | str:
    """Pairing of one triangular functional against every generator."""
    spec = _SLOT_ATOMS.get(slot)
    if spec is None:
        return "zero"
    if spec == "unit":
        return "unit"
    table = pairing_table(sig, v)
    n = sig.n_slots
    out: dict[str, PimenovElement] = {}
    for atom, (c0, e1, e2) in spec:
        for (a, comp), (c, f1, f2, kern) in table.items():
            if a != atom:
                continue
            g1, g2 = e1 + f1, e2 + f2
            if g1 < 0 or g2 < 0:
                raise ValueError(f"negative exponent assembling slot {slot}")
            val = mono_eval(sig, (c0 * c * kern, g1, g2))
            out[comp] = out.get(comp, PimenovElement.scalar(n, 0.0)) + val
    return out


def _assemble_slice(
    sig: ParameterSignature, pairings: Mapping[str, PimenovElement]
) -> DMatrix:
    """Build the 3x3 value matrix from per-generator pairings."""
    n = sig.n_slots
    zero = PimenovElement.scalar(n, 0.0)
    names_at = {pos: ids for pos, ids in GEN_AT.items()}
    ents = [[zero for _ in range(3)] for _ in range(3)]
    for a in range(1, 4):
        for b in range(1, 4):
            c, d = CD_TABLE[(a, b)]
            gt, gtt = names_at[canonical_position(a, b)]
            val = mono_eval(sig, c) * pairings.get(GEN_NAMES[gt], zero)
            if gtt is not None and d is not None:
                val = val + mono_eval(sig, d) * pairings.get(GEN_NAMES[gtt], zero)
            ents[a - 1][b - 1] = val
    return DMatrix.from_entries(n, ents)


def _extract_pairings_trivial(rho: DMatrix) -> dict[str, complex]:
    """Invert the generator decomposition of a value matrix; only valid at
    the trivial signature where every slot equals 1."""
    M = rho.scalar_block()
    return {
        "t11": (M[0, 0] + M[2, 2]) / 2,
        "tt11": (M[2, 2] - M[0, 0]) / 2,
        "t12": (M[0, 1] + M[2, 1]) / 2,
        "tt12": (M[2, 1] - M[0, 1]) / 2j,
        "t13": (M[0, 2] + M[2, 0]) / 2,
        "tt13": (M[2, 0] - M[0, 2]) / 2j,
        "t21": (M[1, 0] + M[1, 2]) / 2,
        "tt21": (M[1, 0] - M[1, 2]) / 2j,
        "t22": M[1, 1],
    }


def verify_pairing_table(sig: ParameterSignature, v: complex) -> dict:
    """Check the reference pairing table against the exchange-matrix slices.

    At the trivial signature the pairings of each atom are extracted
    entrywise and scanned for completeness; at every signature the table is
    re-assembled into the full triangular slices (including the forced-zero
    slots) and compared with the actual ones.
    """
    f = build_functionals(sig, v)
    n = sig.n_slots
    report: dict = {"signature": str(sig), "v": str(v)}
    residuals = []

    # entry-level extraction (trivial signature only)
    trivial = all(tok == "1" for tok in sig.slots)
    if trivial:
        atoms = atom_matrices(f)
        table = pairing_table(sig, v)
        mism = []
        unlisted = []
        for atom in ATOMS:
            got = _extract_pairings_trivial(atoms[atom])
            for comp, val in got.items():
                ref = table.get((atom, comp))
                refval = 0j if ref is None else ref[0] * ref[3]
                diff = abs(val - refval)
                if ref is None and abs(val) > PAIR_TOL:
                    unlisted.append((atom, comp, val))
                elif diff > PAIR_TOL:
                    mism.append((atom, comp, val, refval))
                residuals.append(diff if ref is not None else abs(val) * 0)
        report["entry_mismatches"] = mism
        report["unlisted_nonzero"] = unlisted
        report["flagged"] = [
            {
                "entry": f"{a}({c})",
                "note": (
                    "published value is exactly twice the one derived from "
                    "the exchange matrix; both the J and 1/J prefactor "
                    "variants are consistent with it at this signature"
                ),
            }
            for (a, c) in FLAGGED_PAIRINGS
        ]
        if mism or unlisted:
            residuals.append(1.0)

    # assembled slices vs actual, all slots, both triangles
    slot_res = {}
    for eps in ("+", "-"):
        for i in range(1, 4):
            for j in range(1, 4):
                pred = _predicted_pairings(sig, v, (eps, i, j))
                actual = f.slice(i, j, eps)
                if pred == "zero":
                    mat = DMatrix.zeros(n, 3)
                elif pred == "unit":
                    mat = DMatrix.identity(n, 3)
                else:
                    mat = _assemble_slice(sig, pred)
                slot_res[f"{eps}{i}{j}"] = (mat - actual).max_abs()
    worst = worst_residual([*residuals, *slot_res.values()])
    report["slot_residuals"] = slot_res
    report["residual"] = worst
    report["pass"] = worst <= PAIR_TOL
    return report


# ---------------------------------------------------------------------------
# Fundamental-representation identities
# ---------------------------------------------------------------------------


def verify_L_relations(sig: ParameterSignature, v: complex) -> dict:
    """Exchange and orthogonality identities of the functional matrices,
    evaluated through their value tables."""
    f = build_functionals(sig, v)
    n = sig.n_slots
    I3 = DMatrix.identity(n, 3)
    L1: dict[str, DMatrix] = {}
    L2: dict[str, DMatrix] = {}
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
        r = (R27 @ L1[e1] @ L2[e2] - L2[e2] @ L1[e1] @ R27).max_abs()
        res[f"exchange{e1}{e2}"] = r

    C = cmatrix(sig, v)
    Ct = C.mat.T
    Cti = C.inv().T
    for label, M in (("metric", Ct), ("metric_inv", Cti)):
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
    res["diag_inverse"] = (
        f.slice(1, 1, "+") @ f.slice(1, 1, "-") - DMatrix.identity(n, 3)
    ).max_abs()
    worst = worst_residual(res.values())
    return {"identities": res, "residual": worst, "pass": worst <= 1e-9}


def verify_dual_commutators(sig: ParameterSignature, v: complex) -> dict:
    """The three commutation relations of the generating functionals,
    evaluated in the fundamental representation."""
    f = build_functionals(sig, v)
    n = sig.n_slots
    atoms = atom_matrices(f)
    a, b, bt = atoms["l11"], atoms["l12"], atoms["lt12"]
    kappa = jfactor_square(sig.jfactor(1, N))
    ch = cosh_j(kappa, v)
    K1 = sinhc_j(kappa, v)
    half_s = 2j * kappa * sinhc_j(kappa, v / 2)
    half_t = 1j * tanhc_j(kappa, v / 2)
    j1sq = mono_eval(sig, (1, 2, 0))
    j2sq = mono_eval(sig, (1, 0, 2))
    I = DMatrix.identity(n, 3)
    r1 = ((a @ b) * ch - b @ a - (a @ bt) * (1j * K1) * j1sq).max_abs()
    r2 = ((a @ bt) * ch - bt @ a + (a @ b) * (1j * K1) * j2sq).max_abs()
    r3 = (
        b @ bt
        - bt @ b
        + (I - a @ a) * half_s
        + ((b @ b) * j2sq + (bt @ bt) * j1sq) * half_t
    ).max_abs()
    worst = worst_residual((r1, r2, r3))
    return {
        "relation1": r1,
        "relation2": r2,
        "relation3": r3,
        "residual": worst,
        "pass": worst <= 1e-9,
    }


# ---------------------------------------------------------------------------
# Truncated power series helpers
# ---------------------------------------------------------------------------


def ser_mul(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    return np.convolve(a, b)[: d + 1]


def ser_div(num: np.ndarray, den: np.ndarray, d: int) -> np.ndarray:
    if den[0] == 0:
        raise ZeroDivisionError("series division needs an invertible lead")
    q = np.zeros(d + 1, dtype=complex)
    num = np.pad(num.astype(complex), (0, max(0, d + 1 - len(num))))
    den = np.pad(den.astype(complex), (0, max(0, d + 1 - len(den))))
    for k in range(d + 1):
        acc = num[k] - sum(q[j] * den[k - j] for j in range(k))
        q[k] = acc / den[0]
    return q


def ser_sqrt(a: np.ndarray, d: int) -> np.ndarray:
    if a[0] == 0:
        raise ValueError("series square root needs an invertible lead")
    s = np.zeros(d + 1, dtype=complex)
    a = np.pad(a.astype(complex), (0, max(0, d + 1 - len(a))))
    s[0] = cmath.sqrt(a[0])
    for k in range(1, d + 1):
        acc = a[k] - sum(s[j] * s[k - j] for j in range(1, k))
        s[k] = acc / (2 * s[0])
    return s


class DSeries:
    """Truncated power series in w with coefficients in D_n."""

    __slots__ = ("n", "d", "blocks")

    def __init__(self, n: int, d: int, blocks: Mapping[int, np.ndarray] | None = None):
        self.n = n
        self.d = d
        clean: dict[int, np.ndarray] = {}
        if blocks:
            for mask, arr in blocks.items():
                if not (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.shape == (d + 1,)):
                    arr = np.asarray(arr, dtype=complex)
                    if len(arr) < d + 1:
                        arr = np.pad(arr, (0, d + 1 - len(arr)))
                    arr = arr[: d + 1]
                if np.count_nonzero(arr):
                    clean[mask] = arr
        self.blocks = clean

    @classmethod
    def const(cls, n: int, d: int, c: Scalar = 1.0) -> "DSeries":
        arr = np.zeros(d + 1, dtype=complex)
        arr[0] = c
        return cls(n, d, {0: arr})

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.blocks  # every kept block has a nonzero entry
        return all(np.abs(a).max() <= tol for a in self.blocks.values())

    def max_abs(self, w_cap: int | None = None) -> float:
        cap = self.d if w_cap is None else min(w_cap, self.d)
        return worst_residual(np.abs(a[: cap + 1]).max() for a in self.blocks.values())

    def __add__(self, other: "DSeries") -> "DSeries":
        out = {m: a.copy() for m, a in self.blocks.items()}
        for m, a in other.blocks.items():
            out[m] = out[m] + a if m in out else a
        return DSeries(self.n, self.d, out)

    def __neg__(self) -> "DSeries":
        return DSeries(self.n, self.d, {m: -a for m, a in self.blocks.items()})

    def __sub__(self, other: "DSeries") -> "DSeries":
        return self + (-other)

    def __mul__(self, other: "DSeries | Scalar | np.ndarray") -> "DSeries":
        if isinstance(other, (int, float, complex)):
            return DSeries(self.n, self.d, {m: a * other for m, a in self.blocks.items()})
        if isinstance(other, np.ndarray):
            return DSeries(
                self.n, self.d, {m: ser_mul(a, other, self.d) for m, a in self.blocks.items()}
            )
        blocks = tag_product(self.blocks, other.blocks, lambda a, b: ser_mul(a, b, self.d))
        return DSeries(self.n, self.d, blocks)

    __rmul__ = __mul__


def _dense_blocks(series: Sequence[DSeries], masks: Sequence[int], d: int) -> np.ndarray:
    """The given tag-mask blocks of each series on a dense (len, len(masks), d+1) array."""
    column = {m: i for i, m in enumerate(masks)}
    out = np.zeros((len(series), len(masks), d + 1), dtype=complex)
    for i, ds in enumerate(series):
        for m, arr in ds.blocks.items():
            out[i, column[m]] = arr
    return out


def _batch_ser_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated w-series products of a and b along the last axis, broadcast."""
    d1 = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    # w-orders where a is zero everywhere add nothing
    for k in np.flatnonzero(a.reshape(-1, d1).any(axis=0)):
        out[..., k:] += a[..., k, None] * b[..., : d1 - k]
    return out


def _pair_products(
    first: Sequence[DSeries], second: Sequence[DSeries], d: int
) -> tuple[list[int], np.ndarray]:
    """Every D_n[[w]] product first[i] * second[j], in one pass per mask pair.

    Returns the tag masks the products can carry and a
    (len(first) * len(second), len(masks), d+1) array whose row
    i * len(second) + j holds first[i] * second[j] on those masks.
    """
    masks_a = sorted({m for ds in first for m in ds.blocks})
    masks_b = sorted({m for ds in second for m in ds.blocks})
    a = _dense_blocks(first, masks_a, d)
    b = _dense_blocks(second, masks_b, d)
    products = tag_product(
        {m: a[:, None, i] for i, m in enumerate(masks_a)},
        {m: b[None, :, j] for j, m in enumerate(masks_b)},
        _batch_ser_mul,
    )
    masks = sorted(products)
    out = np.zeros((len(first), len(second), len(masks), d + 1), dtype=complex)
    for i, m in enumerate(masks):
        out[:, :, i] = products[m]
    return masks, out.reshape(len(first) * len(second), len(masks), d + 1)


_BULK_ROWS = 1024


def _bulk_product(alg: "SowAlgebra", x: Mapping, y: Mapping, expand) -> dict:
    """Sum over the term pairs of x and y of coefficient products times monomial series.

    expand(kx, ky) yields (output key, tuple of w-series): every contribution
    is the coefficient product of the pair times each series in turn, and
    the contributions are summed into their keys in the order they come.
    """
    masks, pairs = _pair_products(list(x.values()), list(y.values()), alg.dw)
    keys: dict = {}
    rows, slots, factors = [], [], []
    for p, (kx, ky) in enumerate(product(x, y)):
        for key, series in expand(kx, ky):
            rows.append(p)
            slots.append(keys.setdefault(key, len(keys)))
            factors.append(series)
    acc = np.zeros((len(keys), len(masks), alg.dw + 1), dtype=complex)
    # in chunks of rows, which bounds the temporaries; np.add.at adds in row order
    for start in range(0, len(rows), _BULK_ROWS):
        chunk = slice(start, start + _BULK_ROWS)
        contributions = pairs[rows[chunk]]
        for series in zip(*factors[chunk]):
            contributions = _batch_ser_mul(contributions, np.array(series)[:, None, :])
        np.add.at(acc, slots[chunk], contributions)
    nonzero = acc.any(axis=2)
    return {
        k: DSeries(alg.n, alg.dw, {masks[i]: acc[q, i] for i in np.flatnonzero(nonzero[q])})
        for k, q in keys.items()
        if nonzero[q].any()
    }


# ---------------------------------------------------------------------------
# The deformed rotation algebra with normal-ordered truncation
# ---------------------------------------------------------------------------

Key = tuple[int, int, int]  # exponents of (X01, X02, X12) in normal order


class SowAlgebra:
    """Normal-ordering engine for the w-deformed rotation algebra.

    Monomials are kept as X01^a X02^m X12^b; products are renormalized with
    the letter-push rules
        X02 X01 -> X01 X02 - j1^2 X12
        X12 X01 -> X01 X12 + sinh(w X02)/w
        X12 X02 -> X02 X12 - j2^2 X01
    truncated at w-order dw and X02-degree dx (exact below truncation).
    """

    def __init__(self, sig: ParameterSignature, dw: int = 8, dx: int = 8):
        self.sig = sig
        self.n = sig.n_slots
        self.dw = dw
        self.dx = dx
        self.j1sq = jfactor_square(sig.slot_value(1))
        self.j2sq = jfactor_square(sig.slot_value(2))
        self.kappa = self.j1sq * self.j2sq
        self._push01_memo: dict[Key, dict[Key, np.ndarray]] = {}
        self._push02_memo: dict[Key, dict[Key, np.ndarray]] = {}
        self._mono_memo: dict[tuple[Key, Key], dict[Key, np.ndarray]] = {}
        self._delta_memo: dict[Key, dict[tuple[Key, Key], np.ndarray]] = {}
        self._antipode_memo: dict[Key, "SowElement"] = {}
        self.dropped = 0.0  # set to 1.0 once a product loses a term to the X02-degree cap

    # -- element constructors -------------------------------------------

    def zero(self) -> "SowElement":
        return SowElement(self, {})

    def one(self) -> "SowElement":
        return SowElement(self, {(0, 0, 0): DSeries.const(self.n, self.dw)})

    def gen(self, name: str) -> "SowElement":
        key = {"X01": (1, 0, 0), "X02": (0, 1, 0), "X12": (0, 0, 1)}[name]
        return SowElement(self, {key: DSeries.const(self.n, self.dw)})

    def exp_x02(self, c: complex) -> "SowElement":
        """e^{c * w * X02} as a normal-ordered element."""
        terms = {}
        for k in range(min(self.dw, self.dx) + 1):
            arr = np.zeros(self.dw + 1, dtype=complex)
            arr[k] = c**k / math.factorial(k)
            terms[(0, k, 0)] = DSeries(self.n, self.dw, {0: arr})
        return SowElement(self, terms)

    def word(self, names: Sequence[str]) -> "SowElement":
        out = self.one()
        for nm in names:
            out = out * self.gen(nm)
        return out

    # -- scalar series ----------------------------------------------------

    def even_series(self, half: bool, odd: bool) -> np.ndarray:
        """cos/sinc-type series of J*w (half=True: of J*w/2) in kappa."""
        scale = 0.5 if half else 1.0
        arr = np.zeros(self.dw + 1, dtype=complex)
        for k in range(self.dw // 2 + 1):
            fact = math.factorial(2 * k + 1) if odd else math.factorial(2 * k)
            arr[2 * k] = (-1) ** k * self.kappa**k * scale ** (2 * k) / fact
        return arr

    def sinh_over_w(self) -> list[tuple[int, np.ndarray]]:
        """sinh(w X02)/w: list of (X02 power, w-series coefficient)."""
        out = []
        for k in range(self.dw // 2 + 1):
            p = 2 * k + 1
            if p > self.dx:
                break
            arr = np.zeros(self.dw + 1, dtype=complex)
            arr[2 * k] = 1.0 / math.factorial(p)
            out.append((p, arr))
        return out

    # -- normal ordering ---------------------------------------------------

    def _unit_map(self, key: Key) -> dict[Key, np.ndarray]:
        arr = np.zeros(self.dw + 1, dtype=complex)
        arr[0] = 1.0
        return {key: arr}

    def _combine(
        self, state: dict[Key, np.ndarray], push, factor: np.ndarray | None = None
    ) -> dict[Key, np.ndarray]:
        out: dict[Key, np.ndarray] = {}
        for key, coeff in state.items():
            for k2, c2 in push(key).items():
                add = ser_mul(coeff, c2, self.dw)
                if factor is not None:
                    add = ser_mul(add, factor, self.dw)
                out[k2] = out[k2] + add if k2 in out else add
        return {k: c for k, c in out.items() if c.any()}

    def _push01(self, key: Key) -> dict[Key, np.ndarray]:
        """Normal ordering of (monomial key) * X01."""
        hit = self._push01_memo.get(key)
        if hit is not None:
            return hit
        a, m, b = key
        if b == 0 and m == 0:
            out = self._unit_map((a + 1, 0, 0))
        elif b > 0:
            # ... X12^b X01 = (... X12^{b-1} X01) X12 + ... X12^{b-1} sinh(w X02)/w
            out: dict[Key, np.ndarray] = {}
            for k2, c in self._push01((a, m, b - 1)).items():
                k3 = (k2[0], k2[1], k2[2] + 1)
                out[k3] = out[k3] + c if k3 in out else c.copy()
            for p, arr in self.sinh_over_w():
                state = self._unit_map((a, m, b - 1))
                for _ in range(p):
                    state = self._combine(state, self._push02)
                for k2, c in state.items():
                    add = ser_mul(c, arr, self.dw)
                    out[k2] = out[k2] + add if k2 in out else add
            out = {k: c for k, c in out.items() if c.any()}
        else:
            # X02^m X01 = (X02^{m-1} X01) X02 - j1^2 X02^{m-1} X12
            out = {}
            for k2, c in self._push01((a, m - 1, 0)).items():
                for k3, c3 in self._push02(k2).items():
                    add = ser_mul(c, c3, self.dw)
                    out[k3] = out[k3] + add if k3 in out else add
            if self.j1sq != 0:
                k3 = (a, m - 1, 1)
                add = np.zeros(self.dw + 1, dtype=complex)
                add[0] = -self.j1sq
                out[k3] = out[k3] + add if k3 in out else add
            out = {k: c for k, c in out.items() if c.any()}
        self._push01_memo[key] = out
        return out

    def _push02(self, key: Key) -> dict[Key, np.ndarray]:
        """Normal ordering of (monomial key) * X02."""
        hit = self._push02_memo.get(key)
        if hit is not None:
            return hit
        a, m, b = key
        if b == 0:
            if m + 1 > self.dx:
                out: dict[Key, np.ndarray] = {}  # beyond the X02-degree cap
                self.dropped = max(self.dropped, 1.0)
            else:
                out = self._unit_map((a, m + 1, 0))
        else:
            # ... X12^b X02 = (... X12^{b-1} X02) X12 - j2^2 ... X12^{b-1} X01
            out = {}
            for k2, c in self._push02((a, m, b - 1)).items():
                k3 = (k2[0], k2[1], k2[2] + 1)
                out[k3] = out[k3] + c if k3 in out else c.copy()
            if self.j2sq != 0:
                for k2, c in self._push01((a, m, b - 1)).items():
                    add = c * (-self.j2sq)
                    out[k2] = out[k2] + add if k2 in out else add
            out = {k: c for k, c in out.items() if c.any()}
        self._push02_memo[key] = out
        return out

    def mono_mul(self, k1: Key, k2: Key) -> dict[Key, np.ndarray]:
        """Normal ordering of k1 * k2: push X01^a2 then X02^m2 into k1, append X12^b2.

        Each push extends the memoized product by the prefix of k2 one letter
        shorter, so X02^m costs m pushes, not m^2.
        """
        hit = self._mono_memo.get((k1, k2))
        if hit is not None:
            return hit
        a2, m2, b2 = k2
        if b2:
            state = {(a, m, b + b2): c for (a, m, b), c in self.mono_mul(k1, (a2, m2, 0)).items()}
        elif m2:
            state = self._combine(self.mono_mul(k1, (a2, m2 - 1, 0)), self._push02)
        elif a2:
            state = self._combine(self.mono_mul(k1, (a2 - 1, 0, 0)), self._push01)
        else:
            state = self._unit_map(k1)
        self._mono_memo[(k1, k2)] = state
        return state

    # -- Hopf data ---------------------------------------------------------

    def delta_gen(self, name: str) -> "SowTensor2":
        dw, dx = self.dw, self.dx
        if name == "X02":
            return SowTensor2(
                self,
                {
                    ((0, 1, 0), (0, 0, 0)): DSeries.const(self.n, dw),
                    ((0, 0, 0), (0, 1, 0)): DSeries.const(self.n, dw),
                },
            )
        gkey = {"X01": (1, 0, 0), "X12": (0, 0, 1)}[name]
        terms: dict[tuple[Key, Key], DSeries] = {}
        for k in range(min(dw, dx) + 1):
            arr_m = np.zeros(dw + 1, dtype=complex)
            arr_m[k] = (-0.5) ** k / math.factorial(k)
            arr_p = np.zeros(dw + 1, dtype=complex)
            arr_p[k] = 0.5**k / math.factorial(k)
            terms[((0, k, 0), gkey)] = DSeries(self.n, dw, {0: arr_m})
            terms[(gkey, (0, k, 0))] = DSeries(self.n, dw, {0: arr_p})
        return SowTensor2(self, terms)

    def delta_mono(self, key: Key) -> dict[tuple[Key, Key], np.ndarray]:
        hit = self._delta_memo.get(key)
        if hit is not None:
            return hit
        a, m, b = key
        acc = SowTensor2(self, {((0, 0, 0), (0, 0, 0)): DSeries.const(self.n, self.dw)})
        for _ in range(a):
            acc = acc * self.delta_gen("X01")
        for _ in range(m):
            acc = acc * self.delta_gen("X02")
        for _ in range(b):
            acc = acc * self.delta_gen("X12")
        out = {
            k: ds.blocks.get(0, np.zeros(self.dw + 1, dtype=complex))
            for k, ds in acc.terms.items()
        }
        self._delta_memo[key] = out
        return out

    def delta(self, x: "SowElement") -> "SowTensor2":
        out: dict[tuple[Key, Key], DSeries] = {}
        for key, ds in x.terms.items():
            for pair, arr in self.delta_mono(key).items():
                add = ds * arr
                out[pair] = out[pair] + add if pair in out else add
        return SowTensor2(self, out)

    def antipode_gen(self, name: str) -> "SowElement":
        if name == "X02":
            return self.gen("X02") * (-1.0)
        cos_h = self.even_series(half=True, odd=False)
        sinc_h = np.roll(self.even_series(half=True, odd=True), 1) * 0.5
        sinc_h[0] = 0.0
        if name == "X01":
            return self.gen("X01") * (-1.0) * cos_h + self.gen("X12") * (
                self.j1sq * sinc_h
            )
        # X12
        return self.gen("X12") * (-1.0) * cos_h + self.gen("X01") * (
            -self.j2sq * sinc_h
        )

    def antipode_mono(self, key: Key) -> "SowElement":
        hit = self._antipode_memo.get(key)
        if hit is not None:
            return hit
        a, m, b = key
        out = self.one()
        for _ in range(b):
            out = out * self.antipode_gen("X12")
        for _ in range(m):
            out = out * self.antipode_gen("X02")
        for _ in range(a):
            out = out * self.antipode_gen("X01")
        self._antipode_memo[key] = out
        return out

    def antipode(self, x: "SowElement") -> "SowElement":
        out = self.zero()
        for key, ds in x.terms.items():
            out = out + self.antipode_mono(key) * ds
        return out


class SowElement:
    __slots__ = ("alg", "terms")

    def __init__(self, alg: SowAlgebra, terms: Mapping[Key, DSeries]):
        self.alg = alg
        self.terms = {k: ds for k, ds in terms.items() if not ds.is_zero()}

    def __add__(self, other: "SowElement") -> "SowElement":
        out = dict(self.terms)
        for k, ds in other.terms.items():
            out[k] = out[k] + ds if k in out else ds
        return SowElement(self.alg, out)

    def __sub__(self, other: "SowElement") -> "SowElement":
        return self + other * (-1.0)

    def __mul__(self, other) -> "SowElement":
        alg = self.alg
        if isinstance(other, SowElement):

            def expand(k1: Key, k2: Key):
                return ((k3, (arr,)) for k3, arr in alg.mono_mul(k1, k2).items())

            return SowElement(alg, _bulk_product(alg, self.terms, other.terms, expand))
        # scalar, w-series or D_n-series coefficient
        return SowElement(alg, {k: ds * other for k, ds in self.terms.items()})

    __rmul__ = __mul__

    def max_abs(self, w_cap: int | None = None, x_cap: int | None = None) -> float:
        return worst_residual(
            ds.max_abs(w_cap)
            for (a, m, b), ds in self.terms.items()
            if x_cap is None or m <= x_cap
        )

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol


class SowTensor2:
    __slots__ = ("alg", "terms")

    def __init__(self, alg: SowAlgebra, terms: Mapping[tuple[Key, Key], DSeries]):
        self.alg = alg
        self.terms = {k: ds for k, ds in terms.items() if not ds.is_zero()}

    def __add__(self, other: "SowTensor2") -> "SowTensor2":
        out = dict(self.terms)
        for k, ds in other.terms.items():
            out[k] = out[k] + ds if k in out else ds
        return SowTensor2(self.alg, out)

    def __sub__(self, other: "SowTensor2") -> "SowTensor2":
        return self + other * (-1.0)

    def __mul__(self, other) -> "SowTensor2":
        alg = self.alg
        if isinstance(other, SowTensor2):

            def expand(k1: tuple[Key, Key], k2: tuple[Key, Key]):
                # the left bank's series is applied before the right bank's
                left, right = alg.mono_mul(k1[0], k2[0]), alg.mono_mul(k1[1], k2[1])
                return (((kl, kr), (al, ar)) for kl, al in left.items() for kr, ar in right.items())

            return SowTensor2(alg, _bulk_product(alg, self.terms, other.terms, expand))
        return SowTensor2(alg, {k: ds * other for k, ds in self.terms.items()})

    __rmul__ = __mul__

    def max_abs(self, w_cap: int | None = None, x_cap: int | None = None) -> float:
        return worst_residual(
            ds.max_abs(w_cap)
            for ((a1, m1, b1), (a2, m2, b2)), ds in self.terms.items()
            if x_cap is None or max(m1, m2) <= x_cap
        )


# ---------------------------------------------------------------------------
# Hopf-axiom verification for the deformed rotation algebra
# ---------------------------------------------------------------------------


def verify_sow_hopf(sig: ParameterSignature, dw: int = 8, dx: int = 8) -> dict:
    """Coproduct compatibility, antipode axiom, coassociativity and the
    antipode anti-homomorphism property, all modulo truncation.

    `x02_truncated` tells whether some product lost terms to the X02-degree
    cap of the working algebra (dx + 3); the residuals only read X02
    degrees up to dx.
    """
    alg = SowAlgebra(sig, dw=dw + 2, dx=dx + 3)
    res: dict[str, float] = {}

    # Delta is an algebra map on the three defining relations
    X = {nm: alg.gen(nm) for nm in ("X01", "X02", "X12")}
    D = {nm: alg.delta_gen(nm) for nm in ("X01", "X02", "X12")}
    sinh_el = SowElement(
        alg,
        {
            (0, p, 0): DSeries(alg.n, alg.dw, {0: arr})
            for p, arr in alg.sinh_over_w()
        },
    )
    d_sinh = alg.delta(sinh_el)
    pairs = [
        ("delta_rel1", D["X01"] * D["X02"] - D["X02"] * D["X01"] - D["X12"] * alg.j1sq),
        ("delta_rel2", D["X02"] * D["X12"] - D["X12"] * D["X02"] - D["X01"] * alg.j2sq),
        ("delta_rel3", D["X12"] * D["X01"] - D["X01"] * D["X12"] - d_sinh),
    ]
    for label, t in pairs:
        res[label] = t.max_abs(w_cap=dw, x_cap=dx)

    # antipode axiom m(S x id)Delta = counit = m(id x S)Delta on generators
    for nm in ("X01", "X02", "X12"):
        d = D[nm]
        acc1 = alg.zero()
        acc2 = alg.zero()
        for (k1, k2), ds in d.terms.items():
            acc1 = acc1 + (alg.antipode_mono(k1) * SowElement(alg, {k2: ds}))
            acc2 = acc2 + (SowElement(alg, {k1: ds}) * alg.antipode_mono(k2))
        res[f"antipode_{nm}"] = worst_residual(
            (acc1.max_abs(w_cap=dw, x_cap=dx), acc2.max_abs(w_cap=dw, x_cap=dx))
        )

    # coassociativity on generators
    for nm in ("X01", "X02", "X12"):
        d = D[nm]
        lhs: dict[tuple[Key, Key, Key], DSeries] = {}
        rhs: dict[tuple[Key, Key, Key], DSeries] = {}
        for (k1, k2), ds in d.terms.items():
            for (a1, a2), arr in alg.delta_mono(k1).items():
                key = (a1, a2, k2)
                add = ds * arr
                lhs[key] = lhs[key] + add if key in lhs else add
            for (b1, b2), arr in alg.delta_mono(k2).items():
                key = (k1, b1, b2)
                add = ds * arr
                rhs[key] = rhs[key] + add if key in rhs else add
        residuals = []
        for key in set(lhs) | set(rhs):
            zero = DSeries(alg.n, alg.dw)
            diff = lhs.get(key, zero) - rhs.get(key, zero)
            if max(m for (_, m, _) in ((key[0]), (key[1]), (key[2]))) <= dx:
                residuals.append(diff.max_abs(dw))
        res[f"coassoc_{nm}"] = worst_residual(residuals)

    # S reverses products on all ordered generator pairs
    residuals = []
    for nm1 in ("X01", "X02", "X12"):
        for nm2 in ("X01", "X02", "X12"):
            lhs_el = alg.antipode(X[nm1] * X[nm2])
            rhs_el = alg.antipode_gen(nm2) * alg.antipode_gen(nm1)
            residuals.append((lhs_el - rhs_el).max_abs(w_cap=dw, x_cap=dx))
    res["antihomomorphism"] = worst_residual(residuals)

    total = worst_residual(res.values())
    return {
        "checks": res,
        "residual": total,
        "truncation": (dw, dx),
        "x02_truncated": alg.dropped > 0,
        "pass": total <= 1e-9,
    }


# ---------------------------------------------------------------------------
# Duality isomorphism
# ---------------------------------------------------------------------------


def verify_duality_isomorphism(sig: ParameterSignature, dw: int = 8) -> dict:
    """Substitute the exponential realization of the generating functionals
    into their three commutation relations (with the deformation parameters
    identified by v = -i w) and normal-order; the residual vanishes modulo
    truncation.  `x02_truncated` tells whether some product lost terms to
    the X02-degree cap of the working algebra (dw + 5)."""
    alg = SowAlgebra(sig, dw=dw + 2, dx=dw + 5)
    kappa = alg.kappa
    d = alg.dw
    S1 = alg.even_series(half=False, odd=True)  # sin(Jw)/(Jw)
    C1 = alg.even_series(half=False, odd=False)  # cos(Jw)
    S2 = alg.even_series(half=True, odd=True)  # sin(Jw/2)/(Jw/2)
    C2 = alg.even_series(half=True, odd=False)  # cos(Jw/2)
    T2 = ser_div(S2, C2, d)  # tan(Jw/2)/(Jw/2)
    w_shift = np.zeros(d + 1, dtype=complex)
    if d >= 1:
        w_shift[1] = 1.0

    # the scale factor of the off-diagonal functionals: (J monomial) x series
    e_ser = ser_mul(math.sqrt(2.0) * w_shift, ser_sqrt(S1, d), d)
    J = sig.jfactor(1, N)
    JE = DSeries(alg.n, d, {m: c * e_ser for m, c in J.coeffs.items()})

    half = alg.exp_x02(-0.5)
    l11 = alg.exp_x02(-1.0)
    l12 = (alg.gen("X01") * half) * JE
    lt12 = (alg.gen("X12") * half) * JE

    # substituted coefficient kernels (v = -i w)
    ch = C1
    K1 = -1j * ser_mul(w_shift, S1, d)  # (1/J) sinh(Jv)
    half_s = kappa * ser_mul(w_shift, S2, d)  # 2i J sinh(Jv/2)
    half_t = ser_mul(0.5 * w_shift, T2, d)  # -i * (1/J) tanh(Jv/2) = -i(w/2)T
    j1sq, j2sq = alg.j1sq, alg.j2sq

    r1 = (l11 * l12) * ch - l12 * l11 - (l11 * lt12) * (1j * j1sq) * K1
    r2 = (l11 * lt12) * ch - lt12 * l11 + (l11 * l12) * (1j * j2sq) * K1
    one = alg.one()
    r3 = (
        l12 * lt12
        - lt12 * l12
        + (one - l11 * l11) * half_s
        + ((l12 * l12) * j2sq + (lt12 * lt12) * j1sq) * half_t
    )
    res = {
        "relation1": r1.max_abs(w_cap=dw, x_cap=dw),
        "relation2": r2.max_abs(w_cap=dw, x_cap=dw),
        "relation3": r3.max_abs(w_cap=dw, x_cap=dw),
    }
    worst = worst_residual(res.values())
    return {
        "relations": res,
        "residual": worst,
        "truncation": dw,
        "x02_truncated": alg.dropped > 0,
        "pass": worst <= 1e-8,
    }

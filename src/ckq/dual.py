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
from itertools import chain, product, repeat
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dmat import DMatrix
from .frt import GEN_NAMES, cmatrix, flip_matrix, generator_matrix, legs, mono_eval, multiplier, rmatrix3
from .pimenov import (
    AnalyticKernel,
    ParameterSignature,
    PimenovElement,
    cosh_j,
    even_j,
    jfactor_square,
    nilpotent_taylor,
    sinhc_j,
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
        entry of the generator matrix: the window of rows 3(i-1)..3i-1 and
        columns 3(j-1)..3j-1 of each block of the 9x9 table.  All-zero
        windows are dropped; the masks come in the order that assembling
        the entries one by one gives (`DMatrix.from_entries`): by the first
        nonzero entry in row-major order, then by the block order of R.
        """
        R = self.rp if eps == "+" else self.rm
        r, c = 3 * (i - 1), 3 * (j - 1)
        windows = []
        for mask, block in R.blocks.items():
            win = block[r : r + 3, c : c + 3].copy()
            win[win == 0] = 0  # a zero entry is a +0j there, whatever its signs here
            nonzero = np.flatnonzero(win)
            if nonzero.size:
                windows.append((nonzero[0], mask, win))
        windows.sort(key=lambda t: t[0])  # stable: ties keep the block order
        return DMatrix(self.sig.n_slots, 3, {mask: win for _, mask, win in windows})


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
    return even_j(kappa, -(v**3) / 2.0, lambda s: (2 * cmath.sinh(s * v) - cmath.sinh(2 * s * v)) / (2 * s**3))


def _h3_kernel(kappa: complex, v: complex) -> complex:
    """(cosh(3Jv/2) - cosh(Jv/2)) / (2 J^2) as a scalar."""
    v = complex(v)
    return even_j(kappa, v**2, lambda s: (cmath.cosh(1.5 * s * v) - cmath.cosh(0.5 * s * v)) / (2 * kappa))


def _h4_kernel(kappa: complex, v: complex) -> complex:
    """(cosh(2Jv) - 1) / (2 J^2) as a scalar."""
    v = complex(v)
    return even_j(kappa, v**2, lambda s: (cmath.cosh(2 * s * v) - 1) / (2 * kappa))


def pairing_table(sig: ParameterSignature, v: complex) -> dict[tuple[str, str], tuple]:
    """Reference pairings (atom, generator) -> (coeff, e1, e2, kernel value).

    The value is coeff * j1^e1 * j2^e2 * kernel.  The two corner entries
    are stored at the magnitude derived from the exchange matrix, which is
    half the magnitude quoted in the published table (see
    verify_pairing_table's flagged entries).
    """
    kappa = jfactor_square(multiplier(sig))
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


def _predicted_slice(sig: ParameterSignature, v: complex, slot: tuple) -> DMatrix:
    """The 3x3 value matrix of one triangular functional, assembled from the
    pairing table: its pairing with each generator, placed where the
    generator sits in the generator matrix."""
    n = sig.n_slots
    spec = _SLOT_ATOMS.get(slot)
    if spec is None:
        return DMatrix.zeros(n, 3)
    if spec == "unit":
        return DMatrix.identity(n, 3)
    table = pairing_table(sig, v)
    zero = PimenovElement.scalar(n, 0.0)
    pairings: dict[str, PimenovElement] = {}
    for atom, (c0, e1, e2) in spec:
        for (a, comp), (c, f1, f2, kern) in table.items():
            if a != atom:
                continue
            g1, g2 = e1 + f1, e2 + f2
            if g1 < 0 or g2 < 0:
                raise ValueError(f"negative exponent assembling slot {slot}")
            pairings[comp] = pairings.get(comp, zero) + mono_eval(sig, (c0 * c * kern, g1, g2))
    return DMatrix.from_entries(n, generator_matrix(sig, lambda g: pairings.get(GEN_NAMES[g], zero)))


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
                pred = _predicted_slice(sig, v, (eps, i, j))
                slot_res[f"{eps}{i}{j}"] = (pred - f.slice(i, j, eps)).max_abs()
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
    # the 18 windows, cut once: S[eps, i, j] is f.slice(i + 1, j + 1, eps)
    S = {(eps, i, j): f.slice(i + 1, j + 1, eps) for eps in "+-" for i in range(3) for j in range(3)}
    # the 12 leg of R+ and, per sign, L1 and L2: the 13 and 23 legs of R+-
    L = {"+": legs(f.rp), "-": legs(f.rm)}
    R12 = L["+"][0]
    res = {}
    for e1, e2 in (("+", "+"), ("-", "-"), ("+", "-")):
        L1, L2 = L[e1][1], L[e2][2]
        res[f"exchange{e1}{e2}"] = (R12 @ L1 @ L2 - L2 @ L1 @ R12).max_abs()

    C = cmatrix(sig, v)
    Ct = C.mat.T
    Cti = C.mat.inv().T
    for label, M in (("metric", Ct), ("metric_inv", Cti)):
        entries = {(k, l): M.entry(k, l) for k in range(3) for l in range(3)}
        terms = [(k, l, coeff) for (k, l), coeff in entries.items() if not coeff.is_zero()]
        for eps in ("+", "-"):
            residuals = []
            for i in range(3):
                for j in range(3):
                    acc = DMatrix.zeros(n, 3)
                    for k, l, coeff in terms:
                        acc = acc + (S[eps, i, k] @ S[eps, j, l]) * coeff
                    target = I3 * entries[i, j]
                    residuals.append((acc - target).max_abs())
            res[f"{label}{eps}"] = worst_residual(residuals)
    res["diag_inverse"] = (S["+", 0, 0] @ S["-", 0, 0] - I3).max_abs()
    worst = worst_residual(res.values())
    return {"identities": res, "residual": worst, "pass": worst <= 1e-9}


def verify_dual_commutators(sig: ParameterSignature, v: complex) -> dict:
    """The three commutation relations of the generating functionals,
    evaluated in the fundamental representation."""
    f = build_functionals(sig, v)
    n = sig.n_slots
    atoms = atom_matrices(f)
    a, b, bt = atoms["l11"], atoms["l12"], atoms["lt12"]
    kappa = jfactor_square(multiplier(sig))
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


# 1/x and sqrt(x) by their derivatives, for w-series only: not in pimenov.KERNELS
_RECIP = AnalyticKernel("1/x", lambda r, a0: (-1) ** r * math.factorial(r) / a0 ** (r + 1))
_SQRT = AnalyticKernel("sqrt", lambda r, a0: math.prod(0.5 - k for k in range(r)) * cmath.sqrt(a0) / a0**r)


def ser_lift(f: AnalyticKernel, a: np.ndarray, d: int) -> np.ndarray:
    """f of a w-series truncated at order d: its Taylor sum at the lead a[0]."""
    a = np.pad(a.astype(complex), (0, max(0, d + 1 - len(a))))[: d + 1]
    one = np.eye(1, d + 1, dtype=complex)[0]
    nil = {0: a - a[0] * one}
    return nilpotent_taylor(f.derivs(complex(a[0]), d), nil, {0: one}, lambda x, y: ser_mul(x, y, d))[0]


def _batch_ser_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise truncated w-series products of two (rows, d + 1) arrays.

    The loop runs over the w-orders where the sparser operand has a nonzero
    row; the other orders add nothing."""
    d1 = a.shape[1]
    nz_a, nz_b = np.flatnonzero(a.any(axis=0)), np.flatnonzero(b.any(axis=0))
    if len(nz_b) < len(nz_a):
        a, b, nz_a = b, a, nz_b
    out = np.zeros(a.shape, dtype=complex)
    for k in nz_a:
        out[:, k:] += a[:, k, None] * b[:, : d1 - k]
    return out


# From this many rows on, batched products beat a ser_mul per row.
_BATCH_ROWS = 16
_CHUNK_ROWS = 1024


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
        self.dropped = False  # set once a product loses a term to the X02-degree cap

    # -- element constructors -------------------------------------------

    def zero(self) -> "SowElement":
        return SowElement(self, {})

    def one(self) -> "SowElement":
        return SowElement(self, self._unit_map((0, 0, 0)))

    def gen(self, name: str) -> "SowElement":
        key = {"X01": (1, 0, 0), "X02": (0, 1, 0), "X12": (0, 0, 1)}[name]
        return SowElement(self, self._unit_map(key))

    def exp_x02(self, c: complex) -> "SowElement":
        """e^{c * w * X02} as a normal-ordered element."""
        return SowElement(
            self, {(0, k, 0): self.w_mono(k, c**k / math.factorial(k)) for k in range(min(self.dw, self.dx) + 1)}
        )

    def word(self, names: Sequence[str]) -> "SowElement":
        out = self.one()
        for nm in names:
            out = out * self.gen(nm)
        return out

    # -- scalar series ----------------------------------------------------

    def w_mono(self, k: int, c: complex) -> np.ndarray:
        """The w-series c * w^k (k <= dw)."""
        arr = np.zeros(self.dw + 1, dtype=complex)
        arr[k] = c
        return arr

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
            out.append((p, self.w_mono(2 * k, 1.0 / math.factorial(p))))
        return out

    # -- normal ordering ---------------------------------------------------

    def _unit_map(self, key):
        """{key: the w-series 1}, for a monomial or a tensor-square key."""
        return {key: self.w_mono(0, 1.0)}

    def _sum(self, heads: tuple[list, ...], index: Sequence[int], keys: Sequence,
             series: Sequence[Sequence[np.ndarray]], start: Mapping = {}) -> dict:
        """Sum over rows r of head index[r] times series[0][r], series[1][r], ...
        in turn, into keys[r]: after the entries of `start`, in row order.  Keys
        whose sum is zero are dropped.

        `heads` holds one list of w-series, or two lists of the same length
        whose entries at p multiply to head p; rows may share a head.  Below
        _BATCH_ROWS rows every product is one ser_mul.  From there on the heads
        are one _batch_ser_mul over (heads, dw + 1) arrays, each series column
        one more over (rows, dw + 1) arrays, and np.add.at adds the products in
        row order, in chunks of rows, which bounds the temporaries.  The two
        paths agree within rounding (np.convolve sums in its own order).
        """
        dw = self.dw
        if len(keys) < _BATCH_ROWS:
            if len(heads) == 2:
                heads = ([ser_mul(x, y, dw) for x, y in zip(*heads)],)
            out = dict(start)
            for key, p, *factors in zip(keys, index, *series):
                prod = heads[0][p]
                for f in factors:
                    prod = ser_mul(prod, f, dw)
                out[key] = out[key] + prod if key in out else prod
            return {k: c for k, c in out.items() if np.count_nonzero(c)}
        head = np.array(heads[0])
        if len(heads) == 2:
            head = _batch_ser_mul(head, np.array(heads[1]))
        index = np.asarray(index)
        slot = {k: q for q, k in enumerate(dict.fromkeys([*start, *keys]))}
        slots = list(map(slot.__getitem__, keys))
        acc = np.zeros((len(slot), dw + 1), dtype=complex)
        if start:
            acc[: len(start)] = list(start.values())
        for begin in range(0, len(keys), _CHUNK_ROWS):
            rows = slice(begin, begin + _CHUNK_ROWS)
            prod = head[index[rows]]
            for column in series:
                prod = _batch_ser_mul(prod, np.array(column[rows]))
            np.add.at(acc, slots[rows], prod)
        nonzero = acc.any(axis=1).tolist()
        return {k: acc[q] for (k, q), nz in zip(slot.items(), nonzero) if nz}

    def _combine(self, state: Mapping, image: Callable[..., Mapping], start: Mapping = {}) -> dict:
        """Linear extension: the sum of coefficient * image(key)[k] over state, in
        the order of state, then of each image, after the entries of `start`;
        keys whose sum is zero are dropped."""
        index: list[int] = []
        keys: list = []
        images: list[np.ndarray] = []
        for p, key in enumerate(state):
            img = image(key)
            index += [p] * len(img)
            keys += img
            images += img.values()
        return self._sum((list(state.values()),), index, keys, [images], start)

    @staticmethod
    def _times_x12(state: dict[Key, np.ndarray]) -> dict[Key, np.ndarray]:
        """A normal-ordered element times X12: only the X12 exponent rises."""
        return {(a, m, b + 1): c for (a, m, b), c in state.items()}

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
            out = self._combine(
                dict(self.sinh_over_w()),
                lambda p: self.mono_mul((a, m, b - 1), (0, p, 0)),
                start=self._times_x12(self._push01((a, m, b - 1))),
            )
        else:
            # X02^m X01 = (X02^{m-1} X01) X02 - j1^2 X02^{m-1} X12
            out = self._combine(self._push01((a, m - 1, 0)), self._push02)
            if self.j1sq != 0:
                k3 = (a, m - 1, 1)
                add = self.w_mono(0, -self.j1sq)
                out[k3] = out[k3] + add if k3 in out else add
            out = {k: c for k, c in out.items() if np.count_nonzero(c)}
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
                self.dropped = True
            else:
                out = self._unit_map((a, m + 1, 0))
        else:
            # ... X12^b X02 = (... X12^{b-1} X02) X12 - j2^2 ... X12^{b-1} X01
            out = self._times_x12(self._push02((a, m, b - 1)))
            if self.j2sq != 0:
                for k2, c in self._push01((a, m, b - 1)).items():
                    add = c * (-self.j2sq)
                    out[k2] = out[k2] + add if k2 in out else add
            out = {k: c for k, c in out.items() if np.count_nonzero(c)}
        self._push02_memo[key] = out
        return out

    def mono_mul(self, k1: Key, k2: Key) -> dict[Key, np.ndarray]:
        """Normal ordering of k1 * k2: push X01^a2 then X02^m2 into k1, append X12^b2."""
        hit = self._mono_memo.get((k1, k2))
        if hit is not None:
            return hit
        a2, m2, b2 = k2
        if b2:
            state = {(a, m, b + b2): c for (a, m, b), c in self.mono_mul(k1, (a2, m2, 0)).items()}
        elif a2 or m2:
            self._push_products([(k1, k2)])
            return self._mono_memo[(k1, k2)]
        else:
            state = self._unit_map(k1)
        self._mono_memo[(k1, k2)] = state
        return state

    def _push_products(self, pairs: Iterable[tuple[Key, Key]]) -> None:
        """Memoize mono_mul(k1, (a2, m2, 0)) for the pairs (k1, k2), one pushed
        letter per step.  Each product extends the memoized one whose prefix of
        k2 is one letter shorter, so X02^m costs m pushes, not m^2, and the
        products of all pairs at the same step are one batched sum."""
        pending: dict[tuple[Key, Key], int] = {}  # product -> its step
        for k1, (a, m, _) in pairs:
            while a or m:
                pair = (k1, (a, m, 0))
                if pair in self._mono_memo or pair in pending:
                    break
                pending[pair] = a + m
                a, m = (a, m - 1) if m else (a - 1, 0)
        steps: dict[int, list[tuple[Key, Key]]] = {}
        for pair, step in pending.items():
            steps.setdefault(step, []).append(pair)
        for step in sorted(steps):
            todo = [pair for pair in steps[step] if pair not in self._mono_memo]
            heads: list[np.ndarray] = []
            index: list[int] = []
            keys: list[tuple[int, Key]] = []
            images: list[np.ndarray] = []
            for e, (k1, (a, m, _)) in enumerate(todo):
                prefix, push = ((a, m - 1, 0), self._push02) if m else ((a - 1, 0, 0), self._push01)
                for key, coeff in self.mono_mul(k1, prefix).items():
                    img = push(key)
                    index += [len(heads)] * len(img)
                    heads.append(coeff)
                    keys += zip(repeat(e), img)
                    images += img.values()
            states: list[dict[Key, np.ndarray]] = [{} for _ in todo]
            for (e, k), c in self._sum((heads,), index, keys, [images]).items():
                states[e][k] = c
            for pair, state in zip(todo, states):
                # a push may have memoized the product already
                self._mono_memo.setdefault(pair, state)

    # -- Hopf data ---------------------------------------------------------

    def delta_gen(self, name: str) -> "SowTensor2":
        if name == "X02":
            x02_one, one_x02 = ((0, 1, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0))
            return SowTensor2(self, {**self._unit_map(x02_one), **self._unit_map(one_x02)})
        gkey = {"X01": (1, 0, 0), "X12": (0, 0, 1)}[name]
        terms: dict[tuple[Key, Key], np.ndarray] = {}
        for k in range(min(self.dw, self.dx) + 1):
            terms[((0, k, 0), gkey)] = self.w_mono(k, (-0.5) ** k / math.factorial(k))
            terms[(gkey, (0, k, 0))] = self.w_mono(k, 0.5**k / math.factorial(k))
        return SowTensor2(self, terms)

    def delta_mono(self, key: Key) -> dict[tuple[Key, Key], np.ndarray]:
        """Delta of the monomial X01^a X02^m X12^b: Delta of the monomial one
        letter shorter (memoized) times Delta of its last letter."""
        hit = self._delta_memo.get(key)
        if hit is None:
            a, m, b = key
            if key == (0, 0, 0):
                hit = self._unit_map((key, key))
            else:
                if b:
                    prefix, last = (a, m, b - 1), "X12"
                elif m:
                    prefix, last = (a, m - 1, 0), "X02"
                else:
                    prefix, last = (a - 1, 0, 0), "X01"
                hit = (SowTensor2(self, self.delta_mono(prefix)) * self.delta_gen(last)).terms
            self._delta_memo[key] = hit
        return hit

    def delta(self, x: "SowElement") -> "SowTensor2":
        return SowTensor2(self, self._combine(x.terms, self.delta_mono))

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
        """S of the monomial X01^a X02^m X12^b, an anti-homomorphism: S of the
        monomial without its first letter (memoized) times S of that letter."""
        hit = self._antipode_memo.get(key)
        if hit is None:
            a, m, b = key
            if key == (0, 0, 0):
                hit = self.one()
            else:
                if a:
                    rest, first = (a - 1, m, b), "X01"
                elif m:
                    rest, first = (0, m - 1, b), "X02"
                else:
                    rest, first = (0, 0, b - 1), "X12"
                hit = self.antipode_mono(rest) * self.antipode_gen(first)
            self._antipode_memo[key] = hit
        return hit

    def antipode(self, x: "SowElement") -> "SowElement":
        return SowElement(self, self._combine(x.terms, lambda key: self.antipode_mono(key).terms))


class SowElement:
    """Normal-ordered element: monomial key -> w-series coefficient.

    A coefficient is a complex array of length dw + 1, the type that
    mono_mul and the letter pushes return.  The arithmetic returns
    `type(self)`, so the tensor square reuses it: a subclass only says how
    two keys multiply and how a key's X02 degree is read.
    """

    __slots__ = ("alg", "terms")
    _FACTORS = 1  # w-series per contribution of a monomial product

    def __init__(self, alg: SowAlgebra, terms: Mapping[Key, np.ndarray]):
        self.alg = alg
        self.terms = {k: c for k, c in terms.items() if np.count_nonzero(c)}

    def __add__(self, other: "SowElement") -> "SowElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.alg, out)

    def __sub__(self, other: "SowElement") -> "SowElement":
        return self + other * (-1.0)

    def __mul__(self, other) -> "SowElement":
        if type(other) is type(self):
            return type(self)(self.alg, _products_sum([(self, other)]))
        if isinstance(other, np.ndarray):  # a w-series
            dw = self.alg.dw
            return type(self)(self.alg, {k: ser_mul(c, other, dw) for k, c in self.terms.items()})
        return type(self)(self.alg, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__
    __array_ufunc__ = None  # a w-series on the left defers to __rmul__

    @staticmethod
    def _monomial_pairs(x: Mapping, y: Mapping) -> Iterable[tuple[Key, Key]]:
        """The monomial products that the product of terms x and y reads."""
        return product(x, y)

    def _expand(self, k1: Key, k2: Key) -> tuple[list, list[list]]:
        """The monomial product k1 * k2: its keys and its w-series factors, one
        list per factor."""
        prod = self.alg.mono_mul(k1, k2)
        return list(prod), [list(prod.values())]

    @staticmethod
    def _x02_degree(key: Key) -> int:
        return key[1]

    def max_abs(self, w_cap: int | None = None, x_cap: int | None = None) -> float:
        cut = None if w_cap is None else w_cap + 1
        return worst_residual(
            np.abs(c[:cut]).max()
            for key, c in self.terms.items()
            if x_cap is None or self._x02_degree(key) <= x_cap
        )


class SowTensor2(SowElement):
    """Element of the tensor square: (left key, right key) -> w-series coefficient."""

    __slots__ = ()
    _FACTORS = 2

    @staticmethod
    def _monomial_pairs(x: Mapping, y: Mapping) -> Iterable[tuple[Key, Key]]:
        def bank(i):
            return product(dict.fromkeys(k[i] for k in x), dict.fromkeys(k[i] for k in y))

        return chain(bank(0), bank(1))

    def _expand(self, k1: tuple[Key, Key], k2: tuple[Key, Key]):
        # the left bank's series is applied before the right bank's
        left, right = self.alg.mono_mul(k1[0], k2[0]), self.alg.mono_mul(k1[1], k2[1])
        keys = [(kl, kr) for kl in left for kr in right]
        return keys, [[al for al in left.values() for _ in right], [*right.values()] * len(left)]

    @staticmethod
    def _x02_degree(key: tuple[Key, Key]) -> int:
        return max(key[0][1], key[1][1])


def _products_sum(factors: Sequence[tuple[SowElement, SowElement]]) -> dict:
    """The terms of the sum of x * y over the factor pairs, as one batched sum:
    per pair, per term pair, each contribution of the monomial product, with
    the two coefficients multiplied before the contribution's series."""
    alg = factors[0][0].alg
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    index: list[int] = []
    keys: list = []
    series: list[list[np.ndarray]] = [[] for _ in range(factors[0][0]._FACTORS)]
    alg._push_products(chain.from_iterable(x._monomial_pairs(x.terms, y.terms) for x, y in factors))
    for x, y in factors:
        for (k1, c1), (k2, c2) in product(x.terms.items(), y.terms.items()):
            k3, columns = x._expand(k1, k2)
            if k3:
                index += [len(left)] * len(k3)
                keys += k3
                left.append(c1)
                right.append(c2)
                for s, column in zip(series, columns):
                    s += column
    return alg._sum((left, right), index, keys, series)


# ---------------------------------------------------------------------------
# Hopf-axiom verification for the deformed rotation algebra
# ---------------------------------------------------------------------------


def verify_sow_hopf(sig: ParameterSignature, dw: int = 8) -> dict:
    """Coproduct compatibility, antipode axiom, coassociativity and the
    antipode anti-homomorphism property, all modulo truncation.

    The residuals read w-orders and X02 degrees up to dw.  `x02_truncated`
    tells whether some product lost terms to the X02-degree cap of the
    working algebra (dw + 3).
    """
    alg = SowAlgebra(sig, dw=dw + 2, dx=dw + 3)
    res: dict[str, float] = {}

    # Delta is an algebra map on the three defining relations
    X = {nm: alg.gen(nm) for nm in ("X01", "X02", "X12")}
    D = {nm: alg.delta_gen(nm) for nm in ("X01", "X02", "X12")}
    sinh_el = SowElement(alg, {(0, p, 0): arr for p, arr in alg.sinh_over_w()})
    d_sinh = alg.delta(sinh_el)
    pairs = [
        ("delta_rel1", D["X01"] * D["X02"] - D["X02"] * D["X01"] - D["X12"] * alg.j1sq),
        ("delta_rel2", D["X02"] * D["X12"] - D["X12"] * D["X02"] - D["X01"] * alg.j2sq),
        ("delta_rel3", D["X12"] * D["X01"] - D["X01"] * D["X12"] - d_sinh),
    ]
    for label, t in pairs:
        res[label] = t.max_abs(w_cap=dw, x_cap=dw)

    # antipode axiom m(S x id)Delta = counit = m(id x S)Delta on generators
    for nm in ("X01", "X02", "X12"):
        d = D[nm].terms.items()
        # each side is one batched sum over the coproduct's terms
        sides = (
            [(alg.antipode_mono(k1), SowElement(alg, {k2: c})) for (k1, k2), c in d],
            [(SowElement(alg, {k1: c}), alg.antipode_mono(k2)) for (k1, k2), c in d],
        )
        acc1, acc2 = (SowElement(alg, _products_sum(side)) for side in sides)
        res[f"antipode_{nm}"] = worst_residual(
            (acc1.max_abs(w_cap=dw, x_cap=dw), acc2.max_abs(w_cap=dw, x_cap=dw))
        )

    # coassociativity on generators
    for nm in ("X01", "X02", "X12"):
        # (Delta x id)Delta and (id x Delta)Delta; a dropped zero sum compares as zero
        lhs = alg._combine(D[nm].terms, lambda k: {(*p, k[1]): c for p, c in alg.delta_mono(k[0]).items()})
        rhs = alg._combine(D[nm].terms, lambda k: {(k[0], *p): c for p, c in alg.delta_mono(k[1]).items()})
        residuals = []
        zero = np.zeros(alg.dw + 1, dtype=complex)
        for key in set(lhs) | set(rhs):
            diff = lhs.get(key, zero) - rhs.get(key, zero)
            if max(m for _, m, _ in key) <= dw:
                residuals.append(np.abs(diff[: dw + 1]).max())
        res[f"coassoc_{nm}"] = worst_residual(residuals)

    # S reverses products on all ordered generator pairs
    residuals = []
    for nm1 in ("X01", "X02", "X12"):
        for nm2 in ("X01", "X02", "X12"):
            lhs_el = alg.antipode(X[nm1] * X[nm2])
            rhs_el = alg.antipode_gen(nm2) * alg.antipode_gen(nm1)
            residuals.append((lhs_el - rhs_el).max_abs(w_cap=dw, x_cap=dw))
    res["antihomomorphism"] = worst_residual(residuals)

    total = worst_residual(res.values())
    return {
        "checks": res,
        "residual": total,
        "truncation": (dw, dw),
        "x02_truncated": alg.dropped,
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
    the X02-degree cap of the working algebra (dw + 5).

    The off-diagonal functionals carry the J-factor J = j1 j2 of the
    signature, a single monomial with coefficient 1, and are built here
    without it.  Relations 1 and 2 are linear in J, so their residuals are
    those of the J-free terms.  The J-quadratic terms of relation 3 take
    J^2 as the scalar kappa, which is 0 at every contracted signature."""
    alg = SowAlgebra(sig, dw=dw + 2, dx=dw + 5)
    kappa = alg.kappa
    d = alg.dw
    S1 = alg.even_series(half=False, odd=True)  # sin(Jw)/(Jw)
    C1 = alg.even_series(half=False, odd=False)  # cos(Jw)
    S2 = alg.even_series(half=True, odd=True)  # sin(Jw/2)/(Jw/2)
    C2 = alg.even_series(half=True, odd=False)  # cos(Jw/2)
    T2 = ser_mul(S2, ser_lift(_RECIP, C2, d), d)  # tan(Jw/2)/(Jw/2)
    w_shift = alg.w_mono(1, 1.0)

    # the scale factor of the off-diagonal functionals, J left out
    e_ser = ser_mul(math.sqrt(2.0) * w_shift, ser_lift(_SQRT, S1, d), d)

    half = alg.exp_x02(-0.5)
    l11 = alg.exp_x02(-1.0)
    l12 = (alg.gen("X01") * half) * e_ser
    lt12 = (alg.gen("X12") * half) * e_ser

    # substituted coefficient kernels (v = -i w)
    ch = C1
    K1 = -1j * ser_mul(w_shift, S1, d)  # (1/J) sinh(Jv)
    half_s = kappa * ser_mul(w_shift, S2, d)  # 2i J sinh(Jv/2)
    half_t = ser_mul(0.5 * w_shift, T2, d)  # -i * (1/J) tanh(Jv/2) = -i(w/2)T
    j1sq, j2sq = alg.j1sq, alg.j2sq

    l11_l12, l11_lt12 = l11 * l12, l11 * lt12
    r1 = l11_l12 * ch - l12 * l11 - l11_lt12 * (1j * j1sq) * K1
    r2 = l11_lt12 * ch - lt12 * l11 + l11_l12 * (1j * j2sq) * K1
    one = alg.one()
    r3 = (
        (l12 * lt12 - lt12 * l12) * kappa
        + (one - l11 * l11) * half_s
        + ((l12 * l12) * j2sq + (lt12 * lt12) * j1sq) * kappa * half_t
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
        "x02_truncated": alg.dropped,
        "pass": worst <= 1e-8,
    }

"""Classical orthogonal Cayley-Klein groups and 1-d constant-curvature geometry.

Group elements are "special" N x N matrices over D_{N-1}: the (k, p) entry is
the running parameter product J~_{kp} times a real number, and they act on
scaled coordinates x = (x_1, J_{12} x_2, ..., J_{1N} x_N).  In that basis
j-orthogonality A A^t = A^t A = I holds exactly for every signature.

`classical_action` converts a special matrix to the ordinary real matrix on
unscaled coordinates (the familiar rotation / Galilei / Lorentz pictures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dmat import DMatrix
from .pimenov import (
    ParameterSignature,
    PimenovElement,
    Scalar,
    jfactor_square,
    scaled_trig,
    worst_residual,
)

CARTESIAN = "cartesian"
SYMPLECTIC = "symplectic"

DET_SIZE_CAP = 6


class PoleEncountered(ArithmeticError):
    """Translation hit the antipodal/ideal point (denominator vanished)."""


@dataclass
class CKMatrix:
    mat: DMatrix
    sig: ParameterSignature
    basis: str = CARTESIAN

    @property
    def size(self) -> int:
        return self.mat.size

    def entry(self, i: int, j: int) -> PimenovElement:
        return self.mat.entry(i, j)

    def __matmul__(self, other: "CKMatrix") -> "CKMatrix":
        if self.basis != other.basis or self.sig != other.sig:
            raise ValueError("basis/signature mismatch")
        return CKMatrix(self.mat @ other.mat, self.sig, self.basis)


@dataclass
class CKVector:
    components: list[PimenovElement]
    sig: ParameterSignature
    basis: str = CARTESIAN

    @property
    def size(self) -> int:
        return len(self.components)


def elementary_rotation(sig: ParameterSignature, mu: int, nu: int, phi: Scalar) -> CKMatrix:
    """Rotation in the (mu, nu) coordinate plane (1-based, mu < nu).

    Diagonal carries cos(J*phi) at the two plane slots, the off-diagonal
    carries -sin(J*phi) / +sin(J*phi) with J = J_{mu,nu}; sin(J*phi) is
    J times an even series, so contracted signatures stay exact.
    """
    N = sig.dim
    if not (1 <= mu < nu <= N):
        raise ValueError(f"plane indices must satisfy 1 <= mu < nu <= {N}")
    j = sig.jfactor(mu, nu)
    sinj, _, cosj = scaled_trig(j, phi)
    n = sig.n_slots
    entries = [
        [PimenovElement.scalar(n, 1.0 if i == k else 0.0) for k in range(N)]
        for i in range(N)
    ]
    entries[mu - 1][mu - 1] = PimenovElement.scalar(n, cosj)
    entries[nu - 1][nu - 1] = PimenovElement.scalar(n, cosj)
    entries[mu - 1][nu - 1] = -sinj
    entries[nu - 1][mu - 1] = sinj
    return CKMatrix(DMatrix.from_entries(n, entries), sig, CARTESIAN)


def _special_entries(A: CKMatrix) -> Iterator[tuple[int, int, PimenovElement, PimenovElement, complex]]:
    """(k, p, entry, J~_{kp}, a) for every entry, where a is the entry's
    coefficient on the one monomial of J~ divided by J~'s coefficient there."""
    for k in range(A.size):
        for p in range(A.size):
            el = A.entry(k, p)
            j = A.sig.jfactor(min(k, p) + 1, max(k, p) + 1)
            (mask, c), = j.coeffs.items()
            yield k, p, el, j, el.coeffs.get(mask, 0j) / c


def classical_action(A: CKMatrix) -> np.ndarray:
    """The induced matrix on unscaled coordinates.

    Writing the (k, p) entry of the special matrix as J~_{kp} * a with a real,
    the unscaled action is a * J_{kp}^2 above the diagonal and plain a on or
    below it; J^2 is always a plain scalar, so the result is an ordinary
    (complex-free for real signatures) numpy matrix.
    """
    out = np.zeros((A.size, A.size), dtype=complex)
    for k, p, _, j, a in _special_entries(A):
        out[k, p] = a * jfactor_square(j) if k < p else a
    return out


def special_shape_residual(A: CKMatrix) -> float:
    """How far the matrix is from the special shape: every entry must be
    the appropriate J~ monomial times a real scalar."""
    return worst_residual((el - j * a.real).max_abs() for _, _, el, j, a in _special_entries(A))


def verify_j_orthogonality(A: CKMatrix) -> float:
    ident = DMatrix.identity(A.mat.n, A.size)
    r1 = (A.mat @ A.mat.T - ident).max_abs()
    r2 = (A.mat.T @ A.mat - ident).max_abs()
    return worst_residual((r1, r2))


def ck_det(A: CKMatrix) -> PimenovElement:
    """Exact Leibniz determinant over D (sizes up to 6)."""
    N = A.size
    if N > DET_SIZE_CAP:
        raise ValueError(f"determinant capped at size {DET_SIZE_CAP}")
    entries = [[A.entry(i, j) for j in range(N)] for i in range(N)]
    total = PimenovElement.scalar(A.mat.n, 0.0)
    for perm in permutations(range(N)):
        sign = _perm_sign(perm)
        prod = PimenovElement.scalar(A.mat.n, float(sign))
        for i in range(N):
            prod = prod * entries[i][perm[i]]
            if prod.is_zero():
                break
        total = total + prod
    return total


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def apply_matrix(A: CKMatrix, x: CKVector) -> CKVector:
    if A.basis != x.basis:
        raise ValueError("basis mismatch")
    comps = []
    for i in range(A.size):
        acc = PimenovElement.scalar(A.mat.n, 0.0)
        for k in range(A.size):
            acc = acc + A.entry(i, k) * x.components[k]
        comps.append(acc)
    return CKVector(comps, x.sig, x.basis)


def c0_matrix(N: int) -> np.ndarray:
    return np.eye(N, dtype=complex)[::-1]


def quadratic_form(x: CKVector) -> PimenovElement:
    n = x.sig.n_slots
    total = PimenovElement.scalar(n, 0.0)
    if x.basis == CARTESIAN:
        for c in x.components:
            total = total + c * c
    else:
        N = x.size
        for k in range(N):
            total = total + x.components[k] * x.components[N - 1 - k]
    return total


def symplectic_transform(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The change of basis D with D^t C0 D = I, and its inverse D^t C0."""
    if N < 2:
        raise ValueError("need N >= 2")
    m = N // 2
    ctil = np.eye(m)[::-1]
    D = np.zeros((N, N), dtype=complex)
    if N % 2 == 0:
        D[:m, :m] = np.eye(m)
        D[:m, m:] = 1j * ctil
        D[m:, :m] = ctil
        D[m:, m:] = -1j * np.eye(m)
    else:
        D[:m, :m] = np.eye(m)
        D[:m, m + 1:] = 1j * ctil
        D[m, m] = math.sqrt(2)
        D[m + 1:, :m] = ctil
        D[m + 1:, m + 1:] = -1j * np.eye(m)
    D /= math.sqrt(2)
    Dinv = D.T @ c0_matrix(N)
    if np.abs(D @ Dinv - np.eye(N)).max() > 1e-12:
        raise AssertionError("symplectic transform inverse check failed")
    return D, Dinv


def to_symplectic(A: CKMatrix) -> CKMatrix:
    """Similarity transform into the basis where the invariant form is C0."""
    if A.basis != CARTESIAN:
        raise ValueError("expected a Cartesian-basis matrix")
    D, Dinv = symplectic_transform(A.size)
    Dm = DMatrix.from_scalar(A.mat.n, D)
    Dmi = DMatrix.from_scalar(A.mat.n, Dinv)
    return CKMatrix(Dm @ A.mat @ Dmi, A.sig, SYMPLECTIC)


def symplectic_orthogonality_residual(B: CKMatrix) -> float:
    """Residual of B C0 B^t = B^t C0 B = C0."""
    C0 = DMatrix.from_scalar(B.mat.n, c0_matrix(B.size))
    r1 = (B.mat @ C0 @ B.mat.T - C0).max_abs()
    r2 = (B.mat.T @ C0 @ B.mat - C0).max_abs()
    return worst_residual((r1, r2))


def random_group_element(
    sig: ParameterSignature, factors: int, rng: np.random.Generator
) -> CKMatrix:
    """Product of random elementary plane rotations."""
    N = sig.dim
    out = None
    for _ in range(factors):
        mu = int(rng.integers(1, N))
        nu = int(rng.integers(mu + 1, N + 1))
        phi = float(rng.uniform(-1.5, 1.5))
        rot = elementary_rotation(sig, mu, nu, phi)
        out = rot if out is None else out @ rot
    assert out is not None
    return out


# ---------------------------------------------------------------------------
# 1-d constant-curvature geometry in the Beltrami coordinate
# ---------------------------------------------------------------------------


def translate(omega: int, xi: float, a: float) -> float:
    """xi' = (xi + a) / (1 - omega * a * xi); poles are reported, not inf."""
    if omega not in (1, 0, -1):
        raise ValueError("omega must be 1, 0 or -1")
    if omega == -1 and not (-1.0 < a < 1.0):
        raise ValueError("for omega = -1 the translation parameter must lie in (-1, 1)")
    denom = 1.0 - omega * a * xi
    if abs(denom) < 1e-14:
        raise PoleEncountered(f"translation pole at xi={xi}, a={a}")
    return (xi + a) / denom


def distance(omega: int, xi_a: float, xi_b: float) -> float:
    """Translation-invariant distance between two Beltrami coordinates."""
    if omega not in (1, 0, -1):
        raise ValueError("omega must be 1, 0 or -1")
    if omega == -1 and (abs(xi_a) >= 1.0 or abs(xi_b) >= 1.0):
        raise ValueError("distance undefined for ideal points (|xi| >= 1)")
    denom = 1.0 + omega * xi_a * xi_b
    if abs(denom) < 1e-14:
        raise PoleEncountered("antipodal pair")
    m = abs((xi_b - xi_a) / denom)
    if omega == 0:
        return m
    if omega == 1:
        return math.atan(m)
    return math.atanh(m)


def contraction_limit_demo(
    phi: float, x0: float, x1: float, eps_seq: Sequence[float]
) -> dict:
    """Compare the eps -> 0 rotation limit against exact nilpotent arithmetic.

    The exact (flag-space) answer is x0' = x0, x1' = x1 + phi*x0; the scaled
    rotation at finite eps deviates at second order, so halving eps divides
    the error by about four.
    """
    if any(e <= 0 for e in eps_seq) or any(
        b >= a for a, b in zip(eps_seq, eps_seq[1:])
    ):
        raise ValueError("eps values must be positive and decreasing")
    sig = ParameterSignature(["n"])
    rot = elementary_rotation(sig, 1, 2, phi)
    act = classical_action(rot).real
    exact0, exact1 = act @ np.array([x0, x1])
    rows = []
    for eps in eps_seq:
        y0 = x0 * math.cos(eps * phi) - eps * x1 * math.sin(eps * phi)
        y1 = x1 * math.cos(eps * phi) + x0 * math.sin(eps * phi) / eps
        rows.append(
            {
                "eps": eps,
                "err0": abs(y0 - exact0),
                "err1": abs(y1 - exact1),
            }
        )
    for prev, cur in zip(rows, rows[1:]):
        cur["ratio"] = (
            cur["err1"] / prev["err1"] if prev["err1"] > 0 else float("nan")
        )
    return {"exact": (exact0, exact1), "steps": rows}


_PLANES = {"euclid": ["1"], "galilei": ["n"], "minkowski": ["i"]}


def orbit_sample(
    plane: str, start: tuple[float, float], phis: Iterable[float]
) -> list[tuple[float, float, float]]:
    """Points (phi, x0, x1) on the group orbit of `start` in the given plane."""
    if plane not in _PLANES:
        raise ValueError(f"unknown plane {plane!r}")
    sig = ParameterSignature(_PLANES[plane])
    x0, x1 = start
    out = []
    for phi in phis:
        act = classical_action(elementary_rotation(sig, 1, 2, phi))
        y = act.real @ np.array([x0, x1])
        out.append((float(phi), float(y[0]), float(y[1])))
    return out


def plane_invariant(plane: str, x0: float, x1: float) -> float:
    if plane == "euclid":
        return x0 * x0 + x1 * x1
    if plane == "galilei":
        return x0 * x0
    if plane == "minkowski":
        return x0 * x0 - x1 * x1
    raise ValueError(f"unknown plane {plane!r}")

"""Dense matrices with entries in D_n (the nilpotent-coefficient algebra).

A matrix is stored as a map ``tag-mask -> complex numpy block``; the entry
(i, j) of the matrix is the element whose coefficient at `mask` is
``blocks[mask][i, j]``.  Products combine blocks of disjoint masks only
(`pimenov.tag_product`), so nilpotency is exact; the numeric work is plain
numpy matmuls per mask pair.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .pimenov import NotInvertible, PimenovElement, Scalar, _inverse, _support, tag_product, worst_residual


class DMatrix:
    __slots__ = ("n", "size", "blocks")

    def __init__(self, n: int, size: int, blocks: Mapping[int, np.ndarray] | None = None):
        self.n = n
        self.size = size
        clean: dict[int, np.ndarray] = {}
        if blocks:
            for mask, arr in blocks.items():
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != (size, size):
                    raise ValueError(f"block shape {arr.shape} != ({size},{size})")
                if np.any(arr):
                    clean[mask] = arr
        self.blocks = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, size: int) -> "DMatrix":
        return cls(n, size, {0: np.eye(size, dtype=complex)})

    @classmethod
    def zeros(cls, n: int, size: int) -> "DMatrix":
        return cls(n, size, {})

    @classmethod
    def from_scalar(cls, n: int, arr: np.ndarray) -> "DMatrix":
        arr = np.asarray(arr, dtype=complex)
        return cls(n, arr.shape[0], {0: arr})

    @classmethod
    def from_entries(cls, n: int, entries: Sequence[Sequence[PimenovElement]]) -> "DMatrix":
        size = len(entries)
        blocks: dict[int, np.ndarray] = {}
        for i, row in enumerate(entries):
            for j, el in enumerate(row):
                for mask, c in el.coeffs.items():
                    blocks.setdefault(mask, np.zeros((size, size), dtype=complex))[i, j] = c
        return cls(n, size, blocks)

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> PimenovElement:
        return PimenovElement(self.n, {m: b[i, j] for m, b in self.blocks.items()})

    def scalar_block(self) -> np.ndarray:
        return self.blocks.get(0, np.zeros((self.size, self.size), dtype=complex))

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "DMatrix") -> "DMatrix":
        out = {m: b.copy() for m, b in self.blocks.items()}
        for m, b in other.blocks.items():
            out[m] = out[m] + b if m in out else b
        return DMatrix(self.n, self.size, out)

    def __sub__(self, other: "DMatrix") -> "DMatrix":
        return self + (other * -1.0)

    def __mul__(self, c: "Scalar | PimenovElement") -> "DMatrix":
        if isinstance(c, PimenovElement):
            return DMatrix(self.n, self.size, tag_product(self.blocks, c.coeffs))
        return DMatrix(self.n, self.size, {m: b * c for m, b in self.blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "DMatrix") -> "DMatrix":
        if other.size != self.size or other.n != self.n:
            raise ValueError("shape/tag mismatch")
        return DMatrix(self.n, self.size, tag_product(self.blocks, other.blocks, np.matmul))

    @property
    def T(self) -> "DMatrix":
        return DMatrix(self.n, self.size, {m: b.T for m, b in self.blocks.items()})

    def kron(self, other: "DMatrix") -> "DMatrix":
        blocks = tag_product(self.blocks, other.blocks, np.kron)
        return DMatrix(self.n, self.size * other.size, blocks)

    def inv(self) -> "DMatrix":
        """Inverse when the scalar block is invertible, by `pimenov._inverse`
        over the blocks: the nilpotent rest is split off one tag at a time."""
        try:
            blocks = _inverse(self.blocks, _support(self.blocks), np.linalg.inv, np.matmul)
        except (KeyError, np.linalg.LinAlgError) as exc:  # no scalar block, or a singular one
            raise NotInvertible("scalar block is singular") from exc
        return DMatrix(self.n, self.size, blocks)

    # -- comparisons ----------------------------------------------------

    def max_abs(self) -> float:
        return worst_residual(np.abs(b).max() for b in self.blocks.values())

    def __repr__(self) -> str:
        return f"DMatrix(n={self.n}, size={self.size}, masks={sorted(self.blocks)})"

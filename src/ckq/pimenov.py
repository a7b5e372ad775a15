"""Arithmetic in the commutative algebra D_n of nilpotent units.

An element is a complex linear combination of square-free monomials in the
nilpotent tags i1..in (each tag squares to zero, tags commute).  Monomials
are encoded as bitmasks over the tags, so an element is just a sparse map
``bitmask -> complex``.  The nilpotent structure is tracked exactly: a
product term whose tag sets overlap is dropped outright, never rounded.
`tag_product` is the one place that rule lives; the matrices of `dmat`
multiply through it too.  For a dense right operand it walks, per mask of
the left one, only the disjoint masks, so two dense elements over n tags
cost 3^n products and lookups, not 4^n pair tests; its sums and key order
are those of the plain pair scan.  Inverses split off one tag at a time
(x = A + B*t gives 1/x = 1/A - (1/A)*B*(1/A)*t), about 3^n pair products.

The module also provides

* analytic kernels (exp, log, sin, ...) lifted to D_n as the finite Taylor
  sum f(a0 + N) = sum_r f^(r)(a0) N^r / r! at the scalar part a0, its powers
  of the nilpotent rest N taken through `tag_product`; `nilpotent_taylor`
  sums truncated w-series for `dual` too,
* parameter signatures (the vector of "geometry switches" j_1..j_{N-1},
  each 1, nilpotent, or imaginary) and their running products J_{mu,nu},
* trigonometry of a single J-factor computed through even functions of J,
  so that expressions like (1/j)*sin(j*phi) never divide by a nilpotent:
  `even_j` holds the one limit branch, where J^2 = 0.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

MAX_TAGS = 8
DEFAULT_TOL = 1e-9

Scalar = Union[int, float, complex]


class NotInvertible(ArithmeticError):
    """Raised when inverting an element whose scalar part is zero."""


class TagCountMismatch(ValueError):
    """Raised when combining elements over different tag counts."""


def _support(masks: Iterable[int]) -> int:
    """The union of the masks: every tag they carry."""
    out = 0
    for m in masks:
        out |= m
    return out


# Up to this many entries in b (any operand over at most 3 tags) the plain
# scan of b stays: walking subsets would save little there, and its
# bookkeeping would slow the many small products of frt, dual and DMatrix.
_SCAN_MAX = 8


def tag_product(
    a: Mapping[int, Any], b: Mapping[int, Any], mul: Callable[[Any, Any], Any] = operator.mul
) -> dict[int, Any]:
    """The D_n product of two mask-keyed maps: mul(a[m1], b[m2]) summed at m1 | m2.

    This is the one place the nilpotent rule is written down: a repeated
    tag squares to zero, so a pair whose masks overlap contributes nothing.
    Values are whatever mul combines and + adds (scalars, numpy blocks,
    w-series); each mask starts from its first contribution as is and adds
    the rest in the iteration order of a, and the masks of the result come
    in the order of their first contributions, by position in a, then in b.

    For a mask m1 of a, only the masks of b inside the free tags (those b
    uses, minus m1) can contribute.  When b has more entries than the free
    tags have subsets, the row walks those subsets and looks each one up in
    b, so two dense operands over n tags cost 3^n lookups, not 4^n.  Each
    output mask gets at most one contribution per row (its partner in b is
    m ^ m1), so the sums do not depend on the walk; the result's key order
    is restored by sorting on the first contributions.
    """
    out: dict[int, Any] = {}
    if len(b) <= _SCAN_MAX:
        for m1, x in a.items():
            for m2, y in b.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                p = mul(x, y)
                out[m] = out[m] + p if m in out else p
        return out
    used = _support(b)
    where = {m2: (j, y) for j, (m2, y) in enumerate(b.items())}
    first: list[tuple[int, int, int]] = []  # (position in a, in b, mask) of each new mask
    for i, (m1, x) in enumerate(a.items()):
        free = used & ~m1
        if 1 << free.bit_count() < len(b):
            s = free
            while True:
                hit = where.get(s)
                if hit is not None:
                    j, y = hit
                    m = m1 | s
                    p = mul(x, y)
                    if m in out:
                        out[m] = out[m] + p
                    else:
                        out[m] = p
                        first.append((i, j, m))
                if not s:
                    break
                s = (s - 1) & free
        else:
            for m2, (j, y) in where.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                p = mul(x, y)
                if m in out:
                    out[m] = out[m] + p
                else:
                    out[m] = p
                    first.append((i, j, m))
    first.sort()
    return {m: out[m] for _, _, m in first}


def worst_residual(values: Iterable[float]) -> float:
    """Largest of the values (0.0 for none); nan as soon as one is not finite.

    Every residual aggregate goes through here: Python's max() drops a nan
    that is not its first argument, so a broken residual would pass as 0.
    """
    worst = 0.0
    for r in values:
        if not r <= worst:  # also true for nan
            if not math.isfinite(r):
                return math.nan
            worst = r
    return float(worst)


class PimenovElement:
    """An element of D_n: complex coefficients indexed by tag subsets."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Scalar] | None = None):
        if not (0 <= n <= MAX_TAGS):
            raise ValueError(f"tag count must be in 0..{MAX_TAGS}, got {n}")
        self.n = n
        clean: dict[int, complex] = {}
        if coeffs:
            for mask, c in coeffs.items():
                if mask < 0 or mask >= (1 << n):
                    raise ValueError(f"mask {mask} out of range for n={n}")
                c = complex(c)
                if c != 0:
                    clean[mask] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value: Scalar) -> "PimenovElement":
        return cls(n, {0: value})

    @classmethod
    def unit(cls, n: int) -> "PimenovElement":
        return cls(n, {0: 1.0})

    @classmethod
    def tag(cls, n: int, k: int) -> "PimenovElement":
        """The nilpotent generator i_k (1-based)."""
        if not (1 <= k <= n):
            raise ValueError(f"tag index {k} out of range 1..{n}")
        return cls(n, {1 << (k - 1): 1.0})

    # -- basic queries ------------------------------------------------

    @property
    def scalar_part(self) -> complex:
        return self.coeffs.get(0, 0j)

    def nil_part(self) -> "PimenovElement":
        return PimenovElement(
            self.n, {m: c for m, c in self.coeffs.items() if m != 0}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> float:
        return worst_residual(abs(c) for c in self.coeffs.values())

    def isclose(self, other: "PimenovElement | Scalar", tol: float = DEFAULT_TOL) -> bool:
        other = _coerce(other, self.n)
        return (self - other).max_abs() <= tol

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "PimenovElement | Scalar") -> "PimenovElement":
        other = _coerce(other, self.n)
        if other.n != self.n:
            raise TagCountMismatch(f"{self.n} vs {other.n}")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0j) + c
        return PimenovElement(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "PimenovElement":
        return PimenovElement(self.n, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "PimenovElement | Scalar") -> "PimenovElement":
        return self + (-_coerce(other, self.n))

    def __rsub__(self, other: Scalar) -> "PimenovElement":
        return _coerce(other, self.n) - self

    def __mul__(self, other: "PimenovElement | Scalar") -> "PimenovElement":
        if not isinstance(other, (PimenovElement, int, float, complex)):
            return NotImplemented  # defer to the other operand (e.g. FreeElement)
        other = _coerce(other, self.n)
        if other.n != self.n:
            raise TagCountMismatch(f"{self.n} vs {other.n}")
        # 0j + c clears the -0.0 parts a lone product can carry
        out = tag_product(self.coeffs, other.coeffs)
        return PimenovElement(self.n, {m: 0j + c for m, c in out.items()})

    __rmul__ = __mul__

    def inv(self) -> "PimenovElement":
        if self.scalar_part == 0:
            raise NotInvertible("scalar part is zero; division is undefined")
        # 0j + c clears the -0.0 parts the negated corrections carry
        out = _inverse(self.coeffs, _support(self.coeffs))
        return PimenovElement(self.n, {m: 0j + c for m, c in out.items()})

    def __truediv__(self, other: "PimenovElement | Scalar") -> "PimenovElement":
        return self * _coerce(other, self.n).inv()

    def __pow__(self, k: int) -> "PimenovElement":
        if k < 0:
            return self.inv() ** (-k)
        out = PimenovElement.unit(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, complex)):
            other = PimenovElement.scalar(self.n, other)
        if not isinstance(other, PimenovElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        return f"PimenovElement({self.n}, {format_element(self)!r})"


def _inverse(
    coeffs: Mapping[int, Any],
    tags: int,
    recip: Callable[[Any], Any] = lambda x: 1.0 / x,
    mul: Callable[[Any, Any], Any] = operator.mul,
) -> dict[int, Any]:
    """1/x over the tags in `tags`, split on the lowest one, t.

    x = A + B*t with A and B free of t gives 1/x = 1/A - (1/A)*B*(1/A)*t,
    since t^2 = 0; 1/A recurses on the other tags, down to recip(x0).  At n
    tags that is about 3^n pair products, where a geometric series in the
    nilpotent part takes up to n whole-element products.  `recip` and `mul`
    act on the values: complex numbers by default, square numpy blocks for
    `DMatrix.inv` (np.linalg.inv and np.matmul).
    """
    if not tags:
        return {0: recip(coeffs[0])}
    t = tags & -tags
    low: dict[int, Any] = {}
    high: dict[int, Any] = {}
    for m, c in coeffs.items():
        if m & t:
            high[m ^ t] = c
        else:
            low[m] = c
    inv_low = _inverse(low, tags ^ t, recip, mul)
    if not high:
        return inv_low
    corr = tag_product(tag_product(inv_low, high, mul), inv_low, mul)
    return {**inv_low, **{m | t: -c for m, c in corr.items()}}


def _coerce(value: "PimenovElement | Scalar", n: int) -> PimenovElement:
    if isinstance(value, PimenovElement):
        return value
    return PimenovElement.scalar(n, value)


# ---------------------------------------------------------------------------
# Analytic function lifting
# ---------------------------------------------------------------------------


def nilpotent_taylor(
    derivs: Sequence[Any],
    nil: Mapping[int, Any],
    one: Mapping[int, Any],
    mul: Callable[[Any, Any], Any] = operator.mul,
) -> dict[int, Any]:
    """The Taylor sum sum_r derivs[r] / r! * nil^r of f(a0 + nil), derivs[r] = f^(r)(a0).

    nil is nilpotent: its powers vanish past the number of tags it carries,
    or, as a w-series with zero lead (the map {0: series}), past the
    truncation order.  `one` and `mul` are the unit and product of the values.
    """
    out = {m: derivs[0] * x for m, x in one.items()}
    power = nil
    for r in range(1, len(derivs)):
        if r > 1 and not (power := tag_product(power, nil, mul)):
            break
        c = derivs[r] / math.factorial(r)
        for m, x in power.items():
            out[m] = out[m] + c * x if m in out else c * x
    return out


@dataclass(frozen=True)
class AnalyticKernel:
    """An analytic function given by its derivatives: deriv(r, a0) = f^(r)(a0)."""

    name: str
    deriv: Callable[[int, complex], complex]

    def derivs(self, a0: complex, order: int) -> list[complex]:
        """[f(a0), ..., f^(order)(a0)]; a domain or range error names f and a0."""
        try:
            return [self.deriv(r, a0) for r in range(order + 1)]
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"{exc} in {self.name} at {a0}") from exc


def _cyclic(fns: Sequence[Callable[[complex], complex]]) -> Callable[[int, complex], complex]:
    def d(r: int, a0: complex) -> complex:
        return fns[r % len(fns)](a0)

    return d


def _log_deriv(r: int, a0: complex) -> complex:
    if r == 0:
        return cmath.log(a0)
    return (-1) ** (r - 1) * math.factorial(r - 1) / a0**r


KERNELS: dict[str, AnalyticKernel] = {
    "exp": AnalyticKernel("exp", lambda r, a0: cmath.exp(a0)),
    "log": AnalyticKernel("log", _log_deriv),
    "sin": AnalyticKernel("sin", _cyclic([cmath.sin, cmath.cos, lambda z: -cmath.sin(z), lambda z: -cmath.cos(z)])),
    "cos": AnalyticKernel("cos", _cyclic([cmath.cos, lambda z: -cmath.sin(z), lambda z: -cmath.cos(z), cmath.sin])),
    "sinh": AnalyticKernel("sinh", _cyclic([cmath.sinh, cmath.cosh])),
    "cosh": AnalyticKernel("cosh", _cyclic([cmath.cosh, cmath.sinh])),
}


def pim_apply(f: AnalyticKernel, a: PimenovElement) -> PimenovElement:
    """Lift the analytic function f to D_n: its Taylor sum at the scalar part
    a0 over the nilpotent rest of a, which ends at the number of tags that
    rest carries."""
    nil = {m: c for m, c in a.coeffs.items() if m}
    derivs = f.derivs(a.scalar_part, _support(nil).bit_count())
    # 0j + c clears the -0.0 parts a lone product can carry
    out = nilpotent_taylor(derivs, nil, {0: 1.0})
    return PimenovElement(a.n, {m: 0j + c for m, c in out.items()})


# ---------------------------------------------------------------------------
# Parameter signatures and J-factors
# ---------------------------------------------------------------------------

ONE = "1"
NIL = "n"
IM = "i"
_SLOT_TOKENS = {ONE, NIL, IM}


class ParameterSignature:
    """The vector j = (j_1, ..., j_{N-1}); each slot is 1, nilpotent, or i.

    Slot r with value `n` carries the nilpotent tag i_r; all elements built
    from a signature share tag count N-1.
    """

    def __init__(self, slots: Sequence[str]):
        slots = tuple(slots)
        if not slots:
            raise ValueError("signature needs at least one slot")
        for s in slots:
            if s not in _SLOT_TOKENS:
                raise ValueError(f"unknown signature token {s!r} (expected 1, n or i)")
        if len(slots) > MAX_TAGS:
            raise ValueError(f"at most {MAX_TAGS} slots supported")
        self.slots = slots

    @classmethod
    def parse(cls, text: str) -> "ParameterSignature":
        return cls(tuple(tok.strip() for tok in text.split(",")))

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def dim(self) -> int:
        """Matrix size N = number of slots + 1."""
        return len(self.slots) + 1

    @property
    def quantum_allowed(self) -> bool:
        return IM not in self.slots

    def slot_value(self, r: int) -> PimenovElement:
        """j_r as an element of D_{N-1} (1-based slot index)."""
        if not (1 <= r <= self.n_slots):
            raise ValueError(f"slot index {r} out of range")
        token = self.slots[r - 1]
        n = self.n_slots
        if token == ONE:
            return PimenovElement.unit(n)
        if token == IM:
            return PimenovElement.scalar(n, 1j)
        return PimenovElement.tag(n, r)

    def jfactor(self, mu: int, nu: int) -> PimenovElement:
        """J_{mu,nu} = product of j_r for r = mu..nu-1; the unit for mu >= nu."""
        if not (1 <= mu <= self.dim and 1 <= nu <= self.dim):
            raise ValueError(f"indices ({mu},{nu}) out of range 1..{self.dim}")
        out = PimenovElement.unit(self.n_slots)
        for r in range(mu, nu):
            out = out * self.slot_value(r)
        return out

    def __str__(self) -> str:
        return ",".join(self.slots)

    def __repr__(self) -> str:
        return f"ParameterSignature({self.slots!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParameterSignature) and self.slots == other.slots

    def __hash__(self) -> int:
        return hash(self.slots)


def jfactor_square(j: PimenovElement) -> complex:
    """The scalar j*j of a single J-factor (c * tag-monomial): c^2 if the
    monomial is empty, else 0."""
    sq = j * j
    nil = sq.nil_part()
    if not nil.is_zero():
        raise ValueError("not a J-factor: square has a nilpotent part")
    return sq.scalar_part


def is_j_monomial(j: PimenovElement) -> bool:
    """True if j is a single term c * (tag monomial)."""
    return len(j.coeffs) <= 1


def even_j(w: complex, at_zero: complex, f: Callable[[complex], complex]) -> complex:
    """f(sqrt(w)) for f even in J, given w = J^2 (so the root's branch is
    irrelevant); the limit at_zero when w = 0, where J is nilpotent."""
    return at_zero if w == 0 else f(cmath.sqrt(w))


def scaled_trig(j: PimenovElement, phi: Scalar) -> tuple[PimenovElement, complex, complex]:
    """(sin(j*phi), (1/j)*sin(j*phi), cos(j*phi)) for a single J-factor j.

    Both scalar returns are computed from w = j^2 (always a plain scalar),
    so nothing is ever divided by a nilpotent:
        (1/j)*sin(j*phi) = phi * sum (-1)^m w^m phi^(2m) / (2m+1)!
    which collapses to sin(s*phi)/s with s = sqrt(w).
    """
    if not is_j_monomial(j):
        raise ValueError("scaled_trig expects a single J-factor")
    w = jfactor_square(j)
    phi = complex(phi)
    cosj = even_j(w, 1.0 + 0j, lambda s: cmath.cos(s * phi))
    sincj = even_j(w, phi, lambda s: cmath.sin(s * phi) / s)
    return j * sincj, sincj, cosj


def sinhc_j(w: complex, z: Scalar) -> complex:
    """(1/J) * sinh(J*z) as a scalar, given w = J^2 (limit z at w = 0)."""
    z = complex(z)
    return even_j(w, z, lambda s: cmath.sinh(s * z) / s)


def cosh_j(w: complex, z: Scalar) -> complex:
    """cosh(J*z) as a scalar, given w = J^2."""
    z = complex(z)
    return even_j(w, 1.0 + 0j, lambda s: cmath.cosh(s * z))


def tanhc_j(w: complex, z: Scalar) -> complex:
    """(1/J) * tanh(J*z) as a scalar, given w = J^2 (limit z at w = 0)."""
    z = complex(z)
    return even_j(w, z, lambda s: cmath.tanh(s * z) / s)


# ---------------------------------------------------------------------------
# Textual element syntax: `1 + 2*i1 - 0.5*i1*i2`, scalars as `a+bj`
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?|j)"
    r"|(?P<tag>i[1-8])"
    r"|(?P<op>[-+*/()]))"
)


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad element syntax at {text[pos:]!r}")
            self.tokens.append(m.group().strip())
            pos = m.end()
        self.i = 0
        self.n = n

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise ValueError("unexpected end of expression")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> PimenovElement:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self) -> PimenovElement:
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        value = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> PimenovElement:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> PimenovElement:
        tok = self.peek()
        if tok == "(":
            self.next()
            value = self.expr()
            if self.next() != ")":
                raise ValueError("unbalanced parenthesis")
            return value
        if tok in ("+", "-"):
            self.next()
            inner = self.factor()
            return inner if tok == "+" else -inner
        tok = self.next()
        if tok in ("*", "/", ")"):
            raise ValueError(f"expected a number, a tag or '(' at {tok!r}")
        if tok.startswith("i") and len(tok) == 2 and tok[1].isdigit():
            k = int(tok[1])
            if k > self.n:
                raise ValueError(f"tag {tok} exceeds tag count {self.n}")
            return PimenovElement.tag(self.n, k)
        return PimenovElement.scalar(self.n, complex(tok))


def parse_element(text: str, n: int) -> PimenovElement:
    """Parse `1 + 2*i1 - 0.5*i1*i2` into an element of D_n."""
    return _Parser(text, n).parse()


def format_element(a: PimenovElement) -> str:
    if not a.coeffs:
        return "0"
    names = [f"i{k + 1}" for k in range(a.n)]
    parts = []
    for mask in sorted(a.coeffs, key=lambda m: (m.bit_count(), m)):
        c = a.coeffs[mask]
        lit = repr(c) if c.imag else repr(c.real)
        tags = []
        while mask:
            tags.append(names[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        # '*' binds tighter than '+': a two-part literal before tags keeps its parentheses
        parts.append(f"{lit}*{'*'.join(tags)}" if tags else lit.strip("()"))
    return " + ".join(parts).replace("+ -", "- ")

"""Output checks for benchmark operations.

Each check returns None when the output is correct and a one-line reason
otherwise.  The checks read the program's printed output with their own
parsers and recompute what they can from the generated inputs alone
(kernel values and first derivatives via `cmath`), so they never call back
into the package under test.
"""

from __future__ import annotations

import cmath
import json
import math
import re

# The printer's rule (ckq.pimenov.format_element), decoded here and nowhere
# else: terms are joined by ' + ' or ' - ', where a ' - ' separator is the
# leading minus of the next coefficient's literal, and a tagged term is
# '<literal>*i<k>*...', the whole literal (for example '0.5+0.3j') being the
# coefficient of the tag product.  ckq's own element grammar binds '*' tighter
# than '+' and reads '0.5+0.3j*i1' as 0.5 + 0.3j*i1, so every tagged term whose
# coefficient has nonzero real and imaginary parts prints ambiguously.  A
# parenthesised literal, '(0.5+0.3j)*i1', is read the same way, since complex()
# accepts the parentheses.
_SEP = re.compile(r" ([+-]) ")
_TAGS = re.compile(r"^i[1-8](\*i[1-8])*$")

_KERNEL = {
    "exp": (cmath.exp, cmath.exp),
    "log": (cmath.log, lambda z: 1 / z),
    "sin": (cmath.sin, cmath.cos),
    "cos": (cmath.cos, lambda z: -cmath.sin(z)),
    "sinh": (cmath.sinh, cmath.cosh),
    "cosh": (cmath.cosh, cmath.sinh),
}
REL_TOL = 1e-9
MAX_TAGS = 8  # the CLI's tag limit; matrix and table entries are decoded against it


def parse_element(text: str, n: int) -> dict[int, complex]:
    """Decode one printed element into {tag mask: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = _SEP.split(text)
    terms = [pieces[0]] + [
        ("-" if sign == "-" else "") + body for sign, body in zip(pieces[1::2], pieces[2::2])
    ]
    out: dict[int, complex] = {}
    for term in terms:
        lit, _, tags = term.partition("*")  # the printer's rule, see _SEP
        coeff = complex(lit)  # raises ValueError on malformed text
        if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
            raise ValueError(f"non-finite coefficient {lit!r}")
        mask = 0
        if tags:
            if not _TAGS.match(tags):
                raise ValueError(f"bad tag product {tags!r}")
            for tag in tags.split("*"):
                k = int(tag[1:])
                if k > n or mask >> (k - 1) & 1:
                    raise ValueError(f"bad tag {tag} in {term!r}")
                mask |= 1 << (k - 1)
        if mask in out:
            raise ValueError(f"repeated tag set in {text!r}")
        out[mask] = coeff
    return out


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_verify(op: dict, out: str) -> str | None:
    ids = []
    for line in out.splitlines():
        rep = json.loads(line)
        ids.append(rep["check"])
        if rep.get("pass") is not True:
            return f"{rep['check']} failed with residual {rep.get('residual')}"
        if op["sig"] != "-" and rep["check"].split(".")[0] in ("frt", "dual"):
            if rep["signature"] != op["sig"]:
                return f"{rep['check']} ran at {rep['signature']}, asked for {op['sig']}"
    if sorted(ids) != op["ids"]:
        return f"check ids {sorted(ids)} != expected {op['ids']}"
    return None


def check_pim(op: dict, out: str) -> str | None:
    coeffs = parse_element(out, op["n"])
    f, df = _KERNEL[op["kernel"]]
    a0 = complex(*op["a0"])
    val, slope = f(a0), df(a0)
    if op["inv"]:
        val, slope = 1 / val, -slope / val**2
    if not _close(coeffs.get(0, 0j), val):
        return f"scalar part {coeffs.get(0, 0j)} != {val}"
    for t, c in op["singles"].items():
        got = coeffs.get(1 << (int(t) - 1), 0j)
        if not _close(got, slope * c):
            return f"coefficient of i{t} {got} != {slope * c}"
    return None


def _matrix_entries(op: dict, out: str) -> list[list[str]]:
    if op["fmt"] == "json":
        data = json.loads(out)
        if data["size"] != op["size"]:
            raise ValueError(f"size {data['size']} != {op['size']}")
        return data["entries"]
    return [re.split(r"\s{2,}", line.strip()) for line in out.splitlines()]


def check_matrix(op: dict, out: str) -> str | None:
    rows = _matrix_entries(op, out)
    size = op["size"]
    if len(rows) != size or any(len(r) != size for r in rows):
        return f"expected a {size}x{size} matrix"
    vals = [[parse_element(e, MAX_TAGS) for e in row] for row in rows]
    if op["plane"]:
        plane = {op["plane"][0] - 1, op["plane"][1] - 1}
        for i in range(size):
            for k in range(size):
                if i in plane and k in plane:
                    continue
                want = {0: 1.0} if i == k else {}
                if vals[i][k] != want:
                    return f"entry ({i + 1},{k + 1}) off the rotation plane is {rows[i][k]!r}"
    return None


def check_pairing(op: dict, out: str) -> str | None:
    if op["fmt"] == "json":
        entries = list(json.loads(out).values())
    else:
        entries = []
        for line in out.splitlines():
            atom, comp, value = line.split(None, 2)
            entries.append(value)
    if not entries:
        return "empty pairing table"
    for e in entries:
        parse_element(e, MAX_TAGS)
    return None


CHECKS = {
    "verify": check_verify,
    "pim": check_pim,
    "matrix": check_matrix,
    "pairing": check_pairing,
}


def check(op: dict, exit_code: int, out: str) -> str | None:
    """Reason the operation failed, or None when its output is correct."""
    if exit_code != 0:
        first = out.strip().splitlines()[-1:] or [""]
        return f"exit {exit_code}: {first[0][:160]}"
    try:
        return CHECKS[op["kind"]](op, out)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"

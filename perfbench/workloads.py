"""Seeded operation streams for the three benchmark workloads.

An operation is one `ckq` command line plus what its output must satisfy.
Each workload is a stream of *cycles*.  A cycle has a fixed structure
(which commands, at which signatures and sizes), so its cost does not
depend on the seed; the seed only draws the numbers inside it (deformation
parameters, coefficients, angles, signature tokens) and the order of the
operations.  Every quantum operation draws a fresh v, as separate CLI runs
would, so no (signature, v) pair repeats within a run and the cache on
`frt.reduction_system` never hides a build.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from itertools import islice

WORKLOADS = ("verify-sweep", "dual-deep", "quick-checks")
QUANTUM_SIGS = ("1,1", "1,n", "n,1", "n,n")
V_RADIUS = 0.9
KERNEL_NAMES = ("cos", "cosh", "exp", "log", "sin", "sinh")

PIM_IDS = ("pim.exp-log", "pim.hyperbolic-identity", "pim.inverse", "pim.trig-identity")
CK_IDS = (
    "ck.contraction-ratio", "ck.determinant", "ck.orbit-invariant", "ck.orthogonality",
    "ck.special-shape", "ck.symplectic", "ck.translation-distance",
)
FRT_CHECKS = ("qybe", "confluence", "rank", "counit", "antipode", "coproduct", "contraction")
DUAL_CHECKS = ("pairing", "lrel", "commutators", "sow-hopf", "iso")
FRT_IDS = tuple(f"frt.{c}" for c in FRT_CHECKS)
DUAL_IDS = tuple(f"dual.{c}" for c in DUAL_CHECKS)
VERIFY_ALL_IDS = PIM_IDS + CK_IDS + FRT_IDS + DUAL_IDS  # 23 checks


def sig_key(sig: str) -> str:
    """'1,n' -> 'j1n', the suffix used in metric names."""
    return "j" + sig.replace(",", "")


def _draw_v(rng: random.Random) -> str:
    """Uniform in the complex disc |v| <= V_RADIUS, printed as the CLI reads it."""
    r = V_RADIUS * math.sqrt(rng.random())
    v = cmath.rect(r, 2 * math.pi * rng.random())
    return f"{v.real:.6f}{v.imag:+.6f}i"


def _verify(args: list[str], sig: str, ids) -> dict:
    return {"args": args, "kind": "verify", "sig": sig, "ids": sorted(ids)}


# -- verify-sweep -------------------------------------------------------------


def _verify_sweep_cycle(rng: random.Random) -> list[dict]:
    return [
        _verify(["verify", "all", "--j", s, "--v", _draw_v(rng)], s, VERIFY_ALL_IDS)
        for s in QUANTUM_SIGS
    ]


# -- dual-deep ----------------------------------------------------------------


def _dual_deep_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for s in QUANTUM_SIGS:
        truncs = [10, 12]
        rng.shuffle(truncs)
        for t in truncs:
            args = ["dual", "verify", "all", "--j", s, "--v", _draw_v(rng), "--trunc", str(t)]
            ops.append(_verify(args, s, DUAL_IDS))
    return ops


# -- quick-checks -------------------------------------------------------------


def _pim_op(rng: random.Random, k: int, kernel: str, inv: bool) -> dict:
    """`pim eval` of a0 + sum_t c_t i_t + two pair terms over k tags.

    Every tag appears, so the lifted element spans all 2^k subsets and the
    cost depends on k, not on the seed.  Re(a0) is kept in [1.2, 1.4] so the
    kernel value stays away from zero and the inverse exists.
    """
    a0 = complex(round(rng.uniform(1.2, 1.4), 4), round(rng.uniform(-0.3, 0.3), 4))
    singles = {t: round(rng.uniform(-1.0, 1.0), 4) for t in range(1, k + 1)}
    parts = [f"({a0.real}{a0.imag:+}j)"]
    parts += [f"{c}*i{t}" for t, c in singles.items()]
    for _ in range(2):
        a, b = sorted(rng.sample(range(1, k + 1), 2))
        parts.append(f"{round(rng.uniform(-1.0, 1.0), 4)}*i{a}*i{b}")
    args = ["pim", "eval", " + ".join(parts), "--n", str(k), "--apply", kernel]
    if inv:
        args.append("--inv")
    return {
        "args": args, "kind": "pim", "sig": "-", "n": k, "kernel": kernel, "inv": inv,
        "a0": [a0.real, a0.imag], "singles": {str(t): c for t, c in singles.items()},
    }


def _tokens(rng: random.Random, count: int) -> str:
    return ",".join(rng.choice("1ni") for _ in range(count))


def _quick_checks_cycle(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    # cheap coefficient and classical commands (83)
    for k in range(4, 9):
        for ki, kernel in enumerate(KERNEL_NAMES):
            ops.append(_pim_op(rng, k, kernel, inv=(k + ki) % 2 == 0))
    for size in range(3, 7):
        for rep in range(6):
            mu, nu = sorted(rng.sample(range(1, size + 1), 2))
            fmt = ("json", "table")[rep % 2]
            args = ["ck", "rotate", "--n", str(size), "--j", _tokens(rng, size - 1),
                    "--plane", f"{mu},{nu}", "--phi", f"{rng.uniform(-math.pi, math.pi):.6f}",
                    "--format", fmt]
            ops.append({"args": args, "kind": "matrix", "sig": "-", "size": size,
                        "fmt": fmt, "plane": [mu, nu]})
    for size in (4, 5, 6):
        for _ in range(3):
            tokens = _tokens(rng, size - 1)
            ops.append(_verify(["ck", "verify", "classical", "--n", str(size), "--j", tokens],
                               "-", CK_IDS))
    for s in QUANTUM_SIGS:
        for rep in range(3):
            fmt = ("json", "table")[rep % 2]
            args = ["frt", "rmatrix", "--j", s, "--v", _draw_v(rng), "--format", fmt]
            ops.append({"args": args, "kind": "matrix", "sig": s, "size": 9, "fmt": fmt,
                        "plane": None})
        for fmt in ("json", "table"):
            args = ["emit", "pairing-table", "--j", s, "--v", _draw_v(rng), "--format", fmt]
            ops.append({"args": args, "kind": "pairing", "sig": s, "fmt": fmt})
    # single quantum checks (17): each pays for the suite it belongs to.  The frt
    # checks run at 1,1, where that suite costs 7-10 s (three quotient builds):
    # ROADMAP item 1's largest case, and most of the cycle's time.  Small
    # operations speed up and slow down by 15-30% with the shared host's load,
    # the 1,1 builds less, so this also keeps ops_per_s steadier between runs.
    for check in ("pairing", "lrel", "commutators"):
        for s in QUANTUM_SIGS:
            ops.append(_verify(["dual", "verify", check, "--j", s, "--v", _draw_v(rng)],
                               s, [f"dual.{check}"]))
    for check in ("qybe", "antipode", "coproduct", "confluence", "contraction"):
        ops.append(_verify(["frt", "verify", check, "--j", "1,1", "--v", _draw_v(rng)],
                           "1,1", [f"frt.{check}"]))
    rng.shuffle(ops)
    return ops


_CYCLES = {
    "verify-sweep": _verify_sweep_cycle,
    "dual-deep": _dual_deep_cycle,
    "quick-checks": _quick_checks_cycle,
}


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of operations) for one workload and seed."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    while True:
        yield make(rng)


def first_cycles(workload: str, seed: int, count: int) -> list[list[dict]]:
    return list(islice(cycles(workload, seed), count))


def digest(ops: list[dict]) -> str:
    """Short hash of the command lines of a list of operations."""
    blob = json.dumps([op["args"] for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

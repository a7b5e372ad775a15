"""Command-line entry point: verification suites, golden tables, data emission.

Reports are streamed as JSON lines (one object per check, sorted by check
id) or as a plain table.  Exit status is 0 only when every reported check
passes; malformed flags or signatures exit with status 2.
"""

from __future__ import annotations

import cmath
import json
import os
import sys
from typing import Callable

import click
import numpy as np
from click.core import ParameterSource

from . import ck_classical as ck
from . import dual as dualmod
from . import free_algebra as fa
from . import frt as frtmod
from .dmat import DMatrix
from .pimenov import (
    KERNELS,
    ParameterSignature,
    PimenovElement,
    format_element,
    parse_element,
    pim_apply,
    worst_residual,
)

DEFAULT_SEED = 20260824
RESIDUAL_TOL = 1e-9

# A suite maps each check id to a thunk that computes that check's report.
Suite = dict[str, Callable[[], dict]]


# ---------------------------------------------------------------------------
# option parsing helpers
# ---------------------------------------------------------------------------


def _parse_sig(text: str) -> ParameterSignature:
    try:
        return ParameterSignature.parse(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _quantum_sig(text: str) -> ParameterSignature:
    sig = _parse_sig(text)
    if not sig.quantum_allowed:
        raise click.UsageError(
            "quantum commands restrict every signature slot to the two values "
            "1 and n; the imaginary token i is only available classically"
        )
    if sig.n_slots != 2:
        raise click.UsageError("quantum commands need a two-slot signature")
    return sig


def _parse_v(text: str) -> complex:
    try:
        v = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise click.UsageError(f"cannot parse deformation parameter {text!r}")
    if not cmath.isfinite(v):
        raise click.UsageError(f"deformation parameter {text!r} is not finite")
    return v


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    conf = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                    )
                key, val = (part.strip() for part in line.split("=", 1))
                conf[key] = val
    except OSError as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    return conf


def _seed(conf: dict) -> int:
    env = os.environ.get("CKQW_SEED")
    if env is not None:
        return int(env)
    return int(conf.get("seed", DEFAULT_SEED))


def _report(reports: list[dict], fmt: str) -> None:
    reports = sorted(reports, key=lambda r: r["check"])
    if fmt == "json":
        for rep in reports:
            click.echo(json.dumps(rep, sort_keys=True))
    else:
        width = max(len(r["check"]) for r in reports) if reports else 0
        for rep in reports:
            status = "pass" if rep["pass"] else "FAIL"
            click.echo(
                f"{rep['check']:<{width}}  {rep['residual']:.3e}  {status}"
            )
    if not all(r["pass"] for r in reports):
        sys.exit(1)


def _run(suite: Suite, check: str = "all") -> list[dict]:
    """Reports of every check in the suite, or only of the one named `check`."""
    return [thunk() for cid, thunk in suite.items() if check in ("all", cid)]


def _entry(check: str, sig: str, residual: float, tol: float = RESIDUAL_TOL, **extra) -> dict:
    rep = {"check": check, "signature": sig, "residual": float(residual), "pass": bool(residual <= tol)}
    rep.update(extra)
    return rep


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True
)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_pimenov(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    n = 3
    a = PimenovElement(
        n,
        {
            mask: complex(rng.normal(), rng.normal())
            for mask in range(2**n)
        },
    )
    a = a + (1.5 - a.scalar_part)  # keep logs and inverses well-defined
    out = []
    out.append(
        _entry("pim.exp-log", "-", (pim_apply(KERNELS["log"], pim_apply(KERNELS["exp"], a)) - a).max_abs(), 1e-12)
    )
    s, c = pim_apply(KERNELS["sin"], a), pim_apply(KERNELS["cos"], a)
    out.append(_entry("pim.trig-identity", "-", (s * s + c * c - 1).max_abs(), 1e-12))
    sh, chh = pim_apply(KERNELS["sinh"], a), pim_apply(KERNELS["cosh"], a)
    out.append(_entry("pim.hyperbolic-identity", "-", (chh * chh - sh * sh - 1).max_abs(), 1e-12))
    out.append(_entry("pim.inverse", "-", (a * a.inv() - 1).max_abs(), 1e-12))
    return out


def _suite_classical(sig_text: str, size: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    tokens = sig_text.split(",")
    if len(tokens) != size - 1:
        tokens = (tokens * size)[: size - 1]
    sig = _parse_sig(",".join(tokens))
    s = str(sig)
    out = []
    A = ck.random_group_element(sig, 6, rng)
    out.append(_entry("ck.orthogonality", s, ck.verify_j_orthogonality(A), 1e-10))
    out.append(_entry("ck.determinant", s, (ck.ck_det(A) - 1).max_abs(), 1e-10))
    out.append(_entry("ck.special-shape", s, ck.special_shape_residual(A), 1e-10))
    B = ck.to_symplectic(A)
    out.append(_entry("ck.symplectic", s, ck.symplectic_orthogonality_residual(B), 1e-10))
    distances = []
    for omega in (1, 0, -1):
        xa = ck.translate(omega, 0.21, 0.4)
        xb = ck.translate(omega, -0.13, 0.4)
        distances.append(abs(ck.distance(omega, xa, xb) - ck.distance(omega, 0.21, -0.13)))
    out.append(_entry("ck.translation-distance", s, worst_residual(distances), 1e-12))
    demo = ck.contraction_limit_demo(0.3, 1.0, 0.5, [4e-3, 2e-3, 1e-3])
    ratio = demo["steps"][-1]["ratio"]
    out.append(_entry("ck.contraction-ratio", s, abs(ratio - 0.25), 0.05))
    drifts = []
    for plane in ("euclid", "galilei", "minkowski"):
        ref = ck.plane_invariant(plane, 0.8, 0.3)
        for _, x0, x1 in ck.orbit_sample(plane, (0.8, 0.3), np.linspace(0, 1.0, 7)):
            drifts.append(abs(ck.plane_invariant(plane, x0, x1) - ref))
    out.append(_entry("ck.orbit-invariant", s, worst_residual(drifts), 1e-10))
    return out


def _suite_frt(sig: ParameterSignature, v: complex) -> Suite:
    s, vs = str(sig), str(v)

    def rank() -> dict:
        r = frtmod.rtt_rank(sig, v)
        return _entry("frt.rank", s, float(abs(r - frtmod.FROZEN_QUOTIENT_RANK[s])), 0.5, v=vs, rank=r)

    def confluence() -> dict:
        conf = fa.confluence_check(frtmod.reduction_system(sig, v))
        return _entry("frt.confluence", s, conf["max_discrepancy"], 1e-9, v=vs)

    return {
        "frt.qybe": lambda: _entry("frt.qybe", s, frtmod.qybe_check(frtmod.rmatrix3(sig, v)), 1e-10, v=vs),
        "frt.confluence": confluence,
        "frt.rank": rank,
        "frt.counit": lambda: _entry("frt.counit", s, frtmod.counit_residual(sig, v), 1e-12, v=vs),
        "frt.antipode": lambda: _entry("frt.antipode", s, frtmod.antipode_check(sig, v)["residual"], 1e-9, v=vs),
        "frt.coproduct": lambda: _entry(
            "frt.coproduct", s, frtmod.coproduct_compatibility(sig, v)["residual"], 1e-9, v=vs),
        "frt.contraction": lambda: _entry(
            "frt.contraction", s, frtmod.verify_contraction_transform(sig, v)["residual"], 1e-9, v=vs),
    }


def _suite_dual(sig: ParameterSignature, v: complex, trunc: int) -> Suite:
    s, vs = str(sig), str(v)
    return {
        "dual.pairing": lambda: _entry(
            "dual.pairing", s, dualmod.verify_pairing_table(sig, v)["residual"], 1e-10, v=vs),
        "dual.lrel": lambda: _entry("dual.lrel", s, dualmod.verify_L_relations(sig, v)["residual"], 1e-9, v=vs),
        "dual.commutators": lambda: _entry(
            "dual.commutators", s, dualmod.verify_dual_commutators(sig, v)["residual"], 1e-9, v=vs),
        "dual.sow-hopf": lambda: _entry(
            "dual.sow-hopf", s, dualmod.verify_sow_hopf(sig, dw=trunc, dx=trunc)["residual"], 1e-9,
            truncation=trunc),
        "dual.iso": lambda: _entry(
            "dual.iso", s, dualmod.verify_duality_isomorphism(sig, dw=trunc)["residual"], 1e-8,
            truncation=trunc),
    }


# ---------------------------------------------------------------------------
# command tree
# ---------------------------------------------------------------------------


class _CkqGroup(click.Group):
    """Command group that reports numeric domain errors as usage errors."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (OverflowError, fa.InconsistentIdeal, fa.NonTerminatingRules) as exc:
            raise click.UsageError(f"parameters outside the supported range: {exc}", ctx)


@click.group(cls=_CkqGroup)
def cli() -> None:
    """Verification workbench for orthogonal Cayley-Klein groups and their
    N=3 quantum deformation."""


# -- pim --------------------------------------------------------------------


@cli.group()
def pim() -> None:
    """Nilpotent-commutative coefficient arithmetic."""


@pim.command("eval")
@click.argument("expr")
@click.option("--n", "n_tags", type=int, default=2, show_default=True, help="tag count")
@click.option("--apply", "kernel", type=click.Choice(sorted(KERNELS)), default=None)
@click.option("--inv", is_flag=True, help="invert the result")
def pim_eval(expr: str, n_tags: int, kernel: str | None, inv: bool) -> None:
    """Evaluate an element expression such as '1 + 2*i1 - 0.5*i1*i2'."""
    try:
        val = parse_element(expr, n_tags)
        if kernel:
            val = pim_apply(KERNELS[kernel], val)
        if inv:
            val = val.inv()
    except (ValueError, ArithmeticError) as exc:
        raise click.UsageError(str(exc))
    click.echo(format_element(val))


# -- ck ---------------------------------------------------------------------


@cli.group(name="ck")
def ck_group() -> None:
    """Classical orthogonal Cayley-Klein groups."""


@ck_group.command("rotate")
@click.option("--n", "size", type=int, default=3, show_default=True)
@click.option("--j", "sig_text", default="1,1", show_default=True)
@click.option("--plane", required=True, help="1-based plane, e.g. 1,2")
@click.option("--phi", type=float, required=True)
@format_option
def ck_rotate(size: int, sig_text: str, plane: str, phi: float, fmt: str) -> None:
    """Print an elementary rotation in the given coordinate plane."""
    sig = _parse_sig(sig_text)
    if sig.n_slots != size - 1:
        raise click.UsageError(f"signature needs {size - 1} slots for N={size}")
    try:
        mu, nu = (int(p) for p in plane.split(","))
        A = ck.elementary_rotation(sig, mu, nu, phi)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _print_dmatrix(A.mat, fmt)


@ck_group.command("orbit")
@click.option("--plane", type=click.Choice(["euclid", "galilei", "minkowski"]), required=True)
@click.option("--from", "start", default="1,0", show_default=True, help="x0,x1")
@click.option("--steps", type=int, default=8, show_default=True)
@click.option("--phi-max", type=float, default=1.0, show_default=True)
def ck_orbit(plane: str, start: str, steps: int, phi_max: float) -> None:
    """Emit CSV points phi,x0,x1 along a one-parameter orbit."""
    try:
        x0, x1 = (float(p) for p in start.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse start point {start!r}")
    click.echo("phi,x0,x1")
    for phi, a, b in ck.orbit_sample(plane, (x0, x1), np.linspace(0.0, phi_max, steps)):
        click.echo(f"{phi:.12g},{a:.12g},{b:.12g}")


@ck_group.command("verify")
@click.argument("suite", type=click.Choice(["classical"]))
@click.option("--n", "size", type=int, default=4, show_default=True)
@click.option("--j", "sig_text", default="1", show_default=True)
@format_option
def ck_verify(suite: str, size: int, sig_text: str, fmt: str) -> None:
    """Run the classical-group property suite."""
    _report(_suite_classical(sig_text, size, _seed({})), fmt)


# -- frt --------------------------------------------------------------------


@cli.group(name="frt")
def frt_group() -> None:
    """Quantum deformation of the N=3 orthogonal Cayley-Klein group."""


@frt_group.command("rmatrix")
@click.option("--j", "sig_text", required=True)
@click.option("--v", "v_text", required=True)
@format_option
def frt_rmatrix(sig_text: str, v_text: str, fmt: str) -> None:
    """Print the 9x9 exchange matrix."""
    sig = _quantum_sig(sig_text)
    R = frtmod.rmatrix3(sig, _parse_v(v_text))
    _print_dmatrix(R.mat, fmt)


@frt_group.command("relations")
@click.option("--j", "sig_text", required=True)
@click.option("--v", "v_text", required=True)
def frt_relations(sig_text: str, v_text: str) -> None:
    """Emit the quadratic defining relations as JSON."""
    sig = _quantum_sig(sig_text)
    rs = frtmod.full_relations(sig, _parse_v(v_text))
    click.echo(frtmod.relations_json_str(rs))


@frt_group.command("verify")
@click.argument(
    "check", type=click.Choice(["qybe", "confluence", "antipode", "coproduct", "contraction", "all"])
)
@click.option("--j", "sig_text", required=True)
@click.option("--v", "v_text", default="0.37", show_default=True)
@format_option
def frt_verify(check: str, sig_text: str, v_text: str, fmt: str) -> None:
    """Run one (or all) of the quantum-group checks."""
    sig = _quantum_sig(sig_text)
    suite = _suite_frt(sig, _parse_v(v_text))
    _report(_run(suite, check if check == "all" else f"frt.{check}"), fmt)


# -- dual -------------------------------------------------------------------


@cli.group(name="dual")
def dual_group() -> None:
    """Dual quantum algebra of the N=3 deformation."""


@dual_group.command("verify")
@click.argument(
    "check", type=click.Choice(["pairing", "lrel", "commutators", "sow-hopf", "iso", "all"])
)
@click.option("--j", "sig_text", required=True)
@click.option("--v", "v_text", default="0.37", show_default=True)
@click.option("--trunc", type=int, default=8, show_default=True)
@format_option
def dual_verify(check: str, sig_text: str, v_text: str, trunc: int, fmt: str) -> None:
    """Run one (or all) of the dual-side checks."""
    sig = _quantum_sig(sig_text)
    suite = _suite_dual(sig, _parse_v(v_text), trunc)
    _report(_run(suite, check if check == "all" else f"dual.{check}"), fmt)


# -- verify all -------------------------------------------------------------


@cli.command("verify")
@click.argument(
    "suite", type=click.Choice(["pimenov", "classical", "frt", "dual", "all"])
)
@click.option("--j", "sig_text", default="1,1", show_default=True)
@click.option("--v", "v_text", default="0.37", show_default=True)
@click.option("--trunc", type=int, default=8, show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@format_option
@click.pass_context
def verify(ctx: click.Context, suite: str, sig_text: str, v_text: str, trunc: int, config_path: str | None, fmt: str) -> None:
    """Run a verification suite and stream one report line per check."""
    conf = _load_config(config_path)

    def setting(param: str, key: str, value):
        # flags win; the config only replaces a value left at its default
        if key in conf and ctx.get_parameter_source(param) is ParameterSource.DEFAULT:
            return conf[key]
        return value

    sig_text = setting("sig_text", "signature", sig_text)
    v_text = setting("v_text", "v", v_text)
    trunc = int(setting("trunc", "trunc", trunc))
    seed = _seed(conf)
    v = _parse_v(v_text)
    reports: list[dict] = []
    if suite in ("pimenov", "all"):
        reports += _suite_pimenov(seed)
    if suite in ("classical", "all"):
        reports += _suite_classical(sig_text, 4, seed)
    if suite in ("frt", "dual", "all"):
        sig = _quantum_sig(sig_text)
        if suite in ("frt", "all"):
            reports += _run(_suite_frt(sig, v))
        if suite in ("dual", "all"):
            reports += _run(_suite_dual(sig, v, trunc))
    _report(reports, fmt)


# -- emit -------------------------------------------------------------------


@cli.command("emit")
@click.argument("what", type=click.Choice(["rmatrix", "relations", "orbit", "pairing-table"]))
@click.option("--j", "sig_text", default="1,1", show_default=True)
@click.option("--v", "v_text", default="0.37", show_default=True)
@click.option("--plane", type=click.Choice(["euclid", "galilei", "minkowski"]), default="euclid")
@click.option("--from", "start", default="1,0", show_default=True)
@click.option("--steps", type=int, default=8, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table", "csv"]), default="table", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None, help="write to file instead of stdout")
def emit(what: str, sig_text: str, v_text: str, plane: str, start: str, steps: int, fmt: str, out_path: str | None) -> None:
    """Reproduce one of the reference tables or data sets."""
    lines: list[str] = []
    if what == "rmatrix":
        sig = _quantum_sig(sig_text)
        R = frtmod.rmatrix3(sig, _parse_v(v_text))
        lines = _dmatrix_lines(R.mat, fmt)
    elif what == "relations":
        sig = _quantum_sig(sig_text)
        rs = frtmod.full_relations(sig, _parse_v(v_text))
        lines = [frtmod.relations_json_str(rs)]
    elif what == "orbit":
        try:
            x0, x1 = (float(p) for p in start.split(","))
        except ValueError:
            raise click.UsageError(f"cannot parse start point {start!r}")
        lines = ["phi,x0,x1"] + [
            f"{phi:.12g},{a:.12g},{b:.12g}"
            for phi, a, b in ck.orbit_sample(plane, (x0, x1), np.linspace(0.0, 1.0, steps))
        ]
    else:  # pairing-table
        sig = _quantum_sig(sig_text)
        table = dualmod.pairing_table(sig, _parse_v(v_text))
        if fmt == "json":
            obj = {}
            for (atom, comp), (c, e1, e2, kern) in sorted(table.items()):
                val = frtmod.mono_eval(sig, (c * kern, e1, e2))
                obj[f"{atom}({comp})"] = format_element(val)
            lines = [json.dumps(obj, sort_keys=True)]
        else:
            for (atom, comp), (c, e1, e2, kern) in sorted(table.items()):
                val = frtmod.mono_eval(sig, (c * kern, e1, e2))
                lines.append(f"{atom:<7} {comp:<5} {format_element(val)}")
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out_path}: {exc}")
    else:
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# printing helpers
# ---------------------------------------------------------------------------


def _dmatrix_lines(M: DMatrix, fmt: str) -> list[str]:
    ents = [[format_element(M.entry(i, j)) for j in range(M.size)] for i in range(M.size)]
    if fmt == "json":
        return [json.dumps({"size": M.size, "entries": ents})]
    width = max(len(e) for row in ents for e in row)
    return ["  ".join(f"{e:<{width}}" for e in row).rstrip() for row in ents]


def _print_dmatrix(M: DMatrix, fmt: str) -> None:
    for line in _dmatrix_lines(M, fmt):
        click.echo(line)


def main() -> None:
    cli(prog_name="ckq")


if __name__ == "__main__":
    main()

"""Command-line entry point: verification suites, golden tables, data emission.

Every verify command filters one table of checks, `CHECKS`.  Reports are
streamed as JSON lines (one object per check, sorted by check id) or as a
plain table.  Exit status is 0 only when every reported check passes;
malformed flags or signatures exit with status 2.
"""

from __future__ import annotations

import cmath
import functools
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


def _entry(check: str, sig: str, residual: float, tol: float | None, **fields) -> dict:
    """One report line.  A residual passes when it is <= tol; with tol None,
    `fields` carries the verdict ("pass") of the library report."""
    passed = fields.pop("pass") if tol is None else residual <= tol
    return {"check": check, "signature": sig, "residual": float(residual), "pass": bool(passed), **fields}


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True
)
v_option = click.option("--v", "v_text", default="0.37", show_default=True)
trunc_option = click.option("--trunc", type=click.IntRange(min=0), default=8, show_default=True)


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


class _Inputs:
    """What the checks of one invocation read.  The quantum signature and the
    two seeded elements are built on first use, at most once each."""

    def __init__(self, sig_text: str, v: complex = 0j, trunc: int = 8,
                 seed: int = DEFAULT_SEED, size: int = 4) -> None:
        self.sig_text, self.v, self.vs = sig_text, v, str(v)
        self.trunc, self.seed, self.size = trunc, seed, size

    @functools.cached_property
    def sig(self) -> ParameterSignature:
        return _quantum_sig(self.sig_text)

    @functools.cached_property
    def d3(self) -> PimenovElement:
        """A seeded element of D_3 with scalar part 1.5, so logs and inverses exist."""
        rng = np.random.default_rng(self.seed)
        a = PimenovElement(3, {mask: complex(rng.normal(), rng.normal()) for mask in range(8)})
        return a + (1.5 - a.scalar_part)

    def lift(self, kernel: str) -> PimenovElement:
        return pim_apply(KERNELS[kernel], self.d3)

    @functools.cached_property
    def group(self) -> ck.CKMatrix:
        """A seeded element of SO(size; j), the signature's slots repeated or cut to size - 1."""
        sig = _parse_sig(",".join((self.sig_text.split(",") * self.size)[: self.size - 1]))
        return ck.random_group_element(sig, 6, np.random.default_rng(self.seed))

    def signature(self, suite: str) -> str:
        """The signature that the suite's checks ran at."""
        if suite == "pimenov":
            return "-"
        return str(self.group.sig if suite == "classical" else self.sig)


def _judged(report: dict, **fields) -> dict:
    """A library report's residual and its own verdict, plus the fields to print."""
    return {"residual": report["residual"], "pass": report["pass"], **fields}


def _translation_drift() -> float:
    return worst_residual(
        abs(ck.distance(w, ck.translate(w, 0.21, 0.4), ck.translate(w, -0.13, 0.4)) - ck.distance(w, 0.21, -0.13))
        for w in (1, 0, -1))


def _orbit_drift() -> float:
    drifts = []
    for plane in ("euclid", "galilei", "minkowski"):
        ref = ck.plane_invariant(plane, 0.8, 0.3)
        for _, x0, x1 in ck.orbit_sample(plane, (0.8, 0.3), np.linspace(0, 1.0, 7)):
            drifts.append(abs(ck.plane_invariant(plane, x0, x1) - ref))
    return worst_residual(drifts)


def _rank(x: _Inputs) -> dict:
    r = frtmod.rtt_rank(x.sig, x.v)
    return {"residual": float(abs(r - frtmod.FROZEN_QUOTIENT_RANK[str(x.sig)])), "rank": r, "v": x.vs}


# check id -> (suite, tolerance, compute).  `compute(inputs)` returns a bare
# residual, or a dict of report fields with "residual"; either passes when the
# residual is <= the tolerance.  A row without a tolerance returns a library
# report through `_judged`, and that report's own "pass" decides.  Rows look
# library functions up through their module when they run, so that the span
# tracer of perfbench/tracer.py, which swaps module attributes, sees each call.
CHECKS: dict[str, tuple[str, float | None, Callable[[_Inputs], float | dict]]] = {
    "pim.exp-log": ("pimenov", 1e-12, lambda x: (pim_apply(KERNELS["log"], x.lift("exp")) - x.d3).max_abs()),
    "pim.trig-identity": ("pimenov", 1e-12, lambda x: (x.lift("sin") ** 2 + x.lift("cos") ** 2 - 1).max_abs()),
    "pim.hyperbolic-identity": (
        "pimenov", 1e-12, lambda x: (x.lift("cosh") ** 2 - x.lift("sinh") ** 2 - 1).max_abs()),
    "pim.inverse": ("pimenov", 1e-12, lambda x: (x.d3 * x.d3.inv() - 1).max_abs()),
    "ck.orthogonality": ("classical", 1e-10, lambda x: ck.verify_j_orthogonality(x.group)),
    "ck.determinant": ("classical", 1e-10, lambda x: (ck.ck_det(x.group) - 1).max_abs()),
    "ck.special-shape": ("classical", 1e-10, lambda x: ck.special_shape_residual(x.group)),
    "ck.symplectic": (
        "classical", 1e-10, lambda x: ck.symplectic_orthogonality_residual(ck.to_symplectic(x.group))),
    "ck.translation-distance": ("classical", 1e-12, lambda x: _translation_drift()),
    "ck.contraction-ratio": ("classical", 0.05, lambda x: abs(
        ck.contraction_limit_demo(0.3, 1.0, 0.5, [4e-3, 2e-3, 1e-3])["steps"][-1]["ratio"] - 0.25)),
    "ck.orbit-invariant": ("classical", 1e-10, lambda x: _orbit_drift()),
    "frt.qybe": ("frt", 1e-10, lambda x: {
        "residual": frtmod.qybe_check(frtmod.rmatrix3(x.sig, x.v)), "v": x.vs}),
    "frt.confluence": ("frt", 1e-9, lambda x: {
        "residual": fa.confluence_check(frtmod.reduction_system(x.sig, x.v))["max_discrepancy"], "v": x.vs}),
    "frt.rank": ("frt", 0.5, _rank),
    "frt.counit": ("frt", 1e-12, lambda x: {"residual": frtmod.counit_residual(x.sig, x.v), "v": x.vs}),
    "frt.antipode": ("frt", None, lambda x: _judged(frtmod.antipode_check(x.sig, x.v), v=x.vs)),
    "frt.coproduct": ("frt", None, lambda x: _judged(frtmod.coproduct_compatibility(x.sig, x.v), v=x.vs)),
    "frt.contraction": (
        "frt", None, lambda x: _judged(frtmod.verify_contraction_transform(x.sig, x.v), v=x.vs)),
    "dual.pairing": ("dual", None, lambda x: _judged(dualmod.verify_pairing_table(x.sig, x.v), v=x.vs)),
    "dual.lrel": ("dual", None, lambda x: _judged(dualmod.verify_L_relations(x.sig, x.v), v=x.vs)),
    "dual.commutators": (
        "dual", None, lambda x: _judged(dualmod.verify_dual_commutators(x.sig, x.v), v=x.vs)),
    "dual.sow-hopf": ("dual", None, lambda x: _judged(
        dualmod.verify_sow_hopf(x.sig, dw=x.trunc, dx=x.trunc), truncation=x.trunc)),
    "dual.iso": ("dual", None, lambda x: _judged(
        dualmod.verify_duality_isomorphism(x.sig, dw=x.trunc), truncation=x.trunc)),
}
SUITES = list(dict.fromkeys(suite for suite, _, _ in CHECKS.values()))


def _verify(x: _Inputs, fmt: str, suite: str = "all", check: str = "all") -> None:
    """Compute and report the checks of `suite` whose id is `check` ("all" matches any)."""
    reports = []
    for cid, (in_suite, tol, compute) in CHECKS.items():
        if suite in ("all", in_suite) and check in ("all", cid):
            out = compute(x)
            fields = out if isinstance(out, dict) else {"residual": out}
            reports.append(_entry(cid, x.signature(in_suite), tol=tol, **fields))
    _report(reports, fmt)


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


def _check_command(group: click.Group, suite: str, *options) -> None:
    """Add `verify <check>|all` to `group`: one check of `suite`, or all of them."""
    names = [cid.split(".", 1)[1] for cid, (in_suite, _, _) in CHECKS.items() if in_suite == suite]

    def run(check: str, sig_text: str, v_text: str, fmt: str, **extra) -> None:
        x = _Inputs(sig_text, _parse_v(v_text), **extra)
        _verify(x, fmt, suite, check if check == "all" else f"{suite}.{check}")

    params = [click.argument("check", type=click.Choice([*names, "all"])),
              click.option("--j", "sig_text", required=True), v_option, *options, format_option]
    for param in reversed(params):
        run = param(run)
    group.command("verify", help=f"Run one (or all) of the {suite} checks.")(run)


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
@click.option("--n", "size", type=click.IntRange(2, ck.DET_SIZE_CAP), default=4, show_default=True)
@click.option("--j", "sig_text", default="1", show_default=True)
@format_option
def ck_verify(suite: str, size: int, sig_text: str, fmt: str) -> None:
    """Run the classical-group property suite."""
    _verify(_Inputs(sig_text, seed=_seed({}), size=size), fmt, suite)


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


_check_command(frt_group, "frt")


# -- dual -------------------------------------------------------------------


@cli.group(name="dual")
def dual_group() -> None:
    """Dual quantum algebra of the N=3 deformation."""


_check_command(dual_group, "dual", trunc_option)


# -- verify all -------------------------------------------------------------


@cli.command("verify")
@click.argument("suite", type=click.Choice([*SUITES, "all"]))
@click.option("--j", "sig_text", default="1,1", show_default=True)
@v_option
@trunc_option
@click.option("--config", "config_path", type=click.Path(), default=None)
@format_option
@click.pass_context
def verify(ctx: click.Context, suite: str, sig_text: str, v_text: str, trunc: int, config_path: str | None, fmt: str) -> None:
    """Run a verification suite and stream one report line per check."""
    conf = _load_config(config_path)

    def setting(name: str, key: str, value):
        # flags win; the config only replaces a value left at its default,
        # and is checked against the flag's type and range
        if key in conf and ctx.get_parameter_source(name) is ParameterSource.DEFAULT:
            return next(p for p in ctx.command.params if p.name == name).type_cast_value(ctx, conf[key])
        return value

    v = _parse_v(setting("v_text", "v", v_text))
    x = _Inputs(setting("sig_text", "signature", sig_text), v, setting("trunc", "trunc", trunc), _seed(conf))
    _verify(x, fmt, suite)


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

"""Command-line entry point: verification suites, golden tables, data emission.

Every verify command filters one table of checks, `CHECKS`.  Reports are
streamed as JSON lines (one object per check, sorted by check id) or as a
plain table.  Exit status is 0 only when every reported check passes;
malformed flags or signatures exit with status 2.
With more than one CPU, `verify all` computes the dual suite in a forked
child, byte-identical in output; a child that dies without a result exits 1.
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
CONFIG_KEYS = ("signature", "v", "trunc", "seed")


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
    _require_finite(f"deformation parameter {text!r}", v)
    return v


def _require_finite(what: str, *values: complex) -> None:
    if not all(map(cmath.isfinite, values)):
        raise click.UsageError(f"{what} is not finite")


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
                if key not in CONFIG_KEYS:
                    raise click.UsageError(
                        f"{path}:{lineno}: unknown key {key!r}; known keys: {', '.join(CONFIG_KEYS)}"
                    )
                conf[key] = val
    except OSError as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    return conf


def _seed(conf: dict) -> int:
    """The CKQW_SEED environment variable, else the config key, else DEFAULT_SEED."""
    for source, text in (("environment variable CKQW_SEED", os.environ.get("CKQW_SEED")),
                         ("config key 'seed'", conf.get("seed"))):
        if text is not None:
            try:
                return int(text)
            except ValueError:
                raise click.UsageError(f"{source} must be an integer, got {text!r}")
    return DEFAULT_SEED


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
steps_option = click.option("--steps", type=click.IntRange(min=0), default=8, show_default=True)


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


def _judged(report: dict, *keys: str, **fields) -> dict:
    """A library report's residual, its own verdict and the named report
    fields, plus the fields to print."""
    return {k: report[k] for k in ("residual", "pass", *keys)} | fields


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
    "frt.contraction": ("frt", None, lambda x: _judged(
        frtmod.verify_contraction_transform(x.sig, x.v), "relations", "terms", v=x.vs)),
    "dual.pairing": ("dual", None, lambda x: _judged(dualmod.verify_pairing_table(x.sig, x.v), v=x.vs)),
    "dual.lrel": ("dual", None, lambda x: _judged(dualmod.verify_L_relations(x.sig, x.v), v=x.vs)),
    "dual.commutators": (
        "dual", None, lambda x: _judged(dualmod.verify_dual_commutators(x.sig, x.v), v=x.vs)),
    "dual.sow-hopf": ("dual", None, lambda x: _judged(
        dualmod.verify_sow_hopf(x.sig, dw=x.trunc), truncation=x.trunc)),
    "dual.iso": ("dual", None, lambda x: _judged(
        dualmod.verify_duality_isomorphism(x.sig, dw=x.trunc), truncation=x.trunc)),
}
SUITES = list(dict.fromkeys(suite for suite, _, _ in CHECKS.values()))
# The suite that a multi-suite run computes in a second process.  It is the
# last suite of CHECKS, so an error raised by the others is the one that the
# sequential order meets first.
APART = "dual"


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _compute(x: _Inputs, rows: list[tuple]) -> list[dict]:
    """The report fields of each (check id, suite, tolerance, compute) row, in order."""
    fields = []
    for _, _, _, compute in rows:
        out = compute(x)
        fields.append(out if isinstance(out, dict) else {"residual": out})
    return fields


def _compute_beside(x: _Inputs, here: list[tuple], apart: list[tuple]) -> list[dict]:
    """`_compute(x, here + apart)`, with `apart` computed in a forked child
    while this process computes `here`.

    The child sends back its fields, or the exception it raised, pickled
    through a pipe, and leaves only through `os._exit`: it never flushes
    the buffers it inherited and never returns into the caller.  An error
    raised here wins; the child is killed and reaped before it propagates.
    A child that dies without a readable answer raises a ClickException;
    where no child can be started, this process computes `apart` too.
    """
    import pickle
    import signal

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return _compute(x, here + apart)
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                answer = ("fields", _compute(x, apart))
            except BaseException as exc:
                answer = ("raise", exc)
            try:
                data = pickle.dumps(answer)
            except Exception as exc:
                data = pickle.dumps(("broken", f"its result cannot be pickled: {exc}"))
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        fields = _compute(x, here)
        with open(r, "rb", closefd=False) as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        kind, value = pickle.loads(data)
    except Exception:
        kind, value = "broken", f"it exited with status {code} without a readable result"
    if kind == "raise":
        raise value
    if kind == "broken":
        raise click.ClickException(f"the {APART} suite's process failed: {value}")
    return fields + value


def _verify(x: _Inputs, fmt: str, suite: str = "all", check: str = "all") -> None:
    """Compute and report the checks of `suite` whose id is `check` ("all" matches any).

    When they span the `APART` suite and another one, and more than one CPU
    is available, the `APART` suite runs in a forked child meanwhile."""
    rows = [(cid, *row) for cid, row in CHECKS.items() if suite in ("all", row[0]) and check in ("all", cid)]
    # every input is parsed before any check runs, so no usage error reaches a child
    sigs = {in_suite: x.signature(in_suite) for _, in_suite, _, _ in rows}
    here = [row for row in rows if row[1] != APART]
    apart = [row for row in rows if row[1] == APART]
    if here and apart and _cpus() > 1:
        fields = _compute_beside(x, here, apart)
    else:
        fields = _compute(x, here + apart)
    reports = [_entry(cid, sigs[in_suite], tol=tol, **out)
               for (cid, in_suite, tol, _), out in zip(here + apart, fields)]
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
    _require_finite(f"the value of {expr!r}", *val.coeffs.values())
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
    _require_finite("--phi", phi)
    sig = _parse_sig(sig_text)
    if sig.n_slots != size - 1:
        raise click.UsageError(f"signature needs {size - 1} slots for N={size}")
    try:
        mu, nu = (int(p) for p in plane.split(","))
        A = ck.elementary_rotation(sig, mu, nu, phi)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_lines(_dmatrix_lines(A.mat, fmt))


@ck_group.command("orbit")
@click.option("--plane", type=click.Choice(["euclid", "galilei", "minkowski"]), required=True)
@click.option("--from", "start", default="1,0", show_default=True, help="x0,x1")
@steps_option
@click.option("--phi-max", type=float, default=1.0, show_default=True)
def ck_orbit(plane: str, start: str, steps: int, phi_max: float) -> None:
    """Emit CSV points phi,x0,x1 along a one-parameter orbit."""
    _require_finite("--phi-max", phi_max)
    _echo_lines(_orbit_lines(plane, start, steps, phi_max))


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
    _echo_lines(_rmatrix_lines(sig_text, v_text, fmt))


@frt_group.command("relations")
@click.option("--j", "sig_text", required=True)
@click.option("--v", "v_text", required=True)
def frt_relations(sig_text: str, v_text: str) -> None:
    """Emit the quadratic defining relations as JSON."""
    _echo_lines(_relations_lines(sig_text, v_text))


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


EMIT_FORMATS = {"rmatrix": ("table", "json"), "relations": ("json",), "orbit": ("csv",), "pairing-table": ("table", "json")}


@cli.command("emit")
@click.argument("what", type=click.Choice(list(EMIT_FORMATS)))
@click.option("--j", "sig_text", default="1,1", show_default=True)
@click.option("--v", "v_text", default="0.37", show_default=True)
@click.option("--plane", type=click.Choice(["euclid", "galilei", "minkowski"]), default="euclid")
@click.option("--from", "start", default="1,0", show_default=True)
@steps_option
@click.option("--format", "fmt", type=click.Choice(["json", "table", "csv"]), help="default: the data set's own format")
@click.option("--out", "out_path", type=click.Path(), default=None, help="write to file instead of stdout")
def emit(what: str, sig_text: str, v_text: str, plane: str, start: str, steps: int, fmt: str, out_path: str | None) -> None:
    """Reproduce one of the reference tables or data sets."""
    fmt = fmt or EMIT_FORMATS[what][0]
    if fmt not in EMIT_FORMATS[what]:
        raise click.UsageError(f"emit {what} accepts --format {' or '.join(EMIT_FORMATS[what])}, not {fmt}")
    if what == "rmatrix":
        lines = _rmatrix_lines(sig_text, v_text, fmt)
    elif what == "relations":
        lines = _relations_lines(sig_text, v_text)
    elif what == "orbit":
        lines = _orbit_lines(plane, start, steps, 1.0)
    else:
        lines = _pairing_lines(sig_text, v_text, fmt)
    _echo_lines(lines, out_path)


# ---------------------------------------------------------------------------
# data sets: one line builder each, printed by its own command and by emit
# ---------------------------------------------------------------------------


def _dmatrix_lines(M: DMatrix, fmt: str) -> list[str]:
    ents = [[format_element(M.entry(i, j)) for j in range(M.size)] for i in range(M.size)]
    if fmt == "json":
        return [json.dumps({"size": M.size, "entries": ents})]
    width = max(len(e) for row in ents for e in row)
    return ["  ".join(f"{e:<{width}}" for e in row).rstrip() for row in ents]


def _rmatrix_lines(sig_text: str, v_text: str, fmt: str) -> list[str]:
    return _dmatrix_lines(frtmod.rmatrix3(_quantum_sig(sig_text), _parse_v(v_text)).mat, fmt)


def _relations_lines(sig_text: str, v_text: str) -> list[str]:
    return [frtmod.relations_json_str(frtmod.full_relations(_quantum_sig(sig_text), _parse_v(v_text)))]


def _orbit_lines(plane: str, start: str, steps: int, phi_max: float) -> list[str]:
    try:
        x0, x1 = (float(p) for p in start.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse start point {start!r}")
    _require_finite("--from", x0, x1)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = ck.orbit_sample(plane, (x0, x1), np.linspace(0.0, phi_max, steps))
    if not np.isfinite(rows).all():
        raise click.UsageError(f"the orbit from {start} overflows: a point is not finite")
    return ["phi,x0,x1"] + [f"{phi:.12g},{a:.12g},{b:.12g}" for phi, a, b in rows]


def _pairing_lines(sig_text: str, v_text: str, fmt: str) -> list[str]:
    sig = _quantum_sig(sig_text)
    table = dualmod.pairing_table(sig, _parse_v(v_text))
    values = {
        entry: format_element(frtmod.mono_eval(sig, (c * kern, e1, e2)))
        for entry, (c, e1, e2, kern) in sorted(table.items())
    }
    if fmt == "json":
        return [json.dumps({f"{atom}({comp})": val for (atom, comp), val in values.items()}, sort_keys=True)]
    return [f"{atom:<7} {comp:<5} {val}" for (atom, comp), val in values.items()]


def _echo_lines(lines: list[str], out_path: str | None = None) -> None:
    """Print the lines, or write them to out_path."""
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out_path}: {exc}")
    else:
        click.echo(text, nl=False)


def main() -> None:
    cli(prog_name="ckq")


if __name__ == "__main__":
    main()

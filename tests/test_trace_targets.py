"""The benchmark tracer (perfbench/tracer.py) patches ckq by name; these
tests fail when a rename or a held function reference would break it."""

import importlib
import importlib.util
from pathlib import Path

from click.testing import CliRunner

from ckq.cli import cli
from ckq.pimenov import ParameterSignature


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _load_tracer()
    for modname, fname, _ in tracer.MODULE_SPANS:
        assert callable(getattr(importlib.import_module(modname), fname)), (modname, fname)
    for modname, clsname, meth, _ in tracer.CLASS_SPANS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(cls.__dict__[meth]), (modname, clsname, meth)
    cli_mod = importlib.import_module("ckq.cli")
    assert callable(cli_mod._entry) and callable(cli_mod._report)


def test_traced_run_counts_checks_and_library_calls():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    tr.install()
    try:
        runner = CliRunner()
        res, gate = tr.run_op(0, lambda: runner.invoke(cli, ["verify", "pimenov"]))
        assert res.exit_code == 0 and gate is None, res.output
        # each kernel is lifted once: exp, log, sin, cos, sinh, cosh
        assert tr.metrics()["pimenov.pim_apply.calls"] == 6
        res, gate = tr.run_op(1, lambda: runner.invoke(cli, ["frt", "verify", "qybe", "--j", "n,n"]))
        assert res.exit_code == 0 and gate is None, res.output
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["cli.checks_computed"] == m["cli.checks_reported"] == 5
    assert m["frt.qybe.calls"] == 1


def test_traced_run_reads_the_memos_of_the_hooked_classes():
    # the tracer hooks these __init__s and reads these memos after each op
    from ckq import dual, free_algebra

    tracer = _load_tracer()
    tr = tracer.Tracer()
    tr.install()
    try:
        for cls in (free_algebra.ReductionSystem, dual.SowAlgebra):
            assert cls.__dict__["__init__"].__perfbench_traced__, cls
        runner = CliRunner()
        # a v no other test uses, so the quotient is built inside this op
        for op_id, args in enumerate((["frt", "verify", "confluence", "--j", "n,n", "--v", "0.4321"],
                                      ["dual", "verify", "sow-hopf", "--j", "n,n", "--trunc", "2"])):
            res, gate = tr.run_op(op_id, lambda: runner.invoke(cli, args))
            assert res.exit_code == 0 and gate is None, res.output
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["free_algebra.nf_memo.entries"] > 0 and m["free_algebra.nf_memo.hit_ratio"] > 0
    assert m["dual.push_memo.entries"] > 0 and m["dual.mono_memo.hit_ratio"] > 0

    rs = free_algebra.ReductionSystem(1, 1, {})
    assert set(rs._memo) == {"left", "right"}
    alg = dual.SowAlgebra(ParameterSignature.parse("n,n"), dw=2, dx=2)
    assert alg._push01_memo == alg._push02_memo == alg._mono_memo == {}

"""The benchmark tracer (perfbench/tracer.py) patches ckq by name; these
tests fail when a rename or a held function reference would break it."""

import importlib
import importlib.util
from pathlib import Path

from click.testing import CliRunner

from ckq.cli import cli


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

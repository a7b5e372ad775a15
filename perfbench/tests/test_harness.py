"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Checks that the generator is deterministic, that bad operations are
counted as failures (never dropped), that tracing reports every declared
metric and restores every wrapped function, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import validate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shape(cycle):
    """What decides an operation's cost: command, signature and sizes, not the drawn numbers."""
    return sorted(
        (op["args"][0], op["args"][1], op["sig"], op.get("n", 0), op.get("size", 0),
         op.get("kernel", ""), op.get("inv", False), tuple(op.get("ids", ())))
        for op in cycle
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_op_list(workload):
    a = workloads.first_cycles(workload, 5, 2)
    b = workloads.first_cycles(workload, 5, 2)
    c = workloads.first_cycles(workload, 6, 2)
    assert a == b
    assert workloads.digest(a[0] + a[1]) == workloads.digest(b[0] + b[1])
    assert workloads.digest(a[0]) != workloads.digest(c[0])
    # the seed draws numbers and order only; every cycle has the same structure
    assert _shape(a[0]) == _shape(a[1]) == _shape(c[0])


def test_no_quantum_input_repeats_within_a_run():
    for workload in workloads.WORKLOADS:
        ops = [op for cyc in workloads.first_cycles(workload, 1, 3) for op in cyc]
        quantum = [tuple(op["args"]) for op in ops if "--v" in op["args"]]
        assert len(quantum) == len(set(quantum))


def test_quick_checks_mix():
    cycle = workloads.first_cycles("quick-checks", 1, 1)[0]
    quantum = [op for op in cycle if op["args"][0] in ("frt", "dual") and op["args"][1] == "verify"]
    # a run is one cycle of about 45 s: 100 operations give op_p90_s ten samples beyond it
    assert len(cycle) == 100
    assert len(quantum) == 17
    assert sorted(op["args"][2] for op in quantum if op["args"][0] == "frt") == sorted(
        ("qybe", "antipode", "coproduct", "confluence", "contraction"))
    assert {op["sig"] for op in quantum if op["args"][0] == "frt"} == {"1,1"}
    assert {op["sig"] for op in cycle} >= set(workloads.QUANTUM_SIGS)


def test_element_decoding():
    # a ' - ' separator is the leading minus of the next literal
    got = validate.parse_element("1.3+0.2j - 0.5+0.3j*i1 + 0.7*i2 - 2.0*i1*i2", 2)
    assert got == {0: 1.3 + 0.2j, 1: -0.5 + 0.3j, 2: 0.7, 3: -2.0}
    # a printer that parenthesises complex coefficients still decodes the same
    assert validate.parse_element("(1.3+0.2j) + (-0.5+0.3j)*i1 - 2.0*i1*i2", 2) == {
        0: 1.3 + 0.2j, 1: -0.5 + 0.3j, 3: -2.0}
    with pytest.raises(ValueError):
        validate.parse_element("1.0 + 2.0*i3", 2)


@pytest.fixture(scope="module")
def cli():
    from click.testing import CliRunner

    return CliRunner(), worker.load_cli()


def test_bad_op_counts_as_failed(cli, monkeypatch):
    good = workloads._verify(["frt", "verify", "qybe", "--j", "n,n", "--v", "0.3"], "n,n",
                             ["frt.qybe"])
    bad_v = dict(good, args=["frt", "verify", "qybe", "--j", "n,n", "--v", "zz"])
    bad_ids = dict(good, ids=["frt.qybe", "frt.rank"])
    monkeypatch.setitem(workloads._CYCLES, "dual-deep", lambda rng: [bad_v, good, bad_ids])
    res = worker.run("dual-deep", 0, 0.0)
    assert [r["ok"] for r in res["records"]] == [False, True, False]
    assert res["records"][0]["reason"].startswith("exit 2")
    assert res["records"][0]["args"] == bad_v["args"]
    assert "check ids" in res["records"][2]["reason"]


def test_end_to_end_metrics_have_names_and_units():
    recs = [{"sig": s, "dur": 0.1 + i / 100, "ok": True}
            for i, s in enumerate(workloads.QUANTUM_SIGS * 3)]
    values = run.end_to_end({"records": recs, "peak_rss_mb": 50.0}, [0.2, 0.3])
    assert set(values) >= {m["name"] for m in SPEC["end_to_end"]}
    assert {"op_p50_s", "sig_mean_s.j1n", "sig_mean_s.jn1", "sig_mean_s.jnn"} <= set(values)
    assert all(v > 0 for v in values.values())
    assert all(m["unit"] and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    # the 90th percentile is reported only with ten samples or more beyond it
    assert "op_p90_s" not in values
    values = run.end_to_end({"records": recs * 9, "peak_rss_mb": 50.0}, [0.2, 0.3])
    assert values["op_p90_s"] > values["op_p50_s"]


def _snapshot():
    mods = {n: m for n, m in sys.modules.items() if n == "ckq" or n.startswith("ckq.")}
    snap = {}
    for name, mod in mods.items():
        for attr, val in vars(mod).items():
            snap[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for k, v in vars(val).items():
                    snap[(name, attr, k)] = v
    return snap


def test_traced_ops_report_every_layer_metric_and_restore(cli):
    runner, cli_cmd = cli
    before = _snapshot()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert _snapshot() != before
        ops = [
            workloads._verify(["frt", "verify", "qybe", "--j", "n,n", "--v", "0.41-0.2i"],
                              "n,n", ["frt.qybe"]),
            workloads._verify(["dual", "verify", "pairing", "--j", "1,n", "--v", "0.3"],
                              "1,n", ["dual.pairing"]),
            workloads._verify(["ck", "verify", "classical", "--n", "4", "--j", "1,n,i"],
                              "-", workloads.CK_IDS),
        ]
        recs = [worker.run_op(runner, cli_cmd, op, i, tr) for i, op in enumerate(ops)]
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after == before
    assert not [k for k, v in after.items() if getattr(v, "__perfbench_traced__", False)]
    assert all(r["ok"] for r in recs), recs

    m = tr.metrics()
    assert m["cli.checks_computed"] == 7 + 5 + 7
    assert m["cli.checks_reported"] == 1 + 1 + 7
    assert m["free_algebra.build_reduction.calls"] == 3
    assert m["free_algebra.rules.jnn"] == 114
    assert m["free_algebra.confluence.words"] == 729
    assert m["frt.reduction_system.calls"] == 3
    assert m["dual.ser_mul.calls"] > 0 and m["dmat.matmul.calls"] > 0
    # self times add up to the wall time of the root spans
    roots = [i for i, p in enumerate(tr.span_parent) if p == -1]
    wall = sum(tr.span_end[i] - tr.span_start[i] for i in roots)
    assert m["trace.self_total_s"] == pytest.approx(wall, rel=1e-9)

    base = {"records": recs}
    values = run.per_layer({"layers": m, "records": recs}, base)
    assert set(values) >= {d["name"] for d in SPEC["per_layer"]}


def test_gate_mismatch_fails_the_op(cli, monkeypatch):
    runner, cli_cmd = cli
    monkeypatch.setitem(tracer_mod.FROZEN_RANK, "n,n", 30)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        op = workloads._verify(["frt", "verify", "qybe", "--j", "n,n", "--v", "0.2"], "n,n",
                               ["frt.qybe"])
        rec = worker.run_op(runner, cli_cmd, op, 0, tr)
    finally:
        tr.uninstall()
    assert not rec["ok"] and "frt.rank 29 != 30" in rec["reason"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dual-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end tests of the command-line interface."""

import json
import os
import time

import pytest
from click.testing import CliRunner

from ckq import dual, free_algebra, frt
from ckq.cli import APART, CHECKS, SUITES, cli


@pytest.fixture
def runner():
    return CliRunner()


def lines_of(result):
    return [ln for ln in result.output.splitlines() if ln.strip()]


# -- pim --------------------------------------------------------------------


def test_pim_eval(runner):
    res = runner.invoke(cli, ["pim", "eval", "1 + 2*i1 - 0.5*i1*i2"])
    assert res.exit_code == 0
    assert "i1" in res.output


def test_pim_eval_exp(runner):
    res = runner.invoke(cli, ["pim", "eval", "i1", "--apply", "exp"])
    assert res.exit_code == 0
    assert res.output.startswith("1")


def test_pim_eval_bad_expression(runner):
    res = runner.invoke(cli, ["pim", "eval", "1 + * 2"])
    assert res.exit_code == 2


@pytest.mark.parametrize("expr", ["1 +", "", "(1", "2*"])
def test_pim_eval_truncated_expression_is_usage_error(runner, expr):
    res = runner.invoke(cli, ["pim", "eval", "--", expr])
    assert res.exit_code == 2
    assert "unexpected end of expression" in res.output


@pytest.mark.parametrize("expr", ["1e999", "1e308*10", "1e999*i1"])
def test_pim_eval_non_finite_value_is_usage_error(runner, expr):
    res = runner.invoke(cli, ["pim", "eval", expr])
    assert res.exit_code == 2
    assert "not finite" in res.output


# -- ck ---------------------------------------------------------------------


def test_ck_rotate_table(runner):
    res = runner.invoke(
        cli,
        ["ck", "rotate", "--n", "3", "--j", "1,1", "--plane", "1,2", "--phi", "0.3", "--format", "table"],
    )
    assert res.exit_code == 0
    assert len(lines_of(res)) == 3


def test_ck_orbit_csv_invariant(runner):
    res = runner.invoke(
        cli, ["ck", "orbit", "--plane", "minkowski", "--from", "1,0", "--steps", "5"]
    )
    assert res.exit_code == 0
    rows = lines_of(res)
    assert rows[0] == "phi,x0,x1"
    for row in rows[1:]:
        _, x0, x1 = (float(p) for p in row.split(","))
        assert abs(x0 * x0 - x1 * x1 - 1.0) <= 1e-9


@pytest.mark.parametrize("args, flag", [
    (["ck", "rotate", "--n", "3", "--j", "1,1", "--plane", "1,2", "--phi", "nan"], "--phi"),
    (["ck", "rotate", "--n", "3", "--j", "n,1", "--plane", "1,2", "--phi", "inf"], "--phi"),
    (["ck", "orbit", "--plane", "euclid", "--phi-max", "nan"], "--phi-max"),
    (["ck", "orbit", "--plane", "euclid", "--from", "inf,1"], "--from"),
    (["emit", "orbit", "--from", "1,nan"], "--from"),
])
def test_non_finite_angle_or_point_is_usage_error(runner, args, flag):
    res = runner.invoke(cli, args)
    assert res.exit_code == 2
    assert f"{flag} is not finite" in res.output


@pytest.mark.parametrize("args", [
    ["ck", "orbit", "--plane", "minkowski", "--from", "1e308,1e308", "--phi-max", "1", "--steps", "2"],
    ["emit", "orbit", "--plane", "minkowski", "--from", "1e308,1e308", "--steps", "3"],
])
def test_overflowing_orbit_is_usage_error(runner, args):
    # finite input whose rotated points overflow to inf
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert "overflows" in res.output and ",inf" not in res.output


def test_ck_verify_classical(runner):
    res = runner.invoke(cli, ["ck", "verify", "classical", "--n", "4"])
    assert res.exit_code == 0
    for ln in lines_of(res):
        assert json.loads(ln)["pass"]


# -- exit-code contract -----------------------------------------------------


def test_unknown_signature_token_is_usage_error(runner):
    res = runner.invoke(cli, ["verify", "all", "--j", "1,x"])
    assert res.exit_code == 2


def test_imaginary_slot_rejected_by_quantum_commands(runner):
    res = runner.invoke(cli, ["frt", "verify", "qybe", "--j", "1,i"])
    assert res.exit_code == 2
    assert "1 and n" in res.output


def test_overflowing_v_is_usage_error(runner):
    res = runner.invoke(cli, ["verify", "frt", "--j", "1,1", "--v", "1e3"])
    assert res.exit_code == 2, res.output
    assert "outside the supported range" in res.output


@pytest.mark.parametrize("v_text", ["nan", "1e400", "1+nani"])
def test_non_finite_v_is_usage_error(runner, v_text):
    res = runner.invoke(cli, ["verify", "frt", "--j", "1,1", "--v", v_text])
    assert res.exit_code == 2, res.output
    assert "not finite" in res.output


def test_inconsistent_ideal_is_usage_error(runner, monkeypatch):
    def inconsistent(sig, v):
        raise free_algebra.InconsistentIdeal("a bare constant survived row reduction")

    monkeypatch.setattr(frt, "reduction_system", inconsistent)
    res = runner.invoke(cli, ["frt", "verify", "confluence", "--j", "n,n"])
    assert res.exit_code == 2, res.output
    assert "bare constant" in res.output


def test_non_terminating_rewriting_is_usage_error(runner):
    # at |v| = 1e-5 the 1,1 relations are nearly dependent and rewriting never ends
    res = runner.invoke(cli, ["verify", "frt", "--j", "1,1", "--v", "1e-5"])
    assert res.exit_code == 2, res.output
    assert "did not terminate" in res.output


def test_verify_all_contracted(runner):
    res = runner.invoke(cli, ["verify", "all", "--j", "n,n"])
    assert res.exit_code == 0, res.output
    reports = [json.loads(ln) for ln in lines_of(res)]
    assert len(reports) >= 20
    assert all(r["pass"] for r in reports)
    assert [r["check"] for r in reports] == sorted(r["check"] for r in reports)


def test_verify_all_trivial(runner):
    res = runner.invoke(cli, ["verify", "all", "--j", "1,1", "--v", "0.37"])
    assert res.exit_code == 0, res.output


def test_reports_deterministic(runner):
    args = ["verify", "frt", "--j", "1,n", "--v", "0.37"]
    out1 = runner.invoke(cli, args).output
    out2 = runner.invoke(cli, args).output
    assert out1 == out2


# -- frt --------------------------------------------------------------------


def test_frt_rmatrix_json(runner):
    res = runner.invoke(cli, ["frt", "rmatrix", "--j", "1,1", "--v", "0.37", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 9


def test_frt_relations_schema(runner):
    res = runner.invoke(cli, ["frt", "relations", "--j", "1,n", "--v", "0.37"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    term = data["relations"][0]["terms"][0]
    assert set(term) == {"iota", "word", "re", "im"}


def test_frt_verify_single_check(runner):
    res = runner.invoke(cli, ["frt", "verify", "qybe", "--j", "n,1", "--v", "0.61+0.29i"])
    assert res.exit_code == 0
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "frt.qybe" and report["pass"]


def test_frt_verify_computes_only_the_requested_check(runner, monkeypatch):
    def no_quotient(sig, v):
        raise AssertionError("the quotient is not needed for the contraction check")

    monkeypatch.setattr(frt, "reduction_system", no_quotient)
    res = runner.invoke(cli, ["frt", "verify", "contraction", "--j", "1,1"])
    assert res.exit_code == 0, res.output
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "frt.contraction" and report["pass"]


@pytest.mark.parametrize("check", ["antipode", "coproduct"])
def test_frt_degree_two_checks_need_no_completion(runner, monkeypatch, check):
    def no_completion(sig, v):
        raise AssertionError(f"the {check} check reads only the quadratic rules")

    monkeypatch.setattr(frt, "reduction_system", no_completion)
    res = runner.invoke(cli, ["frt", "verify", check, "--j", "1,1", "--v", "0.43-0.21i"])
    assert res.exit_code == 0, res.output
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == f"frt.{check}" and report["pass"]


# -- dual -------------------------------------------------------------------


def test_dual_verify_single_check(runner):
    res = runner.invoke(
        cli, ["dual", "verify", "commutators", "--j", "n,n", "--v", "0.37"]
    )
    assert res.exit_code == 0
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "dual.commutators" and report["pass"]


def test_dual_verify_truncation_flag(runner):
    res = runner.invoke(
        cli, ["dual", "verify", "sow-hopf", "--j", "1,1", "--trunc", "6"]
    )
    assert res.exit_code == 0
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["truncation"] == 6


# -- verify all in two processes ---------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """The pids `os.fork` returns to the parent, in order."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def run_forked_and_sequential(runner, monkeypatch, forks, args):
    """The run with two CPUs (the dual suite in a child) and with one."""
    monkeypatch.setattr("ckq.cli._cpus", lambda: 2)
    forked = runner.invoke(cli, args)
    assert len(forks) == 1
    monkeypatch.setattr("ckq.cli._cpus", lambda: 1)
    sequential = runner.invoke(cli, args)
    assert len(forks) == 1
    assert (forked.exit_code, forked.stdout, forked.output) == (
        sequential.exit_code, sequential.stdout, sequential.output)
    return forked


def test_the_suite_apart_comes_last():
    # so that an error of the other suites is the first in CHECKS order
    assert SUITES[-1] == APART == "dual"


@pytest.mark.parametrize("sig_text", ["1,1", "1,n", "n,1", "n,n"])
def test_verify_all_forked_prints_what_sequential_prints(runner, monkeypatch, forks, sig_text):
    for fmt in ("json", "table"):
        res = run_forked_and_sequential(runner, monkeypatch, forks, ["verify", "all", "--j", sig_text, "--format", fmt])
        assert res.exit_code == 0, res.output
        assert len(lines_of(res)) == len(CHECKS)
        forks.clear()


def test_verify_all_runs_in_one_process_where_fork_fails(runner, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr("ckq.cli._cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    failed = runner.invoke(cli, ["verify", "all", "--j", "n,n"])
    monkeypatch.setattr("ckq.cli._cpus", lambda: 1)
    sequential = runner.invoke(cli, ["verify", "all", "--j", "n,n"])
    assert failed.exit_code == 0, failed.output
    assert failed.output == sequential.output


@pytest.mark.parametrize("verify_args", [["verify", "dual"], ["dual", "verify", "all"], ["verify", "frt"]])
def test_a_single_suite_runs_in_one_process(runner, monkeypatch, forks, verify_args):
    monkeypatch.setattr("ckq.cli._cpus", lambda: 2)
    res = runner.invoke(cli, [*verify_args, "--j", "n,n"])
    assert res.exit_code == 0, res.output
    assert forks == []


def test_failed_dual_check_forked_prints_what_sequential_prints(runner, monkeypatch, forks):
    monkeypatch.setattr(dual, "verify_L_relations", lambda sig, v: {"residual": 0.5, "pass": False})
    res = run_forked_and_sequential(runner, monkeypatch, forks, ["verify", "all", "--j", "n,n", "--format", "table"])
    assert res.exit_code == 1
    assert "dual.lrel" in res.output and "FAIL" in res.output


@pytest.mark.parametrize("error", [OverflowError("math range error in the dual suite"),
                                   free_algebra.NonTerminatingRules("the dual rewriting did not terminate")])
def test_domain_error_in_dual_check_exits_2(runner, monkeypatch, forks, error):
    def raises(sig, dw=8):
        raise error

    monkeypatch.setattr(dual, "verify_sow_hopf", raises)
    res = run_forked_and_sequential(runner, monkeypatch, forks, ["verify", "all", "--j", "n,n"])
    assert res.exit_code == 2
    assert f"parameters outside the supported range: {error}" in res.output


@pytest.mark.parametrize("dual_side", ["raises", "hangs"])
def test_frt_error_wins_and_the_child_is_reaped(runner, monkeypatch, forks, dual_side):
    def frt_raises(sig, v):
        raise OverflowError("the frt side overflowed")

    def dual_check(sig, dw=8):
        if dual_side == "raises":
            raise free_algebra.NonTerminatingRules("the dual side did not terminate")
        time.sleep(60)

    monkeypatch.setattr(frt, "counit_residual", frt_raises)
    monkeypatch.setattr(dual, "verify_duality_isomorphism", dual_check)
    t0 = time.monotonic()
    res = run_forked_and_sequential(runner, monkeypatch, forks, ["verify", "all", "--j", "n,n"])
    assert time.monotonic() - t0 < 30  # the parent killed the child instead of waiting for it
    assert res.exit_code == 2
    assert "the frt side overflowed" in res.output and "dual side" not in res.output
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)  # already reaped


def _exits(sig, v):
    os._exit(3)


def _unpicklable_report(sig, v):
    return {"residual": lambda: 0.0, "pass": True}


def _unpicklable_error(sig, v):
    raise type("Unpicklable", (Exception,), {})("raised in the dual suite")


@pytest.mark.parametrize("check, reason", [
    (_exits, "exited with status 3"),
    (_unpicklable_report, "cannot be pickled"),
    (_unpicklable_error, "cannot be pickled"),
])
def test_a_broken_dual_process_fails_visibly(runner, monkeypatch, forks, check, reason):
    monkeypatch.setattr("ckq.cli._cpus", lambda: 2)
    monkeypatch.setattr(dual, "verify_pairing_table", check)
    res = runner.invoke(cli, ["verify", "all", "--j", "n,n"])
    assert len(forks) == 1
    assert res.exit_code == 1
    assert "the dual suite's process failed" in res.output and reason in res.output
    assert '"pass"' not in res.output


# -- emit -------------------------------------------------------------------


@pytest.mark.parametrize("emit_args, own_args", [
    (["rmatrix", "--j", "1,n", "--format", "json"], ["frt", "rmatrix", "--j", "1,n", "--v", "0.37", "--format", "json"]),
    (["rmatrix", "--j", "n,1", "--format", "table"], ["frt", "rmatrix", "--j", "n,1", "--v", "0.37", "--format", "table"]),
    (["relations", "--j", "n,n"], ["frt", "relations", "--j", "n,n", "--v", "0.37"]),
    (["orbit", "--plane", "galilei", "--from", "0.8,0.3", "--steps", "5"],
     ["ck", "orbit", "--plane", "galilei", "--from", "0.8,0.3", "--steps", "5"]),
])
def test_emit_prints_what_the_data_set_command_prints(runner, emit_args, own_args):
    emitted = runner.invoke(cli, ["emit", *emit_args])
    own = runner.invoke(cli, own_args)
    assert emitted.exit_code == own.exit_code == 0, (emitted.output, own.output)
    assert emitted.output == own.output



def test_emit_contracted_rmatrix_structure(runner):
    res = runner.invoke(cli, ["emit", "rmatrix", "--j", "n,1", "--v", "1", "--format", "table"])
    assert res.exit_code == 0
    rows = lines_of(res)
    assert len(rows) == 9
    assert "i1" in res.output  # nilpotent first-order structure visible


def test_emit_pairing_table_json(runner):
    res = runner.invoke(cli, ["emit", "pairing-table", "--j", "1,1", "--v", "0.37", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert "l11(t22)" in data


@pytest.mark.parametrize("what, fmt", [
    ("rmatrix", "csv"), ("pairing-table", "csv"), ("relations", "table"), ("relations", "csv"),
    ("orbit", "json"), ("orbit", "table"),
])
def test_emit_rejects_a_format_its_data_set_cannot_produce(runner, what, fmt):
    res = runner.invoke(cli, ["emit", what, "--format", fmt])
    assert res.exit_code == 2
    assert f"emit {what} accepts --format" in res.output and f"not {fmt}" in res.output


@pytest.mark.parametrize("args", [
    ["ck", "orbit", "--plane", "euclid", "--steps", "-1"],
    ["emit", "orbit", "--steps", "-1"],
])
def test_negative_orbit_steps_is_a_usage_error(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 2
    assert "Invalid value for '--steps'" in res.output


def test_emit_orbit_to_file(runner, tmp_path):
    out = tmp_path / "orbit.csv"
    res = runner.invoke(
        cli, ["emit", "orbit", "--plane", "euclid", "--steps", "4", "--out", str(out)]
    )
    assert res.exit_code == 0
    assert out.read_text().startswith("phi,x0,x1")


# -- config file ------------------------------------------------------------


def test_config_file_keys(runner, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("signature = n,n\nseed = 1234\n# comment\n")
    res = runner.invoke(cli, ["verify", "classical", "--config", str(conf)])
    assert res.exit_code == 0


def test_flags_win_over_config(runner, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("signature = n,n\n")

    def signatures(args):
        res = runner.invoke(cli, ["verify", "classical", "--config", str(conf)] + args)
        assert res.exit_code == 0, res.output
        return {json.loads(ln)["signature"] for ln in lines_of(res)}

    # a flag given at its default value still wins; an absent flag defers to the file
    assert signatures(["--j", "1,1"]) == {"1,1,1"}
    assert signatures([]) == {"n,n,n"}


def test_config_file_parse_error(runner, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("this is not a key value pair\n")
    res = runner.invoke(cli, ["verify", "classical", "--config", str(conf)])
    assert res.exit_code == 2
    assert "key=value" in res.output


def test_unknown_config_key_is_usage_error(runner, tmp_path):
    # a misspelt key must not silently run the defaults
    conf = tmp_path / "run.conf"
    conf.write_text("sigature = n,n\n")
    res = runner.invoke(cli, ["verify", "classical", "--config", str(conf)])
    assert res.exit_code == 2, res.output
    assert "'sigature'" in res.output
    assert "signature, v, trunc, seed" in res.output


def test_non_integer_seed_in_config_is_usage_error(runner, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = abc\n")
    res = runner.invoke(cli, ["verify", "pimenov", "--config", str(conf)])
    assert res.exit_code == 2, res.output
    assert "config key 'seed'" in res.output and "'abc'" in res.output


def test_non_integer_seed_in_environment_is_usage_error(runner):
    res = runner.invoke(cli, ["ck", "verify", "classical"], env={"CKQW_SEED": "x"})
    assert res.exit_code == 2, res.output
    assert "CKQW_SEED" in res.output and "'x'" in res.output


# -- option ranges ------------------------------------------------------------


@pytest.mark.parametrize("size", ["1", "7"])
def test_classical_size_out_of_range_is_usage_error(runner, size):
    res = runner.invoke(cli, ["ck", "verify", "classical", "--n", size])
    assert res.exit_code == 2, res.output
    assert "not in the range 2<=x<=6" in res.output


@pytest.mark.parametrize("args", [
    ["dual", "verify", "iso", "--j", "1,1", "--trunc", "-1"],
    ["verify", "dual", "--trunc", "-1"],
])
def test_negative_truncation_is_usage_error(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert "not in the range x>=0" in res.output


def test_negative_truncation_from_config_is_usage_error(runner, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("trunc = -1\n")
    res = runner.invoke(cli, ["verify", "dual", "--config", str(conf)])
    assert res.exit_code == 2, res.output
    assert "not in the range x>=0" in res.output


# -- the check table ------------------------------------------------------------


def test_library_verdict_decides(runner, monkeypatch):
    # a zero residual with failed rank conditions must not pass
    monkeypatch.setattr(frt, "verify_contraction_transform", lambda sig, v: {"residual": 0.0, "pass": False})
    res = runner.invoke(cli, ["frt", "verify", "contraction", "--j", "1,1"])
    assert res.exit_code == 1, res.output
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "frt.contraction" and report["pass"] is False


def test_frt_verify_rank_and_counit(runner):
    res = runner.invoke(cli, ["frt", "verify", "rank", "--j", "n,n"])
    assert res.exit_code == 0, res.output
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "frt.rank" and report["pass"] and report["rank"] == 29
    res = runner.invoke(cli, ["frt", "verify", "counit", "--j", "1,n"])
    assert res.exit_code == 0, res.output
    (report,) = [json.loads(ln) for ln in lines_of(res)]
    assert report["check"] == "frt.counit" and report["pass"]


@pytest.fixture(scope="module")
def verify_all_ids():
    res = CliRunner().invoke(cli, ["verify", "all", "--j", "n,n"])
    assert res.exit_code == 0, res.output
    return [json.loads(ln)["check"] for ln in lines_of(res)]


@pytest.mark.parametrize("cid", sorted(CHECKS))
def test_every_check_reaches_every_command(runner, verify_all_ids, cid):
    assert verify_all_ids.count(cid) == 1
    suite, name = CHECKS[cid][0], cid.split(".", 1)[1]
    if suite in ("frt", "dual"):
        res = runner.invoke(cli, [suite, "verify", name, "--j", "n,n"])
        assert res.exit_code == 0, res.output
        assert [json.loads(ln)["check"] for ln in lines_of(res)] == [cid]

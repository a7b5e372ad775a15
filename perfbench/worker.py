"""One workload process: runs operations through the ckq CLI in-process.

Usage (normally started by run.py, which sets the thread environment):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace-out FILE]

Runs whole cycles and stops at the cycle boundary nearest to S seconds
(S = 0: exactly one cycle).
With --trace-out every layer is wrapped by tracer.Tracer and the spans are
written to FILE at the end.  A single client runs a closed loop: the next
operation starts when the previous one has returned.  The last line of
standard output is one JSON object with a record per operation.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import validate  # noqa: E402
import workloads  # noqa: E402

def load_cli():
    """Import ckq.cli from the checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ckq.cli

    if Path(ckq.cli.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"ckq imported from {ckq.cli.__file__}, not from {src}")
    return ckq.cli.cli


def run_op(runner, cli, op: dict, op_id: int, tracer=None) -> dict:
    """Invoke one operation and check its output; failures are recorded, never retried."""
    gate = None
    t0 = time.perf_counter()
    if tracer is None:
        result = runner.invoke(cli, op["args"])
    else:
        result, gate = tracer.run_op(op_id, lambda: runner.invoke(cli, op["args"]))
    dur = time.perf_counter() - t0
    exc = result.exception
    if exc is not None and not isinstance(exc, SystemExit):
        reason = f"exception {type(exc).__name__}: {exc}"
    else:
        out = result.stdout if result.exit_code == 0 else result.output
        reason = validate.check(op, result.exit_code, out)
    reason = reason or gate
    rec = {"sig": op["sig"], "dur": dur, "ok": reason is None}
    if reason is not None:
        rec["args"] = op["args"]
        rec["reason"] = reason
    return rec


def run(workload: str, seed: int, seconds: float, trace_path: str | None = None) -> dict:
    from click.testing import CliRunner

    cli = load_cli()
    runner = CliRunner()
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records: list[dict] = []
    ops_run: list[dict] = []
    first_digest = None
    peak_rss_mb = None
    n_cycles = 0
    t_start = time.perf_counter()
    try:
        for cycle in workloads.cycles(workload, seed):
            first_digest = first_digest or workloads.digest(cycle)
            for op in cycle:
                records.append(run_op(runner, cli, op, len(records), tracer))
            ops_run.extend(cycle)
            n_cycles += 1
            if peak_rss_mb is None:
                # taken after the first cycle, so that it does not depend on how
                # many cycles fit into the run (the reduction_system cache grows)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # stop at the cycle boundary nearest to `seconds`
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / n_cycles / 2 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "records": records,
        "cycles": n_cycles,
        "digest": workloads.digest(ops_run),
        "digest_cycle0": first_digest,
        "peak_rss_mb": peak_rss_mb,
        "versions": versions(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.save(trace_path)
    return out


def versions() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-out", default=None,
                   help="trace every layer and write the span arrays (.npz) here")
    a = p.parse_args(argv)
    print(json.dumps(run(a.workload, a.seed, a.seconds, a.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

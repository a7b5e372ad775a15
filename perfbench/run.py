"""ckq benchmark: one command for the timed run and the traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  `--trace 0` runs the workload in one worker
process, a single client in a closed loop, for the whole number of cycles
that comes nearest to S seconds, and measures set-up time (cold imports of
ckq.cli in fresh interpreters) half before and half after the worker; it
prints every end-to-end metric.  `--trace 1` runs exactly one cycle twice,
each in its own process: once untraced and once with every layer wrapped
(tracer.py), and prints every per-layer metric plus the tracing overhead.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the run's details: versions, thread settings,
input digests, the fail ratio and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up samples per run, half taken before the worker and half after it, so
# that their median spans the same stretch of time as the operations do.
SETUP_SPAWNS = 30
DEADLINE_S = 170  # the whole command, workers included, ends within this
OUT_DIR = HERE / "out"
# one BLAS/OpenMP thread per process keeps timings repeatable on small machines
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ckq.cli; "
    "print(time.perf_counter() - t)"
)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CKQW_SEED", None)  # the CLI's own seed must stay at its default
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_times(env: dict[str, str], deadline: float, spawns: int) -> list[float]:
    """Cold import time of ckq.cli, one fresh interpreter per sample."""
    out = []
    for _ in range(spawns):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_worker(env: dict[str, str], deadline: float, workload: str, seed: int,
               seconds: float, trace_out: Path | None = None) -> dict:
    """One worker process; seconds=0 runs exactly one cycle."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup: list[float]) -> dict[str, float]:
    recs = res["records"]
    durs = [r["dur"] for r in recs]
    m = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(recs) / sum(durs),
        "op_p50_s": statistics.median(durs),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if len(durs) >= 100:  # at least ten samples beyond the 90th percentile
        m["op_p90_s"] = statistics.quantiles(durs, n=10, method="inclusive")[8]
    # means, not medians: the machine's speed shifts by tens of percent for
    # seconds to minutes at a time, and a median of few samples follows it
    for sig in workloads.QUANTUM_SIGS:
        m[f"sig_mean_s.{workloads.sig_key(sig)}"] = statistics.fmean(
            r["dur"] for r in recs if r["sig"] == sig)
    return m


def per_layer(traced: dict, base: dict) -> dict[str, float]:
    m = dict(traced["layers"])
    wall = sum(r["dur"] for r in traced["records"])
    untraced = sum(r["dur"] for r in base["records"])
    m["trace.op_wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_ratio"] = wall / untraced - 1.0
    m["trace.accounted_ratio"] = m.pop("trace.self_total_s") / wall
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ckq benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    if not (ROOT / "src" / "ckq" / "cli.py").is_file():
        print(f"ckq sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = worker_env()
    info: dict = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
                  "threads": {var: env[var] for var in THREAD_VARS}}
    if a.trace == 0:
        setup = setup_times(env, deadline, SETUP_SPAWNS // 2)
        res = run_worker(env, deadline, a.workload, a.seed, a.seconds)
        setup += setup_times(env, deadline, SETUP_SPAWNS - SETUP_SPAWNS // 2)
        values = end_to_end(res, setup)
        declared = spec["end_to_end"]
        info["setup_samples_s"] = setup
    else:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{a.workload}.npz"
        base = run_worker(env, deadline, a.workload, a.seed, 0.0)
        res = run_worker(env, deadline, a.workload, a.seed, 0.0, trace_out=trace_file)
        if res["digest"] != base["digest"]:
            raise RuntimeError("traced and untraced runs saw different operations")
        values = per_layer(res, base)
        declared = spec["per_layer"]
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    recs = res["records"]
    failed = [r for r in recs if not r["ok"]]
    info.update({
        "versions": res["versions"], "cycles": res["cycles"], "ops": len(recs),
        "fail_ratio": len(failed) / len(recs), "digest": res["digest"],
        "digest_cycle0": res["digest_cycle0"],
        "failures": [{"args": r["args"], "reason": r["reason"]} for r in failed],
        "all_metrics": values,
    })
    print(json.dumps({"info": info}))
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    print(json.dumps({"correct": not failed, "attempted": len(recs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

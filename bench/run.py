"""The sl2wt benchmark.

    python3 bench/run.py --workload fuse_mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 -m pytest bench -q                     # the benchmark's self-test

The program is imported from ``src/`` next to this directory; nothing is
installed.  Workloads, each a closed loop with one client and no threads:

- ``pipeline_ladder``: ``run_pipeline`` plus the canonical ``to_json`` at the
  levels 5/3 (twice per pass), 7/4, 11/6 and 13/8, in a seeded order, each
  run in a fresh worker process, one at a time.  A memo that outlived one
  run must not turn the next run of a level into cache hits that no
  ``sl2wt pipeline`` user sees.
- ``fuse_mix``: ``groth_fuse_C`` on seeded effective classes with 1, 2 or 4
  labels per side at 5/3, 7/4 and 11/6, and 8 per side at 5/3, all in one
  worker process, as a library session.
- ``oracle_windows``: ``build_relaxed`` with the bracket, Casimir,
  reducibility and submodule checks at windows 200 and 1000 on seeded
  (lam, C) pairs, and ``verify_affine_singular`` at the ladder levels and
  four more.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  An operation is a level run, a product, or a window or
singular-vector check; a pass is one cycle of the seeded input stream.
Times are normalized by the reference loop that ``refclock`` samples while
they run (raw wall-clock values go to the provenance line):

- ``setup_s``: median time of fresh interpreters that import ``sl2wt.cli``
  and build the workload's levels;
- ``peak_rss_mb``: the largest peak resident set of a worker;
- ``pass_s``: median busy time of one pass (the whole ladder, one cycle);
- ``ops_per_s``: operations per busy second; for the oracle, window indices
  (a check at window N covers 2N+1 of them);
- ``op_p50_ms``, ``op_p90_ms``: per-operation latency;
- ``small_ms``, ``large_ms``: median latency of the smallest and the largest
  operation class: the 5/3 and 13/8 runs, products with 1 and with 8 labels
  per side, rational-lam checks at windows 200 and 1000.

Failures (``NoSolution``, ``Ambiguous``, a false verdict or oracle check, an
output that differs from its check or golden digest, an exception) are
counted in ``failed`` out of ``attempted``; the summary prints their ratio.

With ``--trace 1`` the run does a fixed amount of work twice in fresh
workers, untraced and traced, checks that both give identical outputs, and
reports the per-layer metrics of ``layers.PER_LAYER``, the import time of
``sl2wt.cli`` and the tracing overhead.  The last line of standard output
is the result object; the line before it records provenance.  A summary
table goes to standard error; it also prints each workload's headline
metrics under their own names, such as ``pipeline.large_s`` for the
``large_ms`` of ``pipeline_ladder``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

sys.path.insert(0, BENCH)
import inputs  # noqa: E402
import refclock  # noqa: E402
from layers import layer_metrics, merge  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150  # plus three times the measured seconds

WORKLOADS: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "pipeline_ladder": inputs.LADDER,
    "fuse_mix": tuple(dict.fromkeys(level for level, _, _ in inputs.FUSE_CELLS)),
    "oracle_windows": inputs.SINGULAR_LEVELS,
}

# headline names of the metrics, per workload: alias -> (metric, scale, unit)
ALIASES = {
    "pipeline_ladder": {
        "pipeline.ladder_s": ("pass_s", 1, "s"),
        "pipeline.small_s": ("small_ms", 1e-3, "s"),
        "pipeline.large_s": ("large_ms", 1e-3, "s"),
    },
    "fuse_mix": {
        "fuse.ops_per_s": ("ops_per_s", 1, "1/s"),
        "fuse.p50_ms": ("op_p50_ms", 1, "ms"),
        "fuse.p90_ms": ("op_p90_ms", 1, "ms"),
    },
    "oracle_windows": {"oracle.indices_per_s": ("ops_per_s", 1, "1/s")},
}


class WorkerError(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one job in a fresh interpreter and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S + 3 * job.get("seconds", 0),
        cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{job['job']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(levels) -> Tuple[List[float], List[float], List[float]]:
    """Normalized and raw wall times of fresh interpreters doing the
    workload's set-up, and their import times of sl2wt.cli.  One warm-up
    probe writes any bytecode cache first and is not counted."""
    job = {"job": "setup", "levels": [list(uv) for uv in levels]}
    spawn(job)
    walls, raw, imports = [], [], []
    for _ in range(SETUP_PROBES):
        out, seconds, raw_seconds = refclock.timed(spawn, job)
        walls.append(seconds)
        raw.append(raw_seconds)
        imports.append(out["import_s"])
    return walls, raw, imports


# ---------------------------------------------------------------------------
# workloads


def _empty_run() -> dict:
    return {"ops": [], "attempted": 0, "failed": 0, "failures": [], "rss_kb": 0, "digest": [], "stats": []}


def _ladder_pass(order, trace: bool, run: dict) -> None:
    """One pass over the ladder, each level in a fresh worker."""
    n = len({op[4] for op in run["ops"]})
    for uv in order:
        out = spawn({"job": "pipeline", "level": list(uv), "trace": trace})
        (op,) = out["ops"]
        op[0] = "small" if uv == inputs.LADDER[0] else "large" if uv == inputs.LADDER[-1] else "mid"
        op[4] = n
        run["ops"].append(op)
        for key in ("attempted", "failed", "failures"):
            run[key] += out[key]
        run["rss_kb"] = max(run["rss_kb"], out["rss_kb"])
        run["digest"].append(out["digest"])
        if out["stats"]:
            run["stats"].append(out["stats"])


def pipeline_ladder(seed: int, seconds: float, trace: bool) -> dict:
    passes = inputs.ladder_passes(seed)
    if not trace:
        run = _empty_run()
        deadline = time.perf_counter() + seconds
        for order in passes:
            _ladder_pass(order, False, run)
            if time.perf_counter() >= deadline:
                break
        return run
    order = list(dict.fromkeys(next(passes)))  # each level once, so distinct counts add up
    plain, traced = _empty_run(), _empty_run()
    _ladder_pass(order, False, plain)
    _ladder_pass(order, True, traced)
    traced["stats"] = merge(traced["stats"])
    return _traced_result(plain, traced)


def _in_session(kind: str, trace_cycles: int):
    """A workload that one worker runs as a library session; traced runs
    do ``trace_cycles`` cycles of its stream."""

    def run(seed: int, seconds: float, trace: bool) -> dict:
        job = {"job": kind, "seed": seed, "seconds": seconds, "cycles": None, "trace": False}
        if not trace:
            return spawn(job)
        job["cycles"] = trace_cycles
        return _traced_result(spawn(job), spawn(dict(job, trace=True)))

    return run


def _traced_result(plain: dict, traced: dict) -> dict:
    """The traced run with both runs' checks counted; a traced output that
    differs from the untraced one is a failure too.  The tracing overhead is
    the difference of their raw busy times."""
    same = plain["digest"] == traced["digest"]
    out = dict(traced)
    out["attempted"] = plain["attempted"] + traced["attempted"] + 1
    out["failed"] = plain["failed"] + traced["failed"] + (0 if same else 1)
    out["failures"] = plain["failures"] + traced["failures"] + ([] if same else ["traced output differs from untraced"])
    out["untraced_s"] = sum(op[3] for op in plain["ops"])
    out["traced_s"] = sum(op[3] for op in traced["ops"])
    return out


RUNNERS = {
    "pipeline_ladder": pipeline_ladder,
    "fuse_mix": _in_session("fuse", 2),
    "oracle_windows": _in_session("oracle", 1),
}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(walls: List[float], ops: List[list], rss_kb: int, column: int = 1):
    """End-to-end metrics and their sample counts from per-operation records
    ``[class, normalized s, work, raw s, pass]``; ``column`` 3 gives them
    from raw wall times instead."""
    busy: Dict[int, float] = {}
    for op in ops:
        busy[op[4]] = busy.get(op[4], 0.0) + op[column]
    latency = [op[column] for op in ops]
    small = [op[column] for op in ops if op[0] == "small"]
    large = [op[column] for op in ops if op[0] == "large"]
    metrics = {
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "pass_s": (statistics.median(busy.values()), "s"),
        "ops_per_s": (sum(op[2] for op in ops) / sum(busy.values()), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(latency, n=10, method="inclusive")[-1], "ms"),
        "small_ms": (1e3 * statistics.median(small), "ms"),
        "large_ms": (1e3 * statistics.median(large), "ms"),
    }
    samples = {
        "setup_s": len(walls),
        "peak_rss_mb": 1,
        "pass_s": len(busy),
        "ops_per_s": len(ops),
        "op_p50_ms": len(ops),
        "op_p90_ms": len(ops),
        "small_ms": len(small),
        "large_ms": len(large),
    }
    return metrics, samples


def per_layer(imports: List[float], run: dict) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, int]]:
    metrics = layer_metrics(run["stats"])
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (run["traced_s"] - run["untraced_s"], "s")
    metrics["trace.overhead_ratio"] = (run["traced_s"] / run["untraced_s"] - 1, "ratio")
    samples = dict.fromkeys(metrics, 1)
    samples["cli.import_s"] = len(imports)
    return metrics, samples


def provenance(args, workload: str, samples: Dict[str, int], run: dict, extra: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "sl2wt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    out = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "samples": samples,
        "failures": run["failures"],
        "inputs": run.get("mix"),
    }
    out.update(extra)
    return out


def run_workload(args, workload: str) -> Tuple[dict, dict]:
    walls, raw_walls, imports = setup(WORKLOADS[workload])
    run = RUNNERS[workload](args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, samples = per_layer(imports, run)
        extra = {"untraced_s": run["untraced_s"], "traced_s": run["traced_s"]}
    else:
        metrics, samples = end_to_end(walls, run["ops"], run["rss_kb"])
        wall_clock = end_to_end(raw_walls, run["ops"], run["rss_kb"], column=3)[0]
        extra = {"wall_clock": {name: v for name, (v, _) in wall_clock.items()}}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, provenance(args, workload, samples, run, extra)


def summary(workload: str, result: dict) -> List[str]:
    lines = [f"{workload}: {result['attempted']} attempted, {result['failed']} failed, "
             f"fail_ratio {result['failed'] / result['attempted']:.4g}"]
    metrics = result["metrics"]
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for alias, (name, scale, unit) in ALIASES.get(workload, {}).items():
        if name in metrics:
            lines.append(f"  {alias:<44} {metrics[name]['value'] * scale:>14.6g} {unit}  (= {name})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sl2wt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request unwinds through subprocess.run, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "sl2wt", "__init__.py")):
        print(f"error: no sl2wt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = sorted(RUNNERS) if args.workload == "all" else [args.workload]
    results, records = {}, {}
    try:
        for workload in workloads:
            results[workload], records[workload] = run_workload(args, workload)
            print("\n".join(summary(workload, results[workload])), file=sys.stderr)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        result, record = results[workloads[0]], records[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
        record = records
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""nzcgraph benchmark: time the package's public entry points on fixed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-q2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in fresh single-threaded worker processes (worker.py),
one at a time. With --trace 0 the last line of output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics from a traced worker, plus the tracing overhead measured
against an untraced worker given the other half of the time. A human-readable
row for each workload is printed before it. Full results, with per-operation
times and provenance, go to .bench_out/.
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

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("verify-q2", "verify-q3plus", "graph-scale", "labelings")
SETUP_SAMPLES = 5       # workers started per run only to time their set-up
TIME_LIMIT_S = 170      # a whole run ends within this, or fails


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NZC_CONFIG", None)  # the workloads use the CLI's defaults
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def start_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
                 deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None if set-up only)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not finish within {TIME_LIMIT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def pass_stats(result: dict) -> dict:
    """Per-pass times, each operation rescaled by the speed probes on its two sides."""
    scaled = []
    for p in result["passes"]:
        probes = p["probes"]
        scaled.append([t * speed.REFERENCE_S * 2 / (probes[i] + probes[i + 1])
                       for i, (_, t, _) in enumerate(p["ops"])])
    ops = [op for p in result["passes"] for op in p["ops"]]
    failures = [f"{name}: {'; '.join(problems)}" for name, _, problems in ops if problems]
    return {
        "run_s": [sum(times) for times in scaled],
        "op_max_s": [max(times) for times in scaled],
        "raw_run_s": [sum(t for _, t, _ in p["ops"]) for p in result["passes"]],
        "op_s": scaled,
        "raw_passes": result["passes"],
        "attempted": len(ops),
        "failed": sum(1 for _, _, problems in ops if problems),
        "failures": failures[:50] + [f"self-check: {s}" for s in result["self_check"]],
        "self_check": result["self_check"],
    }


def setup_sample(workload: str, seed: int, deadline: float) -> float:
    """Set-up time of one worker started only to set up, rescaled like the passes."""
    before = speed.probe()
    setup_s, _ = start_worker(workload, seed, 0, 0, True, deadline)
    return setup_s * speed.REFERENCE_S * 2 / (before + speed.probe())


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [setup_sample(workload, seed, deadline) for _ in range(SETUP_SAMPLES)]
    _, result = start_worker(workload, seed, seconds, 0, False, deadline)
    st = pass_stats(result)
    metrics = {
        "run_s": statistics.median(st["run_s"]),
        "op_max_s": statistics.median(st["op_max_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": (st["attempted"] - st["failed"]) / st["attempted"],
    }
    return {"metrics": metrics, "stats": st, "setup_samples": setups, "worker": result}


def layer_value(name: str, trace: dict, scale: float) -> float:
    """Value of one per-layer metric named `<module>.<function>.<key>`."""
    fn, key = name.rsplit(".", 1)
    if key == "setup_s":
        return trace["setup_self_s"].get(fn, 0.0) * scale
    value = trace["per_pass"].get(fn, {}).get(key, 0)
    return value * scale if key == "self_s" else value


def absent_functions(trace: dict) -> list[str]:
    """Per-layer functions the package no longer defines."""
    names = {m["name"].rsplit(".", 1)[0] for m in load_benchmark()["per_layer"]
             if not m["name"].startswith("trace.")}
    return sorted(names - set(trace["wrapped"]))


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    _, plain = start_worker(workload, seed, seconds / 2, 0, False, deadline)
    _, traced = start_worker(workload, seed, seconds / 2, 1, False, deadline)
    plain_st, st = pass_stats(plain), pass_stats(traced)
    trace = traced["trace"]
    absent = absent_functions(trace)
    traced_run, untraced_run = statistics.median(st["run_s"]), statistics.median(plain_st["run_s"])
    metrics = {"trace.run_s": traced_run, "trace.untraced_run_s": untraced_run,
               "trace.overhead_s": traced_run - untraced_run, "trace.absent": len(absent)}
    # self times are rescaled like the operations that contain them
    scale = sum(st["run_s"]) / sum(st["raw_run_s"])
    for m in load_benchmark()["per_layer"]:
        if m["name"] not in metrics:
            metrics[m["name"]] = layer_value(m["name"], trace, scale)
    st["attempted"] += plain_st["attempted"]
    st["failed"] += plain_st["failed"]
    st["failures"] += plain_st["failures"]
    st["self_check"] += plain_st["self_check"]
    return {"metrics": metrics, "stats": st, "untraced_run_s": plain_st["run_s"],
            "absent": absent, "worker": traced}


def load_benchmark() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    """The checkout's commit, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    out = (run_traced if trace else run_untraced)(workload, seed, seconds, deadline)
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    worker = out.pop("worker")
    st = out["stats"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": st["failed"] == 0 and not st["self_check"],
        "attempted": st["attempted"], "failed": st["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
        "provenance": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                       "python": worker["python"], "numpy": worker["numpy"],
                       "commit": commit(), "seed": seed},
        "run_s_quartiles": quartiles(st["run_s"]), "passes": len(st["run_s"]),
        **{k: v for k, v in out.items() if k != "metrics"},
    }
    if trace:
        record["per_function"] = worker["trace"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def row(rec: dict) -> str:
    q1, med, q3 = rec["run_s_quartiles"]
    parts = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in rec["metrics"].items()
             if rec["trace"] == 0 or name.startswith("trace.")]
    return (f"{rec['workload']:<14} seed={rec['seed']} passes={rec['passes']} "
            f"run_s q1/med/q3 {q1:.4g}/{med:.4g}/{q3:.4g} s | " + " | ".join(parts)
            + f" | failed {rec['failed']}/{rec['attempted']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nzcgraph" / "__init__.py").is_file():
        print(f"error: no nzcgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
            print(row(rec), flush=True)
            for failure in rec["stats"]["failures"]:
                print(f"  FAILED {failure}", flush=True)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = records[0]["provenance"]
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        for rec in records:
            if rec["absent"]:
                print(f"{rec['workload']}: absent functions: {', '.join(rec['absent'])}")
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

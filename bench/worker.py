"""One benchmark worker: set up one workload, run passes, print the results.

Started by run.py in a fresh process with PYTHONPATH pointing at the
checkout's src/. It prints "ready" once set-up is done, then one JSON line
with every pass's operation times and problems, the self-check outcome, the
peak RSS and the versions it ran with.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import numpy
    import nzcgraph
    from workloads import WORKLOADS, Recorder

    src = ROOT / "src"
    if src not in Path(nzcgraph.__file__).resolve().parents:
        print(f"error: imported nzcgraph from {nzcgraph.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.phase = len(passes)
        rec = Recorder()
        workload.run_pass(rec)
        passes.append({"ops": rec.ops, "probes": rec.probes})
        gc.collect()
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break

    result = {
        "passes": passes,
        "self_check": workload.self_check(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(len(passes))
        result["trace"]["wrapped"] = tracer.wrapped
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "pass", "raised", "count"],
             "spans": tracer.spans}), encoding="utf-8")
        result["trace"]["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

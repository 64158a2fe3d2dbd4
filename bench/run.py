"""Benchmark of symprol: catalog, conjugated, prolong and lie workloads.

    python3 bench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs one traced pass and reports the per-layer metrics.
Every run checks the program's outputs (``checks.py``) and prints, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  Times are in reference seconds (see ``refclock.py``); the raw
wall-clock figures are printed on the ``info:`` line before it.

Result and span files are written under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("catalog", "conjugated", "prolong", "lie")
SETUP_RUNS = 9
# settings that change what the program computes; cleared before measuring
CLEARED_ENV = ("SYMPROL_WITNESS_GRID", "SYMPROL_BACKEND")

sys.path[:0] = [SRC, HERE]
for _var in CLEARED_ENV:
    os.environ.pop(_var, None)

from refclock import SpeedClock  # noqa: E402  (stdlib only)


def _child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_child(workload: str, seed: int):
    """In a fresh interpreter: time importing symprol and building the inputs."""
    clock = SpeedClock()
    clock.start()
    try:
        n0, r0 = clock.now()
        import workloads
        workloads.build(workload, seed)
        n1, r1 = clock.now()
    finally:
        clock.stop()
    print(json.dumps({"setup_s": n1 - n0, "raw_s": r1 - r0}))


def measure_setup(workload: str, seed: int):
    """Median (reference, raw) seconds of SETUP_RUNS fresh set-ups."""
    runs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["raw_s"] for r in runs))


def run_pass(items, clock, tracer=None):
    """One pass over the items: (reference s, raw s) per item, and outputs."""
    times, outputs = [], []
    for item in items:
        gc.collect()    # every item starts with an empty collector
        n0, r0 = clock.now()
        result = item.run() if tracer is None else tracer.item(item.run)
        n1, r1 = clock.now()
        times.append((n1 - n0, r1 - r0))
        outputs.append(item.output(result))
    return times, outputs


def digest(items, outputs) -> str:
    h = hashlib.sha256()
    for item, out in sorted(zip(items, outputs), key=lambda p: p[0].label):
        h.update(f"{item.label}\n{out['record']}\n".encode())
    return h.hexdigest()[:16]


def harrell_davis_median(values):
    """Median by the Harrell-Davis estimator: order statistics weighted by the
    Beta((n+1)/2, (n+1)/2) probability of each slot [i/n, (i+1)/n], integrated
    by Simpson's rule.  Unlike the middle order statistic it does not jump
    when noise reorders items around a gap in the item times (the catalog has
    48 items under 11 ms and 49 over 29 ms)."""
    xs = sorted(values)
    n, steps = len(xs), 16
    a = (n + 1) / 2

    def density(t):
        return math.exp((a - 1) * math.log(t * (1 - t))) if 0 < t < 1 else 0.0

    h = 1 / (n * steps)
    weights = [sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _witness_waste(tracer, items, outputs):
    """Share of traced item time that n = 2 finite-type questions spend in
    the rank-one search after h^(1) has decided the verdict."""
    search = tracer.per_item_ms("prolongation.rank_one_witness")
    item_ms = tracer.per_item_ms("item")
    wasted = {"finite": 0.0, "all": 0.0}
    for item, out, ms in zip(items, outputs, search):
        if item.truth.get("n") == 2:
            wasted["all"] += ms
            if out["verdict"] == "Finite":
                wasted["finite"] += ms
    total = sum(item_ms)
    return {k: round(v / total, 4) for k, v in wasted.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "symprol", "__init__.py")):
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    # compile bytecode first, in another process so that neither the set-up
    # starts nor this process's memory pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   stdout=subprocess.DEVNULL, check=True)
    setup = None if args.trace else measure_setup(args.workload, args.seed)

    import symprol
    import workloads
    if not os.path.abspath(symprol.__file__).startswith(SRC + os.sep):
        print(f"error: symprol imported from {symprol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    clock = SpeedClock(guard=tracer.paused if tracer else nullcontext)
    passes = []
    clock.start()
    t_start = time.perf_counter()
    try:
        if tracer:
            tracer.install()
            try:
                passes.append(run_pass(items, clock, tracer))
            finally:
                tracer.uninstall()
        else:
            while True:
                t_pass = time.perf_counter()
                passes.append(run_pass(items, clock))
                now = time.perf_counter()
                if now - t_start + (now - t_pass) > args.seconds:
                    break
    finally:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = passes[0][1]
    digests = {digest(items, outs) for _, outs in passes}
    import checks
    problems, failed = checks.check(args.workload, items, outputs)
    if len(digests) != 1:
        problems.append("outputs differ between passes")

    solve = statistics.median(sum(t[0] for t in times) for times, _ in passes)
    raw_solve = statistics.median(sum(t[1] for t in times) for times, _ in passes)
    item_ms = harrell_davis_median([t[0] for times, _ in passes for t in times]) * 1000
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": symprol.scalars.BACKEND, "python": platform.python_version(),
            "passes": len(passes), "items": len(items), "outputs": digests.pop(),
            "solve_s": round(solve, 4), "raw_solve_s": round(raw_solve, 4),
            "reference_samples": clock.samples}
    if setup:
        info["raw_setup_s"] = round(setup[1], 4)
    if tracer:
        metrics = {k: _metric(v, u) for k, (v, u) in tracer.metrics().items()}
        if args.workload in ("catalog", "conjugated"):
            info["witness_search_share"] = _witness_waste(tracer, items, outputs)
    else:
        metrics = {"setup_s": _metric(setup[0], "s"), "solve_s": _metric(solve, "s"),
                   "item_p50_ms": _metric(item_ms, "ms"),
                   "peak_rss_mb": _metric(peak_rss_mb, "MB")}
    result = {"correct": not problems, "attempted": len(items) * len(passes),
              "failed": failed * len(passes), "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write_spans(stem + "-spans.tsv.gz")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "problems": problems, "result": result,
                   "item_s": {item.label: [times[i][0] for times, _ in passes]
                              for i, item in enumerate(items)}}, fh, indent=1)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("info: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark (about 15 seconds).

    python3 bench/selftest.py

Runs every workload at a tiny size, requires the checks to pass on the
program's real outputs, and shows that each check rejects a deliberately
corrupted output: a flipped verdict, a wrong level dimension, a level that
is not the closed form, a witness that is not rank one, a perturbed
structure constant and a nilpotent algebra reported with nonzero Ricci.
It also requires a traced pass to give the same outputs as an untraced one.
"""

from __future__ import annotations

import copy
import sys

import run  # sets up the import path
import checks
import workloads
from refclock import SpeedClock
from tracing import Tracer


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def tiny_pass(workload, tracer=None):
    items = workloads.build(workload, seed=1, tiny=True)
    clock = SpeedClock(guard=tracer.paused) if tracer else SpeedClock()
    if tracer:
        tracer.install()
    try:
        _, outputs = run.run_pass(items, clock, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    return items, outputs


def rejected(workload, items, outputs, index, corrupt):
    """Apply corrupt to a copy of one output; True if the checks object."""
    outs = copy.deepcopy(outputs)
    corrupt(outs[index])
    return bool(checks.check(workload, items, outs)[0])


def flip(out):
    out["verdict"] = "Infinite" if out["verdict"] == "Finite" else "Finite"


def break_witness(out):
    """Add x_j^2 for a variable j the rank-one witness is not a multiple of."""
    used = {i for m in out["witness"] for i in m}
    j = 0 if used != {0} else 1
    c = out["witness"].get((j, j), (0, 0))
    out["witness"][(j, j)] = (c[0] + 1, c[1])


def main() -> int:
    results = {}
    for w in run.WORKLOADS:
        items, outputs = tiny_pass(w)
        problems, failed = checks.check(w, items, outputs)
        expect(not problems, f"{w}: checks pass on the program's outputs {problems[:3]}")
        results[w] = (items, outputs, failed)

    for w in ("catalog", "conjugated"):
        items, outputs, failed = results[w]
        decided = [i for i, o in enumerate(outputs) if o["verdict"] in ("Finite", "Infinite")]
        expect(all(rejected(w, items, outputs, i, flip) for i in decided),
               f"{w}: every flipped verdict is rejected")
        witnessed = [i for i, o in enumerate(outputs) if o["witness"] is not None]
        expect(witnessed and all(rejected(w, items, outputs, i, break_witness) for i in witnessed),
               f"{w}: every witness made rank two is rejected")
    expect(results["conjugated"][2] == 1 and results["catalog"][2] == 0,
           "the known-faulty n = 3 item counts as failed, and nothing else")

    items, outputs, _ = results["prolong"]
    expect(all(rejected("prolong", items, outputs, i, lambda o: o["dims"].__setitem__(1, o["dims"][1] + 1))
               for i in range(len(items))), "prolong: a wrong level dimension is rejected")
    expect(all(rejected("prolong", items, outputs, i, lambda o: o["levels"][1].pop())
               for i in range(len(items))), "prolong: a level that is not the closed form is rejected")

    items, outputs, _ = results["lie"]
    models = [i for i, it in enumerate(items) if it.label.startswith("thmK1")]

    def perturb(out):
        # [d/dy, y d/dy] = d/dy in every thmK1 model; doubling it breaks
        # Jacobi on (d/dy, y d/dy, y^2)
        out["brackets"][(0, 1)] = {k: 2 * c for k, c in out["brackets"][(0, 1)].items()}

    expect(models and all(rejected("lie", items, outputs, i, perturb) for i in models),
           "lie: a perturbed structure constant is rejected by the Jacobi recomputation")
    nilpotent = [i for i, it in enumerate(items) if it.truth.get("nilpotent")]
    expect(nilpotent and all(rejected("lie", items, outputs, i, lambda o: o.update(ricci_zero=False))
                             for i in nilpotent), "lie: a nilpotent algebra with Ricci != 0 is rejected")

    for w in ("catalog", "lie"):
        items, outputs = tiny_pass(w, Tracer())
        expect(run.digest(items, outputs) == run.digest(*results[w][:2]),
               f"{w}: traced outputs equal untraced outputs")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on the workloads' outputs.

Every check compares the program's answer with a computation made here,
apart from the program (exact ranks by sympy over a bracket system built in
``polys``, 2x2 minors, stdlib Jacobi sums), or with a property the method
must have, or with the type known from how the input was built.  None
compares with a stored copy of an earlier output.

``check(workload, items, outputs)`` returns ``(problems, failed)``: the
problems are reasons the outputs are wrong; ``failed`` counts the items that
hit the program's known fault (an n = 3 ``Undecided`` on a span that
contains a square) and are reported as failed operations, not as wrong.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import polys


def rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    return DomainMatrix([[QQ(c.numerator, c.denominator) for c in row] for row in rows],
                        (len(rows), ncols), QQ).rank()


def _monomials(n, degree):
    return list(combinations_with_replacement(range(2 * n), degree))


def span_dim(gens, n: int) -> int:
    basis = _monomials(n, 2)
    return rank([[p.get(m, 0) for m in basis] for p in gens], len(basis))


def h1_dim(gens, n: int) -> int:
    """dim h^(1) = dim {T in S^3(V) : every first partial of T lies in h}."""
    quad, cub = _monomials(n, 2), _monomials(n, 3)
    qpos = {m: r for r, m in enumerate(quad)}
    k, d = len(gens), 2 * n
    ncols = len(cub) + d * k
    rows = []
    # for each variable a: d_a T - sum_j lam[a][j] gens[j] = 0, coefficientwise
    for a in range(d):
        block = [[0] * ncols for _ in quad]
        for c, m in enumerate(cub):
            for q, coeff in polys.derivative({m: 1}, a).items():
                block[qpos[q]][c] = coeff
        for j, g in enumerate(gens):
            for q, coeff in g.items():
                block[qpos[q]][len(cub) + a * k + j] = -coeff
        rows += block
    nullity = ncols - rank(rows, ncols)
    # dependent generators leave 2n * (k - dim h) free multipliers
    return nullity - d * (k - span_dim(gens, n))


def in_span(poly, gens, n: int) -> bool:
    return span_dim(list(gens) + [poly], n) == span_dim(gens, n)


def _witness_problems(w, gens, n):
    """A witness must have rank one and lie in the complexified span."""
    out = []
    if not polys.is_rank_one(w, n):
        out.append("witness is not rank one")
    for part in (0, 1):
        if not in_span({m: c[part] for m, c in w.items() if c[part]}, gens, n):
            out.append("witness is outside the span")
            break
    return out


def _type_problems(out, truth, gens, n):
    """dim, h^(1) and verdict of a finite-type answer."""
    probs = []
    dim, h1 = span_dim(truth["gens"], n), h1_dim(truth["gens"], n)
    if out["dim"] != dim or (truth["dim"] is not None and dim != truth["dim"]):
        probs.append(f"dim {out['dim']} (recomputed {dim}, table {truth['dim']})")
    if out["h1"] != h1 or (truth["h1"] is not None and h1 != truth["h1"]):
        probs.append(f"h1 {out['h1']} (recomputed {h1}, table {truth['h1']})")
    verdict = out["verdict"]
    if truth["finite"] is not None and verdict in ("Finite", "Infinite") \
            and (verdict == "Finite") != truth["finite"]:
        probs.append(f"verdict {verdict} against the known type")
    if n == 2 and verdict != ("Finite" if h1 == 0 else "Infinite"):
        probs.append(f"verdict {verdict} with recomputed h1 = {h1} (n = 2)")
    if verdict == "Undecided" and not truth.get("known_fault"):
        probs.append("Undecided")
    if out["witness"] is not None:
        if verdict != "Infinite":
            probs.append(f"witness with verdict {verdict}")
        probs += _witness_problems(out["witness"], gens, n)
    elif verdict == "Infinite" and n != 2:
        probs.append("Infinite without a witness")
    return probs


def _catalog_item(out, truth):
    probs = _type_problems(out, truth, truth["gens"], 2)
    if not out["closed"] or not out["ok"]:
        probs.append("entry reported as failing")
    return probs


def _conjugated_item(out, truth):
    n = truth["n"]
    probs = _type_problems(out, truth, truth["conj_gens"], n)
    if span_dim(truth["conj_gens"], n) != span_dim(truth["gens"], n):
        probs.append("conjugated input lost dimension")
    return probs


def _prolong_item(out, truth):
    probs = []
    if out["dims"] != truth["dims"]:
        probs.append(f"dims {out['dims']} != {truth['dims']}")
    support, n = truth["support"], truth["n"]
    for k, level in enumerate(out["levels"]):
        leads = [min(v) for v in level]
        if len(set(leads)) != len(leads):
            probs.append(f"level {k}: basis is not in echelon form")
        if support is None:
            continue
        allowed = sum(1 for m in _monomials(n, k + 2) if support(n, m))
        if any(not support(n, m) for v in level for m in v) or len(level) != allowed:
            probs.append(f"level {k} differs from the closed form")
    return probs


def _bracket(brackets, x, y):
    """Bracket of two sparse vectors {index: coeff} by structure constants."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            if i == j:
                continue
            row, sign = (brackets.get((i, j), {}), 1) if i < j else (brackets.get((j, i), {}), -1)
            for k, c in row.items():
                out[k] = out.get(k, 0) + sign * a * b * c
    return {k: c for k, c in out.items() if c}


def jacobi_violation(brackets, n: int):
    """First basis triple on which the Jacobi sum is nonzero, or None."""
    e = [{i: 1} for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        total = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in _bracket(brackets, _bracket(brackets, e[x], e[y]), e[z]).items():
                total[m] = total.get(m, 0) + c
        if any(total.values()):
            return i, j, k
    return None


def _lie_item(out, truth):
    probs = [] if out["ok"] else ["report not ok"]
    if "brackets" in out:
        if not out["transitive"]:
            probs.append("not transitive")
        if truth.get("dim") is not None and out["dim"] != truth["dim"]:
            probs.append(f"dim {out['dim']} != {truth['dim']}")
        bad = jacobi_violation(out["brackets"], out["dim"])
        if bad is not None:
            probs.append(f"Jacobi fails on {bad}")
    elif truth["nilpotent"]:
        if not (out["nilpotent"] and out["ricci_zero"] and out["kappa_zero"]):
            probs.append("nilpotent algebra without Ricci = 0 and kappa = 0")
    return probs


_ITEM_CHECKS = {"catalog": _catalog_item, "conjugated": _conjugated_item,
                "prolong": _prolong_item, "lie": _lie_item}


def check(workload: str, items, outputs):
    problems, failed = [], 0
    for item, out in zip(items, outputs):
        probs = _ITEM_CHECKS[workload](out, item.truth)
        if item.truth.get("known_fault") and out["verdict"] == "Undecided" and not probs:
            failed += 1
        problems += [f"{item.label}: {p}" for p in probs]
    return problems, failed

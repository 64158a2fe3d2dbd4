"""The four workloads: their inputs, the timed calls into ``symprol`` and the
plain-data outputs that the checks read.

An ``Item`` is one question put to the program through its public API.
``run`` is the only part that is timed; ``output`` turns the program's
answer into plain data afterwards.  ``truth`` carries what the benchmark
knows about the input from its construction (never from the program's
answer), for the checks in ``checks.py``.

The seed draws the conjugating matrices of ``conjugated`` and permutes the
order of the items of every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

import polys

from symprol import catalog
from symprol import fedosov as fed
from symprol.prolongation import LinearSubalgebra, finite_type_verdict, prolong_chain
from symprol.realizations import build_thmK1, build_thmK2
from symprol.weyl import SymplecticSpace, parse_tensor

@dataclass
class Item:
    label: str
    run: Callable[[], object]
    output: Callable[[object], dict]
    truth: dict = field(default_factory=dict)


def _frac(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _poly(t) -> dict:
    """A real SymTensor as {monomial: Fraction}."""
    return {m: _frac(c) for m, c in t.coeffs.items()}


def _gpoly(t) -> dict:
    """A SymTensor with rational or Gaussian coefficients as {monomial: (re, im)}."""
    out = {}
    for m, c in t.coeffs.items():
        re, im = (c.re, c.im) if hasattr(c, "re") else (c, 0)
        out[m] = (_frac(re), _frac(im) if im else Fraction(0))
    return out


def build(name: str, seed: int, tiny: bool = False):
    """Items of one workload; tiny=True gives a few small ones for the self-test."""
    items = {"catalog": _catalog, "conjugated": _conjugated,
             "prolong": _prolong, "lie": _lie}[name](random.Random(seed), tiny)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# catalog: verify_entry on every entry/parameter set
# ---------------------------------------------------------------------------

def _entry_sets(tiny):
    sets = [(name, ps) for name in catalog.names() for ps in catalog.get(name).param_sets()]
    if tiny:
        keep = {"s2", "s2P", "p2c-ii", "D4_12", "F6_6"}
        sets = [s for s in sets if s[0] in keep]
    return sets


def _entry_truth(name, ps):
    e = catalog.get(name)
    return {"n": 2, "gens": [_poly(t) for t in e.builder(ps)],
            "dim": e.expected_dim, "finite": e.expected_finite, "h1": e.expected_h1}


def _catalog_output(r) -> dict:
    witness = None
    if r.evidence.startswith("witness["):
        witness = polys.parse_poly(r.evidence[len("witness["):-1], 2)
    return {"record": r.record(), "dim": r.dim, "closed": r.closed, "h1": r.h1_dim,
            "verdict": r.verdict, "ok": r.ok, "witness": witness}


def _catalog(rng, tiny):
    items = []
    for name, ps in _entry_sets(tiny):
        entry = catalog.get(name)
        label = name + "".join(f",{k}={v}" for k, v in sorted(ps.items()))
        items.append(Item(label, lambda e=entry, p=ps: catalog.verify_entry(e, p),
                          _catalog_output, _entry_truth(name, ps)))
    return items


# ---------------------------------------------------------------------------
# conjugated: the finite-type question on dense Sp(2n, Z) conjugates
# ---------------------------------------------------------------------------

# subalgebras of sp(6) of known type: the compact torus is a direct sum of
# finite type parts over three orthogonal planes, so it is of finite type
# with h^(1) = 0; the line spanned by a square is of infinite type.
N3_SEEDED = (
    ("torus3", ["1 * p1^2 + 1 * q1^2", "1 * p2^2 + 1 * q2^2", "1 * p3^2 + 1 * q3^2"], True),
    ("square-line", ["1 * p3^2"], False),
)

# Abelian subalgebras of S^2(P) that contain the square (p1 + c p3)^2, yet
# need a coefficient ratio outside the rank-one search grid: the program
# answers Undecided.  Fixed inputs, the same for every seed.
N3_FAULTY = (
    ("undecided-c3", ["1 * p1^2 + 1 * p2^2", "6 * p1*p3 + -1 * p2^2 + 9 * p3^2"]),
    ("undecided-c5", ["1 * p1^2 + 1 * p2^2", "10 * p1*p3 + -1 * p2^2 + 25 * p3^2"]),
)


def _text_poly(text, n):
    """Rational printer text as {monomial: Fraction}."""
    return {m: c for m, (c, _) in polys.parse_poly(text, n).items()}


def _finite_type_item(label, n, texts, truth):
    space = SymplecticSpace(n)

    def run():
        h = LinearSubalgebra(space, [parse_tensor(space, s) for s in texts])
        return h, finite_type_verdict(h)

    def output(result):
        h, v = result
        return {"record": f"dim={h.dim} {v.record()}", "dim": h.dim, "h1": v.h1_dim,
                "verdict": v.kind, "witness": None if v.witness is None else _gpoly(v.witness)}

    truth = dict(truth, n=n, conj_gens=[_text_poly(s, n) for s in texts])
    return Item(label, run, output, truth)


def _conjugated(rng, tiny):
    items = []
    first_sets = {}
    for name, ps in _entry_sets(tiny):
        first_sets.setdefault(name, ps)
    for name, ps in first_sets.items():
        truth = _entry_truth(name, ps)
        g = polys.random_symplectic(rng, 2)
        texts = [polys.format_poly(polys.substitute(p, g), 2) for p in truth["gens"]]
        label = "conj:" + name + "".join(f",{k}={v}" for k, v in sorted(ps.items()))
        items.append(_finite_type_item(label, 2, texts, truth))
    for name, gens, finite in N3_SEEDED:
        base = [_text_poly(s, 3) for s in gens]
        g = polys.random_symplectic(rng, 3)
        texts = [polys.format_poly(polys.substitute(p, g), 3) for p in base]
        items.append(_finite_type_item("conj:" + name, 3, texts,
                                       {"gens": base, "finite": finite, "dim": len(gens),
                                        "h1": 0 if finite else None}))
    for name, gens in N3_FAULTY[:1] if tiny else N3_FAULTY:
        items.append(_finite_type_item(name, 3, gens,
                                       {"gens": [_text_poly(s, 3) for s in gens],
                                        "finite": False, "dim": len(gens), "h1": None,
                                        "known_fault": True}))
    return items


# ---------------------------------------------------------------------------
# prolong: prolongation chains against counting formulas and closed forms
# ---------------------------------------------------------------------------

def _support_p1(n, m):      # at most one q factor: Q v S^(k+1)(P) + S^(k+2)(P)
    return sum(1 for i in m if i >= n) <= 1


def _support_p2(n, m):      # p1^(k+1) q1, or only p1, p2, q2 (n = 2)
    return set(m) <= {0, 1, 3} or sorted(m) == [0] * (len(m) - 1) + [2]


def _support_s1(n, m):      # S(V1) + S(V2), V1 = (p1, q1), V2 = (p2, q2)
    return set(m) <= {0, 2} or set(m) <= {1, 3}


PROLONG = (
    # name, n, generators (None: the catalog entry), kmax, dim formula, support
    ("p1", 2, None, 6, lambda k: 3 * k + 7, _support_p1),
    ("p2", 2, None, 6, lambda k: 1 + (k + 3) * (k + 4) // 2, _support_p2),
    ("s1", 2, None, 6, lambda k: 2 * (k + 3), _support_s1),
    ("s4", 2, None, 6, lambda k: 2 * (k + 3), None),
    ("sp6-lagrangian-parabolic", 3,
     [f"q{i}*p{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
     + [f"p{i}*p{j}" for i in (1, 2, 3) for j in (1, 2, 3) if i <= j],
     3, lambda k: 3 * comb(k + 3, 2) + comb(k + 4, 2), _support_p1),
)


def _prolong_output(chain) -> dict:
    levels = [[_poly(t) for t in chain.level_tensors(k)] for k in range(len(chain.levels))]
    return {"record": f"dims={','.join(map(str, chain.dims))}", "dims": chain.dims,
            "levels": levels}


def _prolong(rng, tiny):
    items = []
    for name, n, gens, kmax, formula, support in PROLONG:
        if tiny:
            if name not in ("p1", "sp6-lagrangian-parabolic"):
                continue
            kmax = min(kmax, 2 if n == 2 else 1)
        if gens is None:
            h = catalog.get(name).instantiate()
        else:
            space = SymplecticSpace(n)
            h = LinearSubalgebra(space, [parse_tensor(space, s) for s in gens])
        items.append(Item(f"{name}:kmax={kmax}", lambda h=h, k=kmax: prolong_chain(h, kmax=k),
                          _prolong_output,
                          {"n": n, "dims": [formula(k) for k in range(kmax + 1)],
                           "support": support}))
    return items


# ---------------------------------------------------------------------------
# lie: Fedosov calculus and transitive vector-field algebras
# ---------------------------------------------------------------------------

# direct sums of nilpotent corpus algebras: nilpotent by construction
NILPOTENT_SUMS = (("heis3+R", "n4"), ("n4", "n4"), ("L6", "n4"))
THMK1_BASES = {"hyperbolic": 3, "sphere": 3, "sl2aff": 5, "euclid": 3}   # dim of the base
THMK1_K = tuple(range(1, 13))
THMK2_AFFINE = {"sl2aff2": 5, "gl2aff2": 6}
THMK2_K = (1, 2, 3, 4, 5)
THMK2_TRIANGLES = (("conf", ((1, 1), (1, -1))), ("conf", ((2, 0),)),
                   ("conf", ((3, 1), (3, -1))), ("euc", ((1, 1), (1, -1))),
                   ("euc", ((2, 2), (2, -2))))


def direct_sum_text(a, b) -> str:
    """Algebra-file text of a + b, with omega the orthogonal sum."""
    lines = [f"dim {a.n + b.n}"]
    for g, shift in ((a, 0), (b, a.n)):
        for (i, j), row in sorted(g.table.brackets.items()):
            terms = " + ".join(f"{_frac(c)} * e{k + 1 + shift}" for k, c in sorted(row.items()))
            lines.append(f"[{i + 1 + shift},{j + 1 + shift}] = {terms}")
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.omega[i, j]:
                    lines.append(f"omega({i + 1 + shift},{j + 1 + shift}) = {_frac(g.omega[i, j])}")
    return "\n".join(lines) + "\n"


def _fedosov_output(r) -> dict:
    return {"record": "\n".join(r.records()), "ok": r.ok, "ricci_zero": r.ricci.is_zero(),
            "kappa_zero": r.structure.kappa.is_zero(), "nilpotent": r.structure.nilpotent}


def _model_output(r) -> dict:
    return {"record": "\n".join(r.records()), "ok": r.ok, "dim": r.dim,
            "transitive": r.transitive,
            "brackets": {ij: {k: _frac(c) for k, c in row.items()}
                         for ij, row in r.table.brackets.items()}}


def _lie(rng, tiny):
    corpus = fed.corpus()
    algebras = [(name, g, name in fed.NILPOTENT_CORPUS) for name, g in corpus.items()]
    for a, b in NILPOTENT_SUMS:
        text = direct_sum_text(corpus[a], corpus[b])
        algebras.append((f"{a}+{b}", fed.parse_algebra(text, f"{a}+{b}"), True))
    if tiny:
        algebras = algebras[2:4]
    items = [Item(f"fedosov:{name}", lambda g=g: fed.fedosov_report(g), _fedosov_output,
                  {"nilpotent": nil}) for name, g, nil in algebras]
    for base, bar in THMK1_BASES.items():
        for k in (2,) if tiny else THMK1_K:
            items.append(Item(f"thmK1:{base}:k={k}", lambda b=base, k=k: build_thmK1(b, k),
                              _model_output, {"dim": 2 + bar + k}))
    for base, bar in THMK2_AFFINE.items():
        for k in THMK2_K[:2] if tiny else THMK2_K:
            items.append(Item(f"thmK2:{base}:k={k}", lambda b=base, k=k: build_thmK2(b, k),
                              _model_output, {"dim": bar + k * (k + 3) // 2}))
    for base, tops in THMK2_TRIANGLES[:1] if tiny else THMK2_TRIANGLES:
        label = f"thmK2:{base}:" + "+".join(f"W{t}" for t in tops)
        items.append(Item(label, lambda b=base, t=tops: build_thmK2(b, tops=[list(x) for x in t]),
                          _model_output, {}))
    return items

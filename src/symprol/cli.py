"""Batch command-line front end.

Commands:

    symprol catalog list
    symprol catalog verify [NAME] [--params eps=1,a=2]
    symprol prolong --gens FILE [--kmax K]
    symprol finite-type --gens FILE
    symprol realize thmK1 --base sphere --k 2 [--N 1]
    symprol realize thmK2 --base conf --xi "W(1,1)+W(1,-1)" | --k 2 [--alpha a]
    symprol fedosov --algebra FILE [--report full]
    symprol ce-h1 --case NAME | --list

Output is line-oriented key=value records so reports diff cleanly; identical
invocations produce byte-identical reports.  Exit status: 0 all checks pass,
1 a verification failed, 2 bad input.  The rank-one witness search grid may
be overridden with SYMPROL_WITNESS_GRID (comma-separated scalars).
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .scalars import fmt_scalar, parse_scalar
from .weyl import SymplecticSpace, parse_tensor, poisson_bracket
from .prolongation import (LinearSubalgebra, finite_type_verdict, prolong_chain,
                           witness_grid)
from .structure import tabulate
from .realizations import bracket_action_matrices, build_thmK1, build_thmK2, ce_h1
from . import fedosov as fed

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


def _parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        k, _, v = item.partition("=")
        if not _:
            raise ValueError(f"bad parameter binding {item!r}")
        k, v = k.strip(), v.strip()
        if v in ("compact", "split"):
            params[k] = v
        else:
            params[k] = parse_scalar(v)
    return params


def _echo(parts):
    print("config: " + " ".join(f"{k}={v if v is not None else '-'}" for k, v in parts))


def cmd_catalog(args) -> int:
    _echo([("command", "catalog"), ("action", args.action),
           ("name", args.name), ("params", args.params)])
    if args.action == "list":
        for name in catalog.names():
            e = catalog.get(name)
            ptxt = ";".join(f"{p.name}:{p.condition}" for p in e.params) or "-"
            print(f"entry={name} params={ptxt} citation={e.citation}")
        return EXIT_OK
    # verify
    witness_grid()
    if args.name:
        entry = catalog.get(args.name)
        sets = [_parse_params(args.params)] if args.params else entry.param_sets()
        reports = [catalog.verify_entry(entry, ps) for ps in sets]
    else:
        reports = catalog.verify_all()
    for r in reports:
        print(r.record())
    npass = sum(1 for r in reports if r.ok)
    print(f"summary: {len(reports)} entries, {npass} pass, {len(reports) - npass} fail")
    return EXIT_OK if npass == len(reports) else EXIT_FAIL


def _load_gens(path):
    space = SymplecticSpace(2)
    gens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                gens.append(parse_tensor(space, line))
    if not gens:
        raise ValueError("no generators in input file")
    return space, gens


def cmd_prolong(args) -> int:
    _echo([("command", "prolong"), ("gens", args.gens), ("kmax", args.kmax)])
    space, gens = _load_gens(args.gens)
    chain = prolong_chain(LinearSubalgebra(space, gens), kmax=args.kmax)
    print(f"dims={','.join(map(str, chain.dims))}")
    for k, sub in enumerate(chain.levels):
        for t in chain.level_tensors(k):
            print(f"h({k}) basis: {t}")
    return EXIT_OK


def cmd_finite_type(args) -> int:
    _echo([("command", "finite-type"), ("gens", args.gens)])
    witness_grid()
    space, gens = _load_gens(args.gens)
    h = LinearSubalgebra(space, gens)
    bad = h.check_closure()
    if bad is not None:
        a, b, br = bad
        raise ValueError(f"not a subalgebra: [{a}, {b}] = {br} is outside the span")
    verdict = finite_type_verdict(h)
    print(f"dim={h.dim} h1={verdict.h1_dim} {verdict.record()}")
    return EXIT_OK


def cmd_realize(args) -> int:
    _echo([("command", "realize"), ("model", args.model), ("base", args.base),
           ("k", args.k), ("N", args.N), ("xi", args.xi), ("alpha", args.alpha)])
    if args.model == "thmK1":
        rep = build_thmK1(args.base, args.k, args.N)
    elif args.base in ("sl2aff2", "gl2aff2"):
        rep = build_thmK2(args.base, k=args.k)
    else:
        rep = build_thmK2(args.base, tops=_parse_tops(args.xi),
                          alpha=parse_scalar(args.alpha) if args.alpha else 0)
    for line in rep.records():
        print(line)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _parse_tops(text):
    if not text:
        raise ValueError("conf/euc need --xi with triangle tops, e.g. 'W(1,1)+W(1,-1)'")
    tops = []
    for item in text.replace("+", ";").split(";"):
        item = item.strip()
        if not item:
            continue
        if not (item.startswith("W(") and item.endswith(")")):
            raise ValueError(f"bad triangle top {item!r}, expected W(k,l)")
        k_txt, _, l_txt = item[2:-1].partition(",")
        tops.append((int(k_txt), int(l_txt)))
    return tops


def cmd_fedosov(args) -> int:
    _echo([("command", "fedosov"), ("algebra", args.algebra), ("report", args.report)])
    with open(args.algebra) as fh:
        g = fed.parse_algebra(fh.read(), name=args.algebra)
    rep = fed.fedosov_report(g)
    for line in rep.records():
        print(line)
    if args.report == "full":
        for label, table in (("product", rep.product.table), ("nabla", rep.nabla.table)):
            for i in range(g.n):
                for j in range(g.n):
                    if any(table[(i, j)]):
                        terms = " + ".join(f"{fmt_scalar(c)} * e{k+1}"
                                           for k, c in enumerate(table[(i, j)]) if c)
                        print(f"{label} e{i+1} e{j+1} = {terms}")
        for i in range(g.n):
            for j in range(i + 1, g.n):
                R = rep.curvature[i, j]
                for a in range(g.n):
                    for b in range(g.n):
                        if R[a, b]:
                            print(f"R(e{i+1},e{j+1})[{a+1},{b+1}] = {fmt_scalar(R[a, b])}")
    return EXIT_OK if rep.ok else EXIT_FAIL


CE_CASES = {
    "b2-rp1sq": ("the 2-dim solvable algebra span(p2^2, p2q2) on R p1^2",
                 ["p2^2", "p2*q2"], ["p1^2"]),
    "n2-p1w": ("the nilpotent line span(p2^2) on p1 W",
               ["p2^2"], ["p1*p2", "p1*q2"]),
    "diag-p1w": ("the split Cartan span(p2q2) on p1 W",
                 ["p2*q2"], ["p1*p2", "p1*q2"]),
    "so2-p1w": ("the compact Cartan span(p2^2 + q2^2) on p1 W",
                ["p2^2 + q2^2"], ["p1*p2", "p1*q2"]),
    "b2-p1w": ("the 2-dim solvable algebra on p1 W",
               ["p2^2", "p2*q2"], ["p1*p2", "p1*q2"]),
    "slw-p1w": ("sl(W) on p1 W",
                ["p2^2", "p2*q2", "q2^2"], ["p1*p2", "p1*q2"]),
    "n2-rp1sq": ("the nilpotent line on R p1^2", ["p2^2"], ["p1^2"]),
    "diag-rp1sq": ("the split Cartan on R p1^2", ["p2*q2"], ["p1^2"]),
}


def cmd_ce_h1(args) -> int:
    _echo([("command", "ce-h1"), ("case", args.case), ("list", args.list)])
    if args.list:
        for name, (desc, _, _) in sorted(CE_CASES.items()):
            print(f"case={name} description={desc}")
        return EXIT_OK
    if args.case not in CE_CASES:
        raise ValueError(f"unknown case {args.case!r}; try --list")
    desc, h_txt, m_txt = CE_CASES[args.case]
    space = SymplecticSpace(2)
    h_tensors = [parse_tensor(space, s) for s in h_txt]
    m_tensors = [parse_tensor(space, s) for s in m_txt]
    table = tabulate(h_tensors, poisson_bracket, lambda x: dict(x.coeffs))
    mats = bracket_action_matrices(h_tensors, m_tensors)
    res = ce_h1(table, mats)
    print(f"case={args.case} dim_h1={res.dim} dim_z1={res.z1_dim} dim_b1={res.b1_dim}")
    for rep in res.representatives:
        for i, vec in enumerate(rep):
            img = " + ".join(f"{fmt_scalar(c)} * ({m_txt[k]})"
                             for k, c in enumerate(vec) if c) or "0"
            print(f"cocycle: c({h_txt[i]}) = {img}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symprol", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="list or verify the subalgebra catalog")
    c.add_argument("action", choices=["list", "verify"])
    c.add_argument("name", nargs="?", help="entry name (verify everything when omitted)")
    c.add_argument("--params", help="comma-separated bindings, e.g. eps=-1,a=2")
    c.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("prolong", help="prolongation chain of user generators")
    p.add_argument("--gens", required=True, help="file with one tensor per line")
    p.add_argument("--kmax", type=int, default=4)
    p.set_defaults(fn=cmd_prolong)

    f = sub.add_parser("finite-type", help="finite/infinite type verdict")
    f.add_argument("--gens", required=True)
    f.set_defaults(fn=cmd_finite_type)

    r = sub.add_parser("realize", help="build a transitive vector-field algebra")
    r.add_argument("model", choices=["thmK1", "thmK2"])
    r.add_argument("--base", required=True)
    r.add_argument("--k", type=int)
    r.add_argument("--N", type=int, default=0)
    r.add_argument("--xi", help="triangle tops for conf/euc, e.g. 'W(1,1)+W(1,-1)'")
    r.add_argument("--alpha", help="deformation parameter for the euc base")
    r.set_defaults(fn=cmd_realize)

    d = sub.add_parser("fedosov", help="left-symmetric / connection report")
    d.add_argument("--algebra", required=True, help="algebra description file")
    d.add_argument("--report", choices=["summary", "full"], default="summary")
    d.set_defaults(fn=cmd_fedosov)

    h = sub.add_parser("ce-h1", help="first Chevalley-Eilenberg cohomology")
    h.add_argument("--case")
    h.add_argument("--list", action="store_true")
    h.set_defaults(fn=cmd_ce_h1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

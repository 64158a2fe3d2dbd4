"""Byte-identical stdout of fixed invocations, compared with tests/golden/.

Each case renders the text a command prints.  Regenerate the files only when
an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from symprol.cli import CE_CASES, main
from symprol.fedosov import corpus, format_algebra
from symprol.prolongation import LinearSubalgebra, prolong_chain
from symprol.weyl import SymplecticSpace, parse_tensor

GOLDEN = Path(__file__).parent / "golden"


def _cli(*argv):
    # generator files are named relative to GOLDEN, so the echoed
    # config line does not depend on where the checkout lives
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    assert code == 0
    return out.getvalue()


def _sp6_lagrangian_parabolic(kmax):
    # the CLI reads generators in the 4-dimensional space only, so this case
    # prints the chain the way `symprol prolong` does
    space = SymplecticSpace(3)
    gens = [f"q{i}*p{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    gens += [f"p{i}*p{j}" for i in (1, 2, 3) for j in (1, 2, 3) if i <= j]
    chain = prolong_chain(LinearSubalgebra(space, [parse_tensor(space, g) for g in gens]),
                          kmax=kmax)
    lines = [f"dims={','.join(map(str, chain.dims))}"]
    for k in range(len(chain.levels)):
        lines.extend(f"h({k}) basis: {t}" for t in chain.level_tensors(k))
    return "\n".join(lines) + "\n"


CASES = {
    "prolong_p1_kmax6.out": lambda: _cli("prolong", "--gens", "p1.gens", "--kmax", "6"),
    "prolong_p2_kmax6.out": lambda: _cli("prolong", "--gens", "p2.gens", "--kmax", "6"),
    "prolong_mixed_kmax3.out": lambda: _cli("prolong", "--gens", "mixed.gens", "--kmax", "3"),
    "finite_type_mixed.out": lambda: _cli("finite-type", "--gens", "mixed.gens"),
    # the witness comes from the pair loop over the grid
    "finite_type_gridhit.out": lambda: _cli("finite-type", "--gens", "gridhit.gens"),
    # the pair loop runs over the whole grid and finds nothing
    "finite_type_torus.out": lambda: _cli("finite-type", "--gens", "torus.gens"),
    "prolong_gaussian_line_kmax3.out":
        lambda: _cli("prolong", "--gens", "gaussian_line.gens", "--kmax", "3"),
    "prolong_sp6_lagrangian_kmax3.out": lambda: _sp6_lagrangian_parabolic(3),
    "catalog_list.out": lambda: _cli("catalog", "list"),
    "catalog_verify.out": lambda: _cli("catalog", "verify"),
    "ce_h1_list.out": lambda: _cli("ce-h1", "--list"),
}
for _base in ("hyperbolic", "sphere", "sl2aff", "euclid"):
    CASES[f"realize_thmK1_{_base}_k2.out"] = (
        lambda b=_base: _cli("realize", "thmK1", "--base", b, "--k", "2"))
CASES["realize_thmK1_sl2aff_k2_N1.out"] = (
    lambda: _cli("realize", "thmK1", "--base", "sl2aff", "--k", "2", "--N", "1"))
CASES["realize_thmK1_hyperbolic_k3.out"] = (
    lambda: _cli("realize", "thmK1", "--base", "hyperbolic", "--k", "3"))
for _base in ("sl2aff2", "gl2aff2"):
    CASES[f"realize_thmK2_{_base}_k2.out"] = (
        lambda b=_base: _cli("realize", "thmK2", "--base", b, "--k", "2"))
for _base in ("conf", "euc"):
    CASES[f"realize_thmK2_{_base}_W11_W1m1.out"] = (
        lambda b=_base: _cli("realize", "thmK2", "--base", b, "--xi", "W(1,1)+W(1,-1)"))
for _case in CE_CASES:
    CASES[f"ce_h1_{_case}.out"] = lambda c=_case: _cli("ce-h1", "--case", c)
# the built-in symplectic Lie algebras are written as algebra files, so
# `symprol fedosov` reads them the way it reads a user's file
for _name, _g in corpus().items():
    CASES[f"{_name}.alg"] = lambda g=_g: format_algebra(g)
    CASES[f"fedosov_{_name}_full.out"] = (
        lambda a=f"{_name}.alg": _cli("fedosov", "--algebra", a, "--report", "full"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render())
        print(f"wrote {GOLDEN / name}")

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

from symprol.cli import main
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
    "prolong_gaussian_line_kmax3.out":
        lambda: _cli("prolong", "--gens", "gaussian_line.gens", "--kmax", "3"),
    "prolong_sp6_lagrangian_kmax3.out": lambda: _sp6_lagrangian_parabolic(3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render())
        print(f"wrote {GOLDEN / name}")

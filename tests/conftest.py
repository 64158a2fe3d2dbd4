import pytest

from symprol.linalg import rref
from symprol.weyl import SymplecticSpace, SymTensor, monomial_basis, parse_tensor
from symprol.scalars import rat, GScalar, ZERO


@pytest.fixture(scope="session")
def V():
    return SymplecticSpace(2)


@pytest.fixture
def t(V):
    def build(text):
        return parse_tensor(V, text)
    return build


def random_rat(rng, span=6):
    return rat(rng.randint(-span, span), rng.randint(1, 4))


def random_tensor(rng, space, degree, terms=3, gaussian=False):
    coeffs = {}
    basis = monomial_basis(space.n, degree)
    for _ in range(terms):
        m = basis[rng.randrange(len(basis))]
        c = random_rat(rng)
        if gaussian:
            c = GScalar(c, random_rat(rng))
        if c:
            coeffs[m] = coeffs.get(m, rat(0)) + c
    return SymTensor(space, {m: c for m, c in coeffs.items() if c})


def assert_same_typed_rows(got, want):
    """Rows equal entry by entry, each entry of the same type (the printer
    shows rationals and GScalars differently)."""
    assert list(got) == list(want)
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


def reference_solve(m, rhs):
    """Reference: one RREF of [M | rhs] per right-hand side, inconsistent
    iff the rhs column holds a pivot."""
    aug = [list(row) + [b] for row, b in zip(m.entries, rhs)]
    red, pivots = rref(aug, m.ncols + 1)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][m.ncols]
    return tuple(x)

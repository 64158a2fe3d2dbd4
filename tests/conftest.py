import pytest

from symprol.weyl import SymplecticSpace, SymTensor, monomial_basis, parse_tensor
from symprol.scalars import rat, GScalar


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

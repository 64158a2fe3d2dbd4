import random

import pytest

from symprol.linalg import Matrix, Subspace, grassmann_check, rref
from symprol.scalars import GScalar, ONE, rat

from conftest import assert_same_typed_rows, random_rat, reference_solve


def test_rank_identity_and_zero():
    assert Matrix.identity(4).rank() == 4
    assert Matrix.zero(4, 4).rank() == 0


def test_kernel_small_cases():
    assert Matrix.identity(3).kernel().dim == 0
    assert Matrix.zero(2, 3).kernel().dim == 3
    k = Matrix([[rat(2), rat(-1)]]).kernel()
    assert k.basis == [(rat(1), rat(2))]


def test_rank_transpose_and_kernel_random():
    rng = random.Random(101)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[random_rat(rng) for _ in range(cols)] for _ in range(rows)])
        assert m.rank() == m.transpose().rank()
        ker = m.kernel()
        assert ker.dim == cols - m.rank()
        for v in ker.basis:
            assert all(not x for x in m.apply(v))


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[random_rat(rng) for _ in range(4)] for _ in range(3)]
        red, piv = rref(rows, 4)
        red2, piv2 = rref(red, 4)
        assert red == red2 and piv == piv2


def test_subspace_ops():
    a = Subspace.from_vectors([[rat(1), rat(0), rat(0)]], 3)
    b = Subspace.from_vectors([[rat(0), rat(1), rat(0)]], 3)
    assert a.intersect(b).dim == 0
    assert (a + b).dim == 2
    assert a.intersect(a) == a
    c = Subspace.from_vectors([[rat(1), rat(1), rat(0)]], 3)
    d = Subspace.from_vectors([[rat(1), rat(0), rat(0)], [rat(0), rat(1), rat(0)]], 3)
    assert c.intersect(d).dim == 1


def test_ambient_mismatch_raises():
    a = Subspace.from_vectors([[rat(1), rat(0)]], 2)
    b = Subspace.from_vectors([[rat(1), rat(0), rat(0)]], 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.intersect(b)


def test_grassmann_identity_random():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 6)
        a = Subspace.from_vectors(
            [[random_rat(rng) for _ in range(n)] for _ in range(rng.randint(1, n))], n)
        b = Subspace.from_vectors(
            [[random_rat(rng) for _ in range(n)] for _ in range(rng.randint(1, n))], n)
        assert grassmann_check(a, b)


def test_membership_and_equality_are_canonical():
    u = Subspace.from_vectors([[rat(2), rat(4)], [rat(1), rat(3)]], 2)
    w = Subspace.from_vectors([[rat(1), rat(0)], [rat(0), rat(1)]], 2)
    assert u == w
    assert (rat(5), rat(-1)) in u


def test_complex_entries():
    i = GScalar(0, 1)
    m = Matrix([[i, GScalar(1, 0)], [GScalar(-1, 0), i]])
    assert m.rank() == 1
    ker = m.kernel()
    assert ker.dim == 1
    assert all(not x for x in m.apply(ker.basis[0]))


def test_solve():
    m = Matrix([[rat(1), rat(2)], [rat(3), rat(4)]])
    x = m.solve([rat(5), rat(11)])
    assert m.apply(x) == (rat(5), rat(11))
    inconsistent = Matrix([[rat(1), rat(1)], [rat(2), rat(2)]])
    assert inconsistent.solve([rat(0), rat(1)]) is None


def test_solve_many_keeps_each_verdict():
    # rank one: only multiples of (1, 2) are consistent, and an inconsistent
    # column between two others must not change their verdicts or values
    m = Matrix([[rat(1), rat(1)], [rat(2), rat(2)]])
    rhss = [[rat(0), rat(1)], [rat(1), rat(2)], [rat(0), rat(2)], [rat(3), rat(6)], [rat(1), rat(3)]]
    assert m.solve_many(rhss) == [None, (rat(1), rat(0)), None, (rat(3), rat(0)), None]
    assert m.solve_many([]) == []
    assert Matrix([], ncols=3).solve_many([[], []]) == [(rat(0),) * 3] * 2


def dense_rref(rows, ncols):
    """Reference: Gauss-Jordan updating every entry of every row."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = (GScalar(1, 0) if isinstance(m[r][c], GScalar) else ONE) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def _random_entry(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "zero":
        return rat(0)
    if kind == "gzero":
        return GScalar(0, 0)
    if kind == "int":
        return rng.randint(-2, 2)
    if kind == "rat":
        return random_rat(rng, span=3)
    if kind == "real":
        return GScalar(random_rat(rng, span=3), 0)
    return GScalar(random_rat(rng, span=3), random_rat(rng, span=3))


def _random_rows(rng, kinds):
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    rows = [[_random_entry(rng, kinds) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        # a dependent row, so that some rows reduce to zero
        f = _random_entry(rng, kinds)
        rows[-1] = [a + f * b for a, b in zip(rows[0], rows[1])]
    return rows, ncols


@pytest.mark.parametrize("kinds", [
    ("zero", "gzero", "int", "rat", "real", "gauss"),
    ("zero", "zero", "rat", "gauss"),
    ("gzero", "real", "gauss"),
    ("zero", "rat"),
])
def test_rref_matches_dense_reference(kinds):
    rng = random.Random(len(kinds))
    for _ in range(600):
        rows, ncols = _random_rows(rng, kinds)
        snapshot = [list(r) for r in rows]
        red, pivots = rref(rows, ncols)
        want_red, want_pivots = dense_rref(rows, ncols)
        assert pivots == want_pivots
        assert_same_typed_rows(red, want_red)
        assert rows == snapshot


def _random_system(rng, kinds):
    """A matrix of 0-7 rows and 1-7 columns, often rank-deficient, and 0-5
    right-hand sides, about half of them consistent by construction."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    rows = [[_random_entry(rng, kinds) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        f = _random_entry(rng, kinds)
        rows[-1] = [a + f * b for a, b in zip(rows[0], rows[1])]
    m = Matrix(rows, ncols=ncols)
    rhss = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5:
            rhss.append(list(m.apply([_random_entry(rng, kinds) for _ in range(ncols)])))
        else:
            rhss.append([_random_entry(rng, kinds) for _ in range(nrows)])
    return m, rhss


@pytest.mark.parametrize("kinds", [
    ("zero", "gzero", "int", "rat", "real", "gauss"),
    ("zero", "zero", "rat", "gauss"),
    ("zero", "int", "rat"),
    ("zero", "rat"),
])
def test_solve_many_matches_single_solves(kinds):
    rng = random.Random(100 + len(kinds))
    rational = not {"gzero", "real", "gauss"} & set(kinds)
    seen = {"no rows": 0, "no rhs": 0, "two inconsistent": 0, "mixed verdicts": 0}
    for _ in range(600):
        m, rhss = _random_system(rng, kinds)
        got = m.solve_many(rhss)
        want = [reference_solve(m, b) for b in rhss]
        assert len(got) == len(rhss)
        for x, y in zip(got, want):
            assert (x is None) == (y is None)
            if x is not None:
                assert x == y
                if rational:
                    assert [type(a) for a in x] == [type(a) for a in y]
        seen["no rows"] += m.nrows == 0
        seen["no rhs"] += not rhss
        seen["two inconsistent"] += want.count(None) >= 2
        seen["mixed verdicts"] += None in want and want.count(None) < len(want)
    assert all(seen.values()), seen


@pytest.mark.parametrize("kinds", [
    ("zero", "gzero", "int", "rat", "real", "gauss"),
    ("gzero", "rat"),
    ("zero", "int", "rat"),
])
def test_trace_product_matches_product_trace(kinds):
    rng = random.Random(200 + len(kinds))
    for _ in range(400):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix([[_random_entry(rng, kinds) for _ in range(k)] for _ in range(n)])
        b = Matrix([[_random_entry(rng, kinds) for _ in range(n)] for _ in range(k)])
        got, want = a.trace_product(b), (a @ b).trace()
        assert got == want and type(got) is type(want)
    with pytest.raises(ValueError):
        Matrix.identity(2).trace_product(Matrix.zero(2, 3))

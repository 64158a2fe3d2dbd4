import random

import pytest

from symprol.fedosov import corpus
from symprol.linalg import Matrix, basis_vector
from symprol.scalars import GScalar, ZERO, rat
from symprol.structure import ClosureError, LieTable, tabulate
from symprol.weyl import poisson_bracket

from conftest import random_tensor, reference_solve


def test_tabulate_and_jacobi(V, t):
    gens = [t("p2^2"), t("p2*q2"), t("q2^2")]
    table = tabulate(gens, poisson_bracket, lambda x: dict(x.coeffs), ["e", "h", "f"])
    assert table.jacobi_violation() is None
    # [p2^2, p2q2] = -2 p2^2
    assert table.brackets[(0, 1)] == {0: rat(-2)}
    ad = table.ad_matrix((rat(0), rat(1), rat(0)))     # ad of the Cartan element
    assert ad[0, 0] == rat(2) and ad[2, 2] == rat(-2)


def test_tabulate_closure_error(V, t):
    with pytest.raises(ClosureError) as exc:
        tabulate([t("p1^2"), t("q1^2")], poisson_bracket, lambda x: dict(x.coeffs))
    assert exc.value.pair == ("x1", "x2")


def _reference_closure_pair(elements):
    """Reference: solve each bracket on its own, in the order i < j, and
    return the first pair outside the span (None if the span is closed)."""
    n = len(elements)
    dicts = [dict(e.coeffs) for e in elements]
    brackets = {(i, j): dict(poisson_bracket(elements[i], elements[j]).coeffs)
                for i in range(n) for j in range(i + 1, n)}
    keys = sorted(set().union(*dicts, *brackets.values()))
    B = Matrix([[d.get(k, ZERO) for d in dicts] for k in keys], ncols=n)
    for (i, j), bd in brackets.items():
        if reference_solve(B, [bd.get(k, ZERO) for k in keys]) is None:
            return (f"x{i+1}", f"x{j+1}")
    return None


def test_tabulate_names_the_first_failing_pair(V, t):
    rng = random.Random(7)
    # sp(2) + b2 is closed; with p1*p2 for p2*q2 the first pair to leave is
    # [q1^2, p1*p2], a multiple of q1*p2
    sets = [[t("p1^2"), t("p1*q1"), t("q1^2"), t("p2^2"), t("p2*q2")],
            [t("p1^2"), t("p1*q1"), t("q1^2"), t("p2^2"), t("p1*p2")]]
    sets += [[random_tensor(rng, V, 2, terms=rng.randint(1, 2)) for _ in range(rng.randint(2, 5))]
             for _ in range(80)]
    failing, closed = [], 0
    for elements in sets:
        if Matrix.from_columns([e.coords(2) for e in elements]).rank() < len(elements):
            continue
        want = _reference_closure_pair(elements)
        if want is None:
            tabulate(elements, poisson_bracket, lambda x: dict(x.coeffs))
            closed += 1
            continue
        with pytest.raises(ClosureError) as exc:
            tabulate(elements, poisson_bracket, lambda x: dict(x.coeffs))
        assert exc.value.pair == want
        failing.append(want)
    assert closed and len(failing) > 20 and len(set(failing)) > 3, (closed, failing)


def test_tabulate_rejects_dependent_elements(V, t):
    with pytest.raises(ValueError):
        tabulate([t("p1^2"), t("2 * p1^2")], poisson_bracket, lambda x: dict(x.coeffs))


def test_series_computations():
    # heisenberg: [e1,e2] = e3
    table = LieTable(["e1", "e2", "e3"], {(0, 1): {2: rat(1)}})
    assert [s.dim for s in table.lower_central_series()] == [3, 1, 0]
    assert [s.dim for s in table.derived_series()] == [3, 1, 0]
    assert table.is_nilpotent() and table.is_solvable()
    # aff(R): solvable, not nilpotent
    aff = LieTable(["e1", "e2"], {(0, 1): {1: rat(1)}})
    assert aff.is_solvable() and not aff.is_nilpotent()
    # sl2: neither
    sl2 = LieTable(["e", "h", "f"],
                   {(0, 1): {0: rat(-2)}, (0, 2): {1: rat(1)}, (1, 2): {2: rat(-2)}})
    assert not sl2.is_solvable() and not sl2.is_nilpotent()
    assert sl2.jacobi_violation() is None


def test_jacobi_violation_detected():
    bad = LieTable(["a", "b", "c"],
                   {(0, 1): {2: rat(1)}, (0, 2): {0: rat(1)}, (1, 2): {1: rat(1)}})
    assert bad.jacobi_violation() is not None


def _reference_jacobi_violation(table):
    """Reference: the Jacobi check through dense bracket_coords calls."""
    basis = [basis_vector(table.n, i) for i in range(table.n)]
    for i in range(table.n):
        for j in range(i + 1, table.n):
            bij = table.bracket_coords(basis[i], basis[j])
            for k in range(j + 1, table.n):
                s = table.bracket_coords(bij, basis[k])
                s2 = table.bracket_coords(table.bracket_coords(basis[j], basis[k]), basis[i])
                s3 = table.bracket_coords(table.bracket_coords(basis[k], basis[i]), basis[j])
                tot = [a + b + c for a, b, c in zip(s, s2, s3)]
                if any(tot):
                    return (i, j, k, tuple(tot))
    return None


def _random_table(rng, n, density, gaussian):
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for k in range(n):
                if rng.random() < density:
                    c = rat(rng.randint(-2, 2), rng.randint(1, 2))
                    row[k] = GScalar(c, rat(rng.randint(-1, 1))) if gaussian and k % 2 else c
            if row:
                brackets[(i, j)] = row
    return LieTable([f"e{i+1}" for i in range(n)], brackets)


def test_jacobi_violation_matches_dense_reference():
    rng = random.Random(1)
    tables = [g.table for g in corpus().values()]
    tables += [_random_table(rng, rng.randint(3, 6), rng.choice([0.1, 0.3]), case % 2 == 1)
               for case in range(60)]
    violated = 0
    for table in tables:
        got, want = table.jacobi_violation(), _reference_jacobi_violation(table)
        assert got == want
        if want is not None:
            violated += 1
            assert [type(x) for x in got[3]] == [type(x) for x in want[3]]
    assert 10 < violated < len(tables)

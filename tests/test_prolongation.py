import random

import pytest

import sympy

from symprol.linalg import Matrix, Subspace
from symprol.scalars import GScalar, ONE, rat
from symprol.weyl import (SymTensor, SymplecticSpace, dim_sym, monomial_basis, omega,
                          parse_tensor, poisson_bracket, quad_to_matrix)
from symprol.prolongation import (FINITE, INFINITE, LinearSubalgebra,
                                  parabolic_prolong_closed_form, prolong_chain,
                                  prolong_step, finite_type_verdict, rank_one_witness,
                                  span_of_tensors, is_subalgebra)

from conftest import assert_same_typed_rows, random_rat


def full_sp(V):
    return LinearSubalgebra(V, [SymTensor(V, {m: rat(1)}) for m in monomial_basis(2, 2)], "sp")


def test_is_subalgebra(V, t):
    assert is_subalgebra(V, [t("q1*p1")])
    assert is_subalgebra(V, [t("p2*q2 + p1^2"), t("p1*p2")])
    assert not is_subalgebra(V, [t("p1^2"), t("q1^2")])


def test_sp_chain_dims(V):
    chain = prolong_chain(full_sp(V), kmax=2)
    assert chain.dims == [10, 20, 35]
    assert chain.dims[1] == dim_sym(2, 3) and chain.dims[2] == dim_sym(2, 4)


def test_recursion_property_holds(V, t):
    # recompute each level from the previous one and compare canonical data;
    # also check [h^(k), V] sits inside h^(k-1)
    h = LinearSubalgebra(V, [t("q1*p1"), t("q1*p2"), t("q2*p1"), t("q2*p2"),
                             t("p1^2"), t("p1*p2"), t("p2^2")], "p1")
    chain = prolong_chain(h, kmax=2)
    from symprol.weyl import poisson_bracket
    for k in (1, 2):
        prev = chain.levels[k - 1]
        for x in chain.level_tensors(k):
            for b in range(V.dim):
                img = poisson_bracket(x, V.basis_vector(b))
                assert img.is_zero() or img.coords(k + 1) in prev


def test_parabolic_closed_forms_match_brute_force(V, t):
    p1 = LinearSubalgebra(V, [t("q1*p1"), t("q1*p2"), t("q2*p1"), t("q2*p2"),
                              t("p1^2"), t("p1*p2"), t("p2^2")], "p1")
    p2 = LinearSubalgebra(V, [t("p2^2"), t("p2*q2"), t("q2^2"), t("p1*q1"),
                              t("p1*p2"), t("p1*q2"), t("p1^2")], "p2")
    ch1 = prolong_chain(p1, kmax=2)
    ch2 = prolong_chain(p2, kmax=2)
    assert ch1.dims[1] == 10 and ch2.dims[1] == 11
    for k in (1, 2):
        assert parabolic_prolong_closed_form(V, "p1", k) == ch1.levels[k]
        assert parabolic_prolong_closed_form(V, "p2", k) == ch2.levels[k]


def test_compact_and_line_prolongations_vanish(V, t):
    u2 = LinearSubalgebra(V, [t("p1^2 + q1^2"), t("p2^2 + q2^2"),
                              t("p1*q2 - p2*q1"), t("p1*p2 + q1*q2")], "u2")
    assert prolong_chain(u2, kmax=1).dims == [4, 0]
    for gen in ("p1*p2", "1/2 * p1^2 + 1/2 * p2^2"):
        assert prolong_chain(LinearSubalgebra(V, [t(gen)]), kmax=1).dims[1] == 0


def test_vanishing_propagates(V, t):
    chain = prolong_chain(LinearSubalgebra(V, [t("q1*p1")]), kmax=4)
    assert chain.dims == [1, 0, 0, 0, 0]


def test_direct_sum_property(V, t):
    # the prolongation of sp(V1) + sp(V2) splits as S^(k+2)(V1) + S^(k+2)(V2)
    s1 = LinearSubalgebra(V, [t("p1^2"), t("p1*q1"), t("q1^2"),
                              t("p2^2"), t("p2*q2"), t("q2^2")], "s1")
    chain = prolong_chain(s1, kmax=2)
    assert chain.dims[1] == 8
    for k in (1, 2):
        deg = k + 2
        split = []
        for m in monomial_basis(2, deg):
            if set(m) <= {V.index["p1"], V.index["q1"]} or \
               set(m) <= {V.index["p2"], V.index["q2"]}:
                split.append(SymTensor(V, {m: rat(1)}))
        assert span_of_tensors(split, degree=deg) == chain.levels[k]


def test_monotone_under_inclusion(V, t):
    rng = random.Random(2024)
    big = LinearSubalgebra(V, [t("p2^2"), t("p2*q2"), t("q2^2"), t("p1*q1"),
                               t("p1*p2"), t("p1*q2"), t("p1^2")], "p2")
    big_chain = prolong_chain(big, kmax=2)
    basis = big.basis_tensors()
    for _ in range(6):
        x = SymTensor(V, {})
        for b in basis:
            x = x + b.scale(rat(rng.randint(-2, 2)))
        if x.is_zero():
            continue
        line = LinearSubalgebra(V, [x])
        ch = prolong_chain(line, kmax=2)
        for k in (1, 2):
            assert big_chain.levels[k].contains_subspace(ch.levels[k])


def test_non_subalgebra_rejected(V, t):
    with pytest.raises(ValueError):
        prolong_chain(LinearSubalgebra(V, [t("p1^2"), t("q1^2")]))


def test_rank_one_witness_lines(V, t):
    w, _ = rank_one_witness(V, span_of_tensors([t("p1^2")], degree=2))
    assert w is not None and quad_to_matrix(w).rank() == 1
    w, certified = rank_one_witness(V, span_of_tensors([t("p1*p2")], degree=2))
    assert w is None and certified
    # lightlike line: x2^2 = 4 x1 x3 with (1, 2, 1)
    w, _ = rank_one_witness(V, span_of_tensors([t("p1^2 + 2 * p1*p2 + p2^2")], degree=2))
    assert w is not None


def test_two_dim_subspaces_of_s2p_have_witness(V, t):
    pairs = [("p1^2", "p2^2"), ("p1^2 + p2^2", "p1*p2"),
             ("p1^2", "p1*p2"), ("1/2 * p1^2 - 1/2 * p2^2", "p1*p2"),
             ("p1^2 - p2^2", "p1^2 + 4 * p2^2")]
    for a, b in pairs:
        sub = span_of_tensors([t(a), t(b)], degree=2)
        w, _ = rank_one_witness(V, sub)
        assert w is not None
        assert quad_to_matrix(w).rank() == 1
        assert w.coords(2) in sub.complexify()


def test_witnesses_pass_independent_rank_check(V, t):
    # every returned witness has matrix rank exactly one, recomputed directly
    hs = [
        [t("p1^2"), t("p1*p2"), t("p2^2")],
        [t("p2^2"), t("p2*q2"), t("q2^2")],
        [t("p1*q1 + p2*q2"), t("p2*q1 - p1*q2"), t("p1^2 - p2^2"),
         t("p1*p2"), t("q1^2 - q2^2"), t("q1*q2")],
    ]
    for gens in hs:
        w, _ = rank_one_witness(V, span_of_tensors(gens, degree=2))
        assert w is not None
        assert quad_to_matrix(w).rank() == 1


def test_verdicts(V, t):
    assert finite_type_verdict(LinearSubalgebra(V, [t("p2^2 + q2^2 + p1^2")])).kind == FINITE
    assert finite_type_verdict(LinearSubalgebra(V, [t("p2^2 + q2^2 - p1^2")])).kind == FINITE
    v = finite_type_verdict(LinearSubalgebra(V, [t("p2^2"), t("p2*q2"), t("q2^2"),
                                                 t("p1*q1"), t("p1*p2"), t("p1*q2"),
                                                 t("p1^2")], "p2"))
    assert v.kind == INFINITE and v.h1_dim == 11
    zero = LinearSubalgebra(V, [])
    assert finite_type_verdict(zero).kind == FINITE


def test_witness_found_through_s2p_intersection(V, t):
    # a mixed span whose only Gaussian-rational witnesses are (p1 +- 3i p2)^2,
    # with coefficients outside the default grid: the discriminant solve on
    # the intersection with S^2(P) is what finds them
    gens = [t("p1^2 - 9 * p2^2"), t("p1*p2"), t("p1*q1 + p2*q2")]
    sub = span_of_tensors(gens, degree=2)
    w, _ = rank_one_witness(V, sub)
    assert w is not None and quad_to_matrix(w).rank() == 1
    assert w.coords(2) in sub.complexify()
    # and the genuinely irrational case stays witness-free without a
    # certificate (the elements of rank one live outside Q(i))
    gens2 = [t("p1^2 - 2 * p2^2"), t("p1*p2"), t("p1*q1 + p2*q2")]
    w2, certified = rank_one_witness(V, span_of_tensors(gens2, degree=2))
    assert w2 is None and not certified


def test_undecided_outside_dimension_four(t):
    # for n = 3, span(p1p2, p1p3, p2p3) is bracket-closed with h^(1) != 0 and
    # contains no rank-one element at all, so a k = 1 scan cannot decide
    from symprol.weyl import SymplecticSpace, parse_tensor
    from symprol.prolongation import UNDECIDED
    W = SymplecticSpace(3)
    gens = [parse_tensor(W, s) for s in ("p1*p2", "p1*p3", "p2*p3")]
    v = finite_type_verdict(LinearSubalgebra(W, gens))
    assert v.kind == UNDECIDED and v.h1_dim > 0


def test_witness_grid_override(V, t, monkeypatch):
    # a deliberately useless grid suppresses pair search but the n=2 route
    # still decides the verdict through the first prolongation
    monkeypatch.setenv("SYMPROL_WITNESS_GRID", "1")
    sub = LinearSubalgebra(V, [t("p1^2 - p2^2"), t("p1*p2"), t("p1*q1 + p2*q2"),
                               t("p2*q1 - p1*q2"), t("q1^2 - q2^2"), t("q1*q2")], "s4")
    v = finite_type_verdict(sub)
    assert v.kind == INFINITE


def _ad_matrix(space, b, k):
    """Reference: matrix of T -> [T, v_b] from S^k(V) to S^(k-1)(V), column
    by column from the Poisson bracket."""
    src = monomial_basis(space.n, k)
    v = space.basis_vector(b)
    cols = [poisson_bracket(SymTensor(space, {m: ONE}), v).coords(k - 1) for m in src]
    nrows = dim_sym(space.n, k - 1)
    return Matrix([[cols[c][r] for c in range(len(src))] for r in range(nrows)])


def _bracket_conditions(space, prev, k):
    """Reference: the stacked rows of C @ ad(v_b) for the quotient conditions
    C of prev.  Each sum runs over the nonzero entries of a column of
    ad(v_b) and starts from the zero of C's type, as Matrix.__matmul__ does."""
    cond = prev.quotient_conditions()
    if not cond:
        return []
    z = GScalar(0, 0) if any(isinstance(x, GScalar) for row in cond for x in row) else rat(0)
    rows = []
    for b in range(space.dim):
        A = _ad_matrix(space, b, k + 2)
        cols = [[(r, A[r, j]) for r in range(A.nrows) if A[r, j]] for j in range(A.ncols)]
        for c in cond:
            rows.append([sum((c[r] * a for r, a in col if c[r]), z) for col in cols])
    return rows


def _reference_step(space, prev, k):
    rows = _bracket_conditions(space, prev, k)
    if not rows:
        return Subspace.full(dim_sym(space.n, k + 2))
    return Matrix(rows).kernel()


def _transvect(rng, space, tensors, gaussian):
    """Images of the tensors under a random symplectic transvection
    x -> x + c Omega(v, x) v, which maps subalgebras to subalgebras."""
    def scalar():
        x = random_rat(rng, span=3) or rat(1)
        return GScalar(x, random_rat(rng, span=2)) if gaussian else x

    v = SymTensor(space, {(i,): scalar() for i in rng.sample(range(space.dim), 2)})
    c = scalar()
    img = [space.basis_vector(i) + v.scale(c * omega(v, space.basis_vector(i)))
           for i in range(space.dim)]
    out = []
    for t in tensors:
        y = SymTensor(space, {})
        for m, coeff in t.coeffs.items():
            prod = img[m[0]].scale(coeff)
            for i in m[1:]:
                prod = prod * img[i]
            y = y + prod
        out.append(y)
    return out


SUBALGEBRAS = {
    2: [["q1*p1", "q1*p2", "q2*p1", "q2*p2", "p1^2", "p1*p2", "p2^2"],
        ["p2^2", "p2*q2", "q2^2", "p1*q1", "p1*p2", "p1*q2", "p1^2"],
        ["p1^2", "p1*q1", "q1^2", "p2^2", "p2*q2", "q2^2"],
        ["p1^2", "p1*p2", "p2^2"], ["p1^2", "p1*q1"], ["p1^2 + q1^2"],
        ["p1*q1", "p2*q2"], ["p1^2 + p2^2"]],
    3: [["p1^2", "p1*p2", "p2^2"], ["p1^2 + q1^2", "p2^2 + q2^2", "p3^2 + q3^2"],
        ["p1*q1", "p1^2", "p3^2"]],
}


@pytest.mark.parametrize("n", [2, 3])
def test_prolong_step_matches_bracket_kernel(n):
    space = SymplecticSpace(n)
    rng = random.Random(n)
    for case, gens in enumerate(SUBALGEBRAS[n]):
        tensors = [parse_tensor(space, g) for g in gens]
        for _ in range(rng.randint(1, 2)):
            tensors = _transvect(rng, space, tensors, gaussian=case % 2 == 1)
        # a Gaussian multiple of one generator mixes rational and Gaussian rows
        i = rng.randrange(len(tensors))
        tensors[i] = tensors[i].scale(rng.choice([GScalar(0, 1), GScalar(1, 1), rat(2)]))
        h = LinearSubalgebra(space, tensors)
        assert h.check_closure() is None
        level = h.subspace
        for k in range(1, 4):
            nxt = prolong_step(space, level, k)
            want = _reference_step(space, level, k)
            assert nxt.pivots == want.pivots
            assert_same_typed_rows(nxt.basis, want.basis)
            level = nxt


def test_prolong_step_dimension_matches_sympy_nullspace(V, t):
    h = LinearSubalgebra(V, [t("p2^2"), t("p2*q2"), t("q2^2"), t("p1*q1"),
                             t("p1*p2"), t("p1*q2"), t("p1^2")], "p2")
    level1 = prolong_step(V, h.subspace, 1)
    rows = _bracket_conditions(V, level1, 2)
    nullity = len(sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                for row in rows]).nullspace())
    assert prolong_step(V, level1, 2).dim == nullity == 16


def test_negative_kmax_rejected(V, t):
    with pytest.raises(ValueError, match="kmax"):
        prolong_chain(LinearSubalgebra(V, [t("q1*p1")]), kmax=-3)

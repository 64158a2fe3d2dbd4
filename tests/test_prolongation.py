import random

import pytest

import sympy

from symprol.linalg import Matrix, Subspace
from symprol.scalars import GScalar, ONE, ZERO, rat
from symprol.weyl import (SymTensor, SymplecticSpace, dim_sym, monomial_basis, omega,
                          parse_tensor, poisson_bracket, quad_to_matrix)
from symprol import catalog
from symprol.prolongation import (DEFAULT_GRID, FINITE, INFINITE, LinearSubalgebra,
                                  parabolic_prolong_closed_form, prolong_chain,
                                  prolong_step, finite_type_verdict, rank_one_witness,
                                  span_of_tensors, is_subalgebra, subspace_tensors,
                                  tensor_rank, witness_grid, _is_rank_one, _nonzero_minor,
                                  _pencil, _rank_one_points, _s2p_monomials, _s2p_pair_witness,
                                  _s2p_part, _sym_matrix, s2p_discriminant)

from conftest import assert_same_typed_rows, random_rat, random_tensor


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
    w = rank_one_witness(V, span_of_tensors([t("p1^2")], degree=2))
    assert w is not None and quad_to_matrix(w).rank() == 1
    assert rank_one_witness(V, span_of_tensors([t("p1*p2")], degree=2)) is None
    # lightlike line: x2^2 = 4 x1 x3 with (1, 2, 1)
    w = rank_one_witness(V, span_of_tensors([t("p1^2 + 2 * p1*p2 + p2^2")], degree=2))
    assert w is not None


def test_two_dim_subspaces_of_s2p_have_witness(V, t):
    pairs = [("p1^2", "p2^2"), ("p1^2 + p2^2", "p1*p2"),
             ("p1^2", "p1*p2"), ("1/2 * p1^2 - 1/2 * p2^2", "p1*p2"),
             ("p1^2 - p2^2", "p1^2 + 4 * p2^2")]
    for a, b in pairs:
        sub = span_of_tensors([t(a), t(b)], degree=2)
        w = rank_one_witness(V, sub)
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
        w = rank_one_witness(V, span_of_tensors(gens, degree=2))
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
    w = rank_one_witness(V, sub)
    assert w is not None and quad_to_matrix(w).rank() == 1
    assert w.coords(2) in sub.complexify()
    # and the genuinely irrational case stays witness-free (the elements of
    # rank one live outside Q(i))
    gens2 = [t("p1^2 - 2 * p2^2"), t("p1*p2"), t("p1*q1 + p2*q2")]
    assert rank_one_witness(V, span_of_tensors(gens2, degree=2)) is None


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
    return _substitute(space, img, tensors)


def _substitute(space, img, tensors):
    """Images of the tensors under the substitution e_i -> img[i]."""
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


# ---------------------------------------------------------------------------
# the rank-one search against the unfiltered grid search
# ---------------------------------------------------------------------------

def _reference_s2p_pair_witness(space, t1, t2):
    """Reference: the pair solve of the S^2(P) search with the discriminant
    quadratic expanded coefficient by coefficient."""
    d1 = s2p_discriminant(space, t1)
    d2 = s2p_discriminant(space, t2)
    if d1 is None or d2 is None:
        return None
    if not GScalar.of(d2):
        if not t2.is_zero():
            return t2
    A = GScalar.of(d2)
    C = GScalar.of(d1)
    p1, p2 = space.index["p1"], space.index["p2"]

    def coeffs3(t):
        return (GScalar.of(t.coeffs.get((p1, p1), ZERO)),
                GScalar.of(t.coeffs.get(tuple(sorted((p1, p2))), ZERO)),
                GScalar.of(t.coeffs.get((p2, p2), ZERO)))

    a1, b1, c1 = coeffs3(t1)
    a2, b2, c2 = coeffs3(t2)
    B = 2 * b1 * b2 - 4 * (a1 * c2 + c1 * a2)
    if not A:
        if not B:
            return t1 if not C else None
        s = (-C) / B
        cand = t1.complexify() + t2.complexify().scale(s)
        return cand if not cand.is_zero() else None
    root = (B * B - 4 * A * C).sqrt()
    if root is None:
        return None
    s = (-B + root) / (2 * A)
    cand = t1.complexify() + t2.complexify().scale(s)
    return cand if not cand.is_zero() else None


def _reference_rank_one_witness(space, sub, grid=None):
    """Reference: the rank-one search with every grid candidate built and
    sent through tensor_rank, as it was before the minor filter."""
    csub = sub.complexify()
    tensors = subspace_tensors(space, csub, 2)
    if not tensors:
        return None, True
    if len(tensors) == 1:
        t = tensors[0]
        return (t, False) if tensor_rank(t) == 1 else (None, True)
    inside_s2p = all(s2p_discriminant(space, t) is not None for t in tensors)
    if not inside_s2p and space.n == 2:
        p1, p2 = space.index["p1"], space.index["p2"]
        s2p = Subspace.from_vectors(
            [SymTensor(space, {m: ONE}).coords(2)
             for m in ((p1, p1), tuple(sorted((p1, p2))), (p2, p2))],
            dim_sym(2, 2)).complexify()
        part = csub.intersect(s2p)
        if part.dim >= 1:
            w, _ = _reference_rank_one_witness(space, part, grid)
            if w is not None:
                return w, False
    if inside_s2p:
        for t in tensors:
            d = s2p_discriminant(space, t)
            if not GScalar.of(d):
                return t, False
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                w = _reference_s2p_pair_witness(space, tensors[i], tensors[j])
                if w is not None and tensor_rank(w) == 1:
                    return w, False
        return None, False
    for t in tensors:
        if tensor_rank(t) == 1:
            return t, False
    grid = witness_grid() if grid is None else grid
    nz = [g for g in grid if g]
    for i in range(len(tensors)):
        for j in range(i + 1, len(tensors)):
            for a in nz:
                for b in nz:
                    cand = tensors[i].scale(a) + tensors[j].scale(b)
                    if not cand.is_zero() and tensor_rank(cand) == 1:
                        return cand, False
    return None, False


def _assert_same_search(space, sub, grid=None):
    got = rank_one_witness(space, sub, grid)
    want, _ = _reference_rank_one_witness(space, sub, grid)
    if want is None:
        assert got is None
    else:
        assert got.coeffs == want.coeffs
        assert {m: type(c) for m, c in got.coeffs.items()} == \
            {m: type(c) for m, c in want.coeffs.items()}
    return want


def _sp_z_conjugate(rng, space, tensors, steps=3):
    """Images under a product of integral symplectic transvections
    x -> x + c Omega(v, x) v, an element of Sp(2n, Z)."""
    for _ in range(steps):
        v = SymTensor(space, {(i,): rat(rng.choice([-2, -1, 1, 2]))
                              for i in rng.sample(range(space.dim), 2)})
        c = rat(rng.choice([-1, 1]))
        img = [space.basis_vector(i) + v.scale(c * omega(v, space.basis_vector(i)))
               for i in range(space.dim)]
        tensors = _substitute(space, img, tensors)
    return tensors


def _span_with_square(rng, space, a, b):
    """Basis (e1, e2), already row-reduced, of a span with a e1 + b e2 a
    square: for l = x_i + t x_j with t = b / (2a), a l^2 has a at x_i^2 and
    b at x_i x_j, which become the pivots of e1 and e2."""
    i, j = sorted(rng.sample(range(space.dim), 2))
    basis = monomial_basis(space.n, 2)
    c2 = basis.index((i, j))
    ell = SymTensor(space, {(i,): GScalar(1), (j,): b / (2 * a)})
    sq = (ell * ell).scale(a)
    later = range(c2 + 1, len(basis))
    coeffs = {basis[c]: GScalar(random_rat(rng, span=3), random_rat(rng, span=1))
              for c in rng.sample(later, min(2, len(later)))}
    coeffs[basis[c2]] = GScalar(1)
    e2 = SymTensor(space, coeffs)
    e1 = (sq - e2.scale(b)).scale(1 / a)
    return [e1, e2]


@pytest.mark.parametrize("n", [2, 3])
def test_rank_one_witness_finds_grid_squares_like_reference(n):
    space = SymplecticSpace(n)
    rng = random.Random(10 + n)
    nz = [g for g in DEFAULT_GRID if g]
    for _ in range(25):
        a, b = rng.choice(nz), rng.choice(nz)
        gens = _span_with_square(rng, space, a, b)
        sub = span_of_tensors(gens, degree=2)
        assert [list(v) for v in sub.basis] == [list(t.coords(2)) for t in gens]
        w = _assert_same_search(space, sub)
        assert w is not None and tensor_rank(w) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_rank_one_witness_on_random_spans_like_reference(n):
    space = SymplecticSpace(n)
    rng = random.Random(20 + n)
    found = 0
    for case in range(30):
        gens = [random_tensor(rng, space, 2, terms=rng.randint(1, 3), gaussian=case % 3 == 2)
                for _ in range(rng.randint(2, 3))]
        if case % 2:
            # a square among the generators, hidden by the row reduction
            ell = random_tensor(rng, space, 1, terms=2)
            gens[1] = ell * ell + gens[0].scale(rat(rng.choice([-2, -1, 1, 2])))
        found += _assert_same_search(space, span_of_tensors(gens, degree=2)) is not None
    assert found


def _closed_spans(n):
    if n == 2:
        V = SymplecticSpace(2)
        return [[parse_tensor(V, g) for g in gens] for gens in SUBALGEBRAS[2]] + \
            [catalog.get(name).instantiate(catalog.get(name).param_sets()[0]).basis_tensors()
             for name in ("s2", "s5", "kk", "sl2diag", "D4_12")]
    W = SymplecticSpace(3)
    return [[parse_tensor(W, g) for g in gens] for gens in SUBALGEBRAS[3] + [
        ["p1*p2", "p1*p3", "p2*p3"], ["p1^2 + p2^2", "6 * p1*p3 + 9 * p3^2 - p2^2"],
        ["p1*q2 - p2*q1", "p1*p2 + q1*q2", "p1^2 + q1^2 - p2^2 - q2^2"]]]


@pytest.mark.parametrize("n", [2, 3])
def test_rank_one_witness_on_sp_z_conjugates_like_reference(n):
    space = SymplecticSpace(n)
    rng = random.Random(30 + n)
    for gens in _closed_spans(n):
        tensors = _sp_z_conjugate(rng, space, gens)
        h = LinearSubalgebra(space, tensors)
        assert h.check_closure() is None
        _assert_same_search(space, h.subspace)


def test_s2p_part_is_the_zassenhaus_intersection(V):
    # the kernel read-off gives the same canonical subspace, entry types
    # included, as the Zassenhaus intersection with the complexified S^2(P)
    s2p = Subspace.from_vectors([SymTensor(V, {m: ONE}).coords(2) for m in _s2p_monomials(V)],
                                dim_sym(2, 2)).complexify()
    rng = random.Random(41)
    spans = _closed_spans(2) + [catalog.get(name).instantiate().basis_tensors()
                                for name in ("sp", "s1", "p1", "p2", "heisW", "s2P", "glP")]
    spans += [_sp_z_conjugate(rng, V, gens) for gens in spans]
    for case in range(40):
        # a random part of S^2(P) hidden among random quadrics
        inside = [random_tensor(rng, V, 2, terms=2, gaussian=case % 2)
                  for _ in range(rng.randint(1, 3))]
        inside = [SymTensor(V, {m: c for m, c in t.coeffs.items() if m in _s2p_monomials(V)})
                  for t in inside]
        spans.append([t for t in inside if not t.is_zero()] +
                     [random_tensor(rng, V, 2, terms=3, gaussian=case % 3 == 0)
                      for _ in range(rng.randint(1, 3))])
    dims = set()
    for gens in spans:
        csub = span_of_tensors(gens, degree=2).complexify()
        part, want = _s2p_part(V, csub), csub.intersect(s2p)
        assert part == want
        assert_same_typed_rows(part.basis, want.basis)
        dims.add(part.dim)
    assert dims == {0, 1, 2, 3}


def test_rank_one_witness_custom_grid_like_reference():
    # (p1 + 3 p3)^2 = e1 + 6 e2 in the reduced basis: off the default grid
    W = SymplecticSpace(3)
    sub = span_of_tensors([parse_tensor(W, "p1^2 + p2^2"),
                           parse_tensor(W, "6 * p1*p3 + 9 * p3^2 - p2^2")], degree=2)
    assert _assert_same_search(W, sub) is None
    for grid in [(GScalar(1), GScalar(6)), (GScalar(0), GScalar(-6), GScalar(-1), GScalar(2, 3)),
                 (GScalar(3), GScalar(1, 2)), (GScalar(0),)]:
        _assert_same_search(W, sub, grid)
    w = _assert_same_search(W, sub, (GScalar(1), GScalar(6)))
    assert w is not None and tensor_rank(w) == 1
    rng = random.Random(40)
    grid = (GScalar(3), GScalar(-1, 2), GScalar(1, 1), GScalar(1, -3))
    for n in (2, 3):
        space = SymplecticSpace(n)
        for _ in range(8):
            a, b = rng.choice(grid), rng.choice(grid)
            sub = span_of_tensors(_span_with_square(rng, space, a, b), degree=2)
            assert _assert_same_search(space, sub, grid) is not None
            _assert_same_search(space, sub, grid[:2])


def test_s2p_pair_witness_like_reference(V):
    # complexified pairs inside S^2(P), neither of rank one, as the S^2(P)
    # search meets them; every other pair spans a square at a random ratio
    rng = random.Random(50)
    mons = ((0, 0), (0, 1), (1, 1))

    def s2p_tensor(gaussian):
        coeffs = {m: random_rat(rng, span=4) for m in mons}
        if gaussian:
            coeffs = {m: GScalar(c, random_rat(rng, span=2)) for m, c in coeffs.items()}
        return SymTensor(V, {m: c for m, c in coeffs.items() if c})

    found = 0
    for case in range(80):
        t2 = s2p_tensor(case % 3 == 2)
        if case % 2:
            ell = SymTensor(V, {(0,): random_rat(rng, span=3), (1,): random_rat(rng, span=3)})
            t1 = ell * ell - t2.scale(random_rat(rng, span=3))
        else:
            t1 = s2p_tensor(case % 3 == 1)
        if not s2p_discriminant(V, t1) or not s2p_discriminant(V, t2) \
                or span_of_tensors([t1, t2], degree=2).dim < 2:
            continue
        t1, t2 = t1.complexify(), t2.complexify()
        got = _s2p_pair_witness(V, t1, t2)
        want = _reference_s2p_pair_witness(V, t1, t2)
        if want is None:
            assert got is None
            continue
        assert got.coeffs == want.coeffs
        assert {m: type(c) for m, c in got.coeffs.items()} == \
            {m: type(c) for m, c in want.coeffs.items()}
        assert tensor_rank(got) == 1
        found += 1
    assert found >= 20


def _sympy_rank(S, size):
    def conv(x):
        x = GScalar.of(x)
        return sympy.Rational(x.re.numerator, x.re.denominator) + \
            sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
    return sympy.Matrix(size, size, lambda r, c: conv(S.get((r, c), rat(0)))).rank()


def _random_sym(rng, size, rank, gaussian):
    """sum of rank terms c v v^T with sparse v: rank at most rank."""
    S = {}
    for _ in range(rank):
        v = {i: random_rat(rng, span=3) for i in rng.sample(range(size), rng.randint(1, 3))}
        c = GScalar(random_rat(rng), random_rat(rng)) if gaussian else random_rat(rng)
        for r, x in v.items():
            for s, y in v.items():
                S[r, s] = S.get((r, s), rat(0)) + c * x * y
    return {k: x for k, x in S.items() if x}


@pytest.mark.parametrize("n", [2, 3])
def test_minor_test_matches_sympy_rank(n):
    space = SymplecticSpace(n)
    size = 2 * n
    rng = random.Random(50 + n)
    seen = set()
    for case in range(120):
        gaussian = case % 2 == 1
        if case % 3 == 0:
            S = _sym_matrix(random_tensor(rng, space, 2, terms=rng.randint(0, 4),
                                          gaussian=gaussian))
        else:
            S = _random_sym(rng, size, rng.randint(0, 3), gaussian)
        rank = _sympy_rank(S, size)
        seen.add(min(rank, 2))
        assert _is_rank_one(S) == (rank == 1)
        minor = _nonzero_minor(S)
        assert (minor is None) == (rank <= 1)
        if minor is not None:
            r0, r, c0, c = minor
            z = rat(0)
            assert S.get((r0, c0), z) * S.get((r, c), z) != S.get((r0, c), z) * S.get((r, c0), z)
    assert seen == {0, 1, 2}


def test_sym_matrix_has_the_rank_of_quad_to_matrix():
    rng = random.Random(60)
    for n in (2, 3):
        space = SymplecticSpace(n)
        for case in range(20):
            t = random_tensor(rng, space, 2, terms=rng.randint(1, 4), gaussian=case % 2 == 1)
            assert _sympy_rank(_sym_matrix(t), 2 * n) == quad_to_matrix(t).rank()


@pytest.mark.parametrize("n", [2, 3])
def test_rank_one_points_are_exactly_the_rank_one_pencils(n):
    # T = (R - x0 S) / y0 with R of rank one puts a rank-one point at (x0, y0);
    # every point returned has a rank-one pencil, checked by sympy
    size = 2 * n
    rng = random.Random(70 + n)
    nz = [g for g in DEFAULT_GRID if g]
    checked = 0
    for case in range(40):
        gaussian = case % 2 == 1
        # S of rank one puts a second rank-one point at (1, 0)
        S = _random_sym(rng, size, rng.choice([1, 2, 3]), gaussian)
        R = _random_sym(rng, size, 1, gaussian)
        x0, y0 = rng.choice(nz), rng.choice(nz)
        T = _pencil(1 / y0, R, -x0 / y0, S)
        if not R or _sympy_rank(T, size) < 2:
            continue
        checked += 1
        for (x1, y1), P, Q in (((x0, y0), S, T), ((y0, x0), T, S)):
            points = _rank_one_points(P, Q)
            assert any(x1 * y == y1 * x for x, y in points)
            for x, y in points:
                assert _sympy_rank(_pencil(x, P, y, Q), size) == 1
        if _sympy_rank(S, size) == 1:
            assert any(not y for _, y in _rank_one_points(S, T))
    assert checked > 20


def test_rank_one_points_of_degenerate_pencils():
    one = rat(1)
    # p1^2 and p2^2: rank one at the two ends only
    points = _rank_one_points({(0, 0): one}, {(1, 1): one})
    assert len(points) == 2
    assert any(not y for _, y in points) and any(not x for x, _ in points)
    # e1 e1^T and e1 e2^T (not symmetric): every point has rank one
    assert _rank_one_points({(0, 0): one}, {(0, 1): one}) is None
    # p1^2 and p1 p2: [[x, y], [y, 0]] has rank one at (1, 0) only
    assert _rank_one_points({(0, 0): one}, {(0, 1): one, (1, 0): one}) == [(one, rat(0))]

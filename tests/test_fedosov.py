import pytest

from symprol.linalg import Matrix
from symprol.scalars import rat, ZERO
from symprol.structure import LieTable
from symprol.weyl import SymTensor, SymplecticSpace, monomial_basis, quad_to_matrix
from symprol import fedosov as F


@pytest.fixture(scope="module")
def algs():
    return F.corpus()


def test_corpus_is_symplectic(algs):
    for g in algs.values():
        v = F.check_symplectic(g)
        assert v.valid, (g.name, v.failures)


def test_cocycle_failure_is_localized():
    bad = F.SymplecticLieAlgebra(
        LieTable(["e1", "e2", "e3", "e4"], {(0, 1): {2: rat(1)}}),
        Matrix([[ZERO, rat(1), ZERO, ZERO], [rat(-1), ZERO, ZERO, ZERO],
                [ZERO, ZERO, ZERO, rat(1)], [ZERO, ZERO, rat(-1), ZERO]]))
    v = F.check_symplectic(bad)
    assert not v.valid
    assert any("(0,1,3)" in msg for msg in v.failures)


def test_degenerate_omega_rejected():
    bad = F.SymplecticLieAlgebra(LieTable(["e1", "e2"], {}), Matrix.zero(2, 2))
    v = F.check_symplectic(bad)
    assert not v.valid and any("degenerate" in m for m in v.failures)


def test_abelian_product_is_zero(algs):
    p = F.lsa_from_symplectic(algs["abelian4"])
    assert all(not any(v) for v in p.table.values())


def test_aff_line_product_table(algs):
    p = F.lsa_from_symplectic(algs["aff1"])
    assert p.table[(0, 0)] == (rat(-1), rat(0))    # e1 e1 = -e1
    assert p.table[(0, 1)] == (rat(0), rat(0))     # e1 e2 = 0
    assert p.table[(1, 0)] == (rat(0), rat(-1))    # e2 e1 = -e2
    assert p.table[(1, 1)] == (rat(0), rat(0))     # e2 e2 = 0


def test_left_symmetry_and_compatibility(algs):
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        v = F.check_left_symmetric(p)
        assert v.valid, (g.name, v.failures)


def test_perturbed_table_fails_with_location(algs):
    p = F.lsa_from_symplectic(algs["heis3+R"])
    p.table[(0, 1)] = tuple(c + rat(1) if k == 0 else c
                            for k, c in enumerate(p.table[(0, 1)]))
    v = F.check_left_symmetric(p)
    assert not v.valid
    assert any("(0,1)" in m or "(0,1," in m for m in v.failures)


def test_heis_left_mults_nilpotent(algs):
    g = algs["heis3+R"]
    p = F.lsa_from_symplectic(g)
    for i in range(g.n):
        L = p.left_mult(g.basis_vector(i))
        power = L
        for _ in range(g.n):
            power = power @ L
        assert power.is_zero()


def test_connection_torsion_free_and_symplectic(algs):
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        ct = F.connection(p)
        v = F.check_connection(ct)
        assert v.valid, (g.name, v.failures)


def test_commutative_product_special_case():
    # for a commutative product nabla_x y = (1/3) x y
    g = F.corpus()["abelian4"]
    p = F.lsa_from_symplectic(g)
    ct = F.connection(p)
    for key, val in ct.table.items():
        third = tuple(rat(1, 3) * c for c in p.table[key])
        assert val == third


def test_curvature_both_routes_agree(algs):
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        ct = F.connection(p)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                x, y = g.basis_vector(i), g.basis_vector(j)
                assert F.curvature_direct(ct, x, y) == F.curvature_closed(p, x, y), g.name


def test_curvature_is_antisymmetric_on_both_routes(algs):
    # why fedosov_report compares the two routes only on pairs i < k
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        ct = F.connection(p)
        for i in range(g.n):
            for k in range(i, g.n):
                x, y = g.basis_vector(i), g.basis_vector(k)
                for route, arg in ((F.curvature_direct, ct), (F.curvature_closed, p)):
                    assert route(arg, y, x) == -route(arg, x, y), (g.name, route)
                    assert i < k or route(arg, x, y).is_zero()


def test_report_builds_each_curvature_once(algs, monkeypatch):
    calls = []
    direct = F.curvature_direct

    def counted(ct, x, y):
        calls.append((x, y))
        return direct(ct, x, y)

    monkeypatch.setattr(F, "curvature_direct", counted)
    g = algs["n4"]
    rep = F.fedosov_report(g)
    assert len(calls) == g.n ** 2
    assert sorted(rep.curvature) == [(i, k) for i in range(g.n) for k in range(g.n)]
    for (i, k), R in rep.curvature.items():
        assert R == direct(rep.nabla, g.basis_vector(i), g.basis_vector(k))


def test_report_compares_every_pair_above_the_diagonal(algs, monkeypatch):
    g = algs["n4"]
    closed = F.curvature_closed
    for i in range(g.n):
        for k in range(i + 1, g.n):
            def off(p, x, y, bad=(g.basis_vector(i), g.basis_vector(k))):
                R = closed(p, x, y)
                return R + Matrix.identity(g.n) if (x, y) == bad else R
            monkeypatch.setattr(F, "curvature_closed", off)
            assert not F.fedosov_report(g).curvature_match, (i, k)
    monkeypatch.setattr(F, "curvature_closed", closed)
    assert F.fedosov_report(g).curvature_match


def test_ricci_closed_equals_trace_of_curvature(algs):
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        ct = F.connection(p)
        rc = F.ricci_closed(p)
        assert rc == F.ricci_trace_of_curvature(ct), g.name
        for i in range(g.n):
            for j in range(g.n):
                assert rc[i, j] == rc[j, i]


def test_aff_line_ricci_value(algs):
    rc = F.ricci_closed(F.lsa_from_symplectic(algs["aff1"]))
    assert rc[0, 0] == rat(2, 9)


def test_trace_identities(algs):
    for g in algs.values():
        p = F.lsa_from_symplectic(g)
        v = F.trace_identities(p)
        assert v.valid, (g.name, v.failures)


def test_aff_trace_values(algs):
    g = algs["aff1"]
    p = F.lsa_from_symplectic(g)
    e1 = g.basis_vector(0)
    assert p.right_mult(e1).trace() == rat(-2)
    assert p.left_mult(e1).trace() == rat(-1)


def test_structure_and_nilpotency(algs):
    for name in F.NILPOTENT_CORPUS:
        rep = F.structure_tests(algs[name])
        assert rep.nilpotent and rep.kappa.is_zero(), name
        assert F.ricci_closed(F.lsa_from_symplectic(algs[name])).is_zero(), name
    rep = F.structure_tests(algs["aff1"])
    assert rep.solvable and not rep.nilpotent
    assert rep.kappa[0, 0] == rat(1)
    rep = F.structure_tests(algs["abelian4"])
    assert rep.nilpotent and rep.kappa.is_zero()


def test_kappa_zero_implies_solvable(algs):
    for g in algs.values():
        rep = F.structure_tests(g)
        if rep.kappa.is_zero():
            assert rep.solvable, g.name


def test_full_reports(algs):
    for g in algs.values():
        rep = F.fedosov_report(g)
        assert rep.ok, g.name
        if g.name in F.NILPOTENT_CORPUS:
            assert rep.ricci.is_zero()


def test_algebra_text_roundtrip(algs):
    for g in algs.values():
        txt = F.format_algebra(g)
        g2 = F.parse_algebra(txt, g.name)
        assert F.format_algebra(g2) == txt
        assert F.check_symplectic(g2).valid


def test_parse_algebra_errors():
    with pytest.raises(ValueError):
        F.parse_algebra("[1,2] = 1 * e3\n")     # dim must come first
    with pytest.raises(ValueError):
        F.parse_algebra("dim 2\nnonsense\n")


# -- Nomizu maps ----------------------------------------------------------------

def test_nomizu_h_zero_flat():
    # h = 0 with abelian m: the only Nomizu map is L = 0
    res = F.nomizu_solutions([], {}, None, equivariant=True, dim_m=2)
    assert res.unique and res.particular == []
    # nonflat m-part makes the torsion equation unsolvable with h = 0
    res2 = F.nomizu_solutions([], {(0, 1): ((), (rat(1), rat(0)))}, None, dim_m=2)
    assert res2.solution_dim == -1


def test_nomizu_cp2_unique():
    h_act, mbm, h_table, om = F.cp2_symmetric_data()
    assert h_table.jacobi_violation() is None
    assert om.rank() == 4
    for A in h_act:
        assert ((om @ A) + (A.transpose() @ om)).is_zero()
    res = F.nomizu_solutions(h_act, mbm, h_table, equivariant=True)
    assert res.unique
    assert all(not c for col in res.particular for c in col)   # L = 0


def test_nomizu_sp4_prolongation_dimension():
    V = SymplecticSpace(2)
    mats = [quad_to_matrix(SymTensor(V, {m: rat(1)})) for m in monomial_basis(2, 2)]
    res = F.nomizu_solutions(mats, {}, None, equivariant=False)
    assert res.homogeneous_dim == 20

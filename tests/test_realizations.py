import random

import pytest

from symprol.linalg import Matrix
from symprol.scalars import rat
from symprol.structure import tabulate
from symprol.weyl import poisson_bracket
from symprol.realizations import (InvarianceError, P2Element, build_thmK1,
                                  build_thmK2, bracket_action_matrices, ce_h1,
                                  conf_fields, node_eigen_checks, nonsplit_check,
                                  order_filtration_plane, p2_bracket,
                                  triangle_nodes, triangle_real_basis)
from symprol.realizations.plane import (PRIMITIVE_SYMPLECTIC, gl2aff_fields, hyperbolic_fields,
                                        sphere_fields)
from symprol.realizations.series import PlaneVF, TruncSeries, poly1, poly2, lie_derivative_of_area


# -- series / plane fields ----------------------------------------------------

def test_series_ring_ops():
    a = poly2({(1, 0): 1, (0, 1): 2})
    b = poly2({(1, 1): 1})
    assert (a * b).coeffs == poly2({(2, 1): 1, (1, 2): 2}).coeffs
    assert a.diff(0).coeffs == poly2({(0, 0): 1}).coeffs
    assert (a - a).is_zero()


def test_polynomial_products_keep_every_degree():
    # polynomials are exact: no degree cap drops the top terms
    a = poly2({(9, 0): 1, (0, 1): 1})
    b = poly2({(0, 9): 2, (1, 0): -1})
    assert (a * b).coeffs == poly2({(9, 9): 2, (10, 0): -1, (0, 10): 2, (1, 1): -1}).coeffs
    assert (a * b).degree() == 18
    y = poly1({9: 1})
    assert (y * y).coeffs == {(18,): rat(1)}
    assert TruncSeries(2, {(40, 0): rat(1)}).degree() == 40


def test_plane_bracket_matches_hand_case():
    E = PlaneVF.make({(1, 0): 1}, {(0, 1): 1})
    x = PlaneVF.make({(0, 0): 1}, {})
    assert E.bracket(x) == PlaneVF.make({(0, 0): -1}, {})


def test_primitive_plane_algebras():
    expected = {"hyperbolic": (3, 1), "sphere": (3, 1), "sl2aff": (5, 3), "euclid": (3, 1)}
    for name, (dim, stab) in expected.items():
        filt = order_filtration_plane(PRIMITIVE_SYMPLECTIC[name]())
        assert filt.table.n == dim
        assert filt.transitive
        assert filt.stability.dim == stab
        assert filt.table.jacobi_violation() is None


def test_divergence_free_bases():
    for name in ("sl2aff", "euclid"):
        for f in PRIMITIVE_SYMPLECTIC[name]():
            assert f.divergence().is_zero()


def test_curved_bases_preserve_their_area_forms():
    # hyperbolic: rho = (1+y)^-2; sphere: rho = (1+x^2+y^2)^-2, as power
    # series cut off beyond degree D; L_v rho is exact through degree D-2
    D = 10
    rho_h = poly2({(0, k): rat((-1) ** k * (k + 1)) for k in range(D + 1)})
    for f in hyperbolic_fields():
        ld = lie_derivative_of_area(f, rho_h)
        assert not any(c for e, c in ld.coeffs.items() if sum(e) <= D - 2)
    one = poly2({(0, 0): 1})
    r2 = poly2({(2, 0): 1, (0, 2): 1})
    inv = one
    term = one
    for _ in range(D):
        term = term * (-r2)
        inv = inv + term
    rho_s = inv * inv
    for f in sphere_fields():
        ld = lie_derivative_of_area(f, rho_s)
        assert not any(c for e, c in ld.coeffs.items() if sum(e) <= D - 2)


def test_order_filtration_plane_examples():
    filt = order_filtration_plane(conf_fields())
    assert filt.transitive and filt.stability.dim == 2 and filt.isotropy_dim == 2
    mats = filt.isotropy_matrices()
    assert Matrix([[rat(1), rat(0)], [rat(0), rat(1)]]) in mats      # E
    assert Matrix([[rat(0), rat(-1)], [rat(1), rat(0)]]) in mats     # J
    assert filt.filtration_dims == [2, 0]
    filt2 = order_filtration_plane([PlaneVF.make({(0, 0): 1}, {}),
                                    PlaneVF.make({}, {(0, 0): 1})])
    assert filt2.transitive and filt2.stability.dim == 0
    assert filt2.filtration_dims == [0]
    aff = order_filtration_plane([PlaneVF.make({(0, 0): 1}, {}),
                                  PlaneVF.make({(1, 0): 1}, {(0, 0): 1})])
    assert aff.stability.dim == 0 and aff.filtration_dims == [0]
    # projective sl3: gl2 + R^2 and the two quadratic fields x E, y E
    proj = order_filtration_plane(gl2aff_fields() + [PlaneVF.make({(2, 0): 1}, {(1, 1): 1}),
                                                     PlaneVF.make({(1, 1): 1}, {(0, 2): 1})])
    assert proj.filtration_dims == [6, 2, 0]
    assert (proj.isotropy_dim, proj.isotropy_kernel_dim) == (4, 2)
    # d/dx, d/dy, x d/dy, x^2 d/dy: x^2 d/dy acts trivially on g / stability
    jets = order_filtration_plane([PlaneVF.make({(0, 0): 1}, {}), PlaneVF.make({}, {(0, 0): 1}),
                                   PlaneVF.make({}, {(1, 0): 1}), PlaneVF.make({}, {(2, 0): 1})])
    assert jets.filtration_dims == [2, 1, 0]
    assert (jets.isotropy_dim, jets.isotropy_kernel_dim) == (1, 1)


# -- the semi-direct model over the line --------------------------------------

def wp():
    return PlaneVF.make({(0, 0): 1}, {})


def wq():
    return PlaneVF.make({}, {(0, 0): 1})


def test_p2_bracket_center_term():
    b = p2_bracket(P2Element.field(1, wp()), P2Element.field(1, wq()))
    assert b.a.is_zero() and not b.xs
    assert b.f == poly1({2: -1})          # y^2 Omega(wp, wq) with Omega = -1
    b0 = p2_bracket(P2Element.field(0, wp()), P2Element.field(0, wq()))
    assert b0.is_zero()                   # i = j = 0 carries no center term


def test_p2_bracket_derivation_parts():
    assert p2_bracket(P2Element.der({0: 1}), P2Element.center({2: 1})).f == poly1({1: 2})
    assert p2_bracket(P2Element.der({0: 1}), P2Element.center({1: 1})).is_zero()
    b = p2_bracket(P2Element.der({1: 1}), P2Element.field(2, wp()))
    assert b.xs[2] == wp().scale(rat(2))


def test_p2_bracket_antisymmetry_and_jacobi_random():
    rng = random.Random(8)

    def rand_elem():
        e = P2Element.der({rng.randint(0, 2): rat(rng.randint(-2, 2))})
        e = e + P2Element.field(rng.randint(0, 2),
                                wp().scale(rat(rng.randint(-2, 2)))
                                + wq().scale(rat(rng.randint(-2, 2))))
        return e + P2Element.center({rng.randint(1, 3): rat(rng.randint(-2, 2))})

    for _ in range(10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (p2_bracket(x, y) + p2_bracket(y, x)).is_zero()
        jac = (p2_bracket(p2_bracket(x, y), z)
               + p2_bracket(p2_bracket(y, z), x)
               + p2_bracket(p2_bracket(z, x), y))
        assert jac.is_zero()


K1_CASES = [(base, k, N)
            for base in ("hyperbolic", "sphere") for k, N in ((1, 0), (2, 0), (3, 0))] + \
           [(base, k, N)
            for base in ("sl2aff", "euclid") for k, N in ((1, 0), (2, 0), (2, 1), (3, 1))]


@pytest.mark.parametrize("base,k,N", K1_CASES)
def test_thmK1_constructions(base, k, N):
    rep = build_thmK1(base, k, N)
    assert rep.jacobi_ok
    assert rep.transitive
    assert rep.dim == rep.expected_dim
    assert rep.stability_dim == rep.expected_stability_dim
    assert rep.isotropy_dim == rep.expected_isotropy_dim
    assert (rep.isotropy_kernel_dim > 0) == (k > 2)
    assert rep.ok


def test_thmK1_parameter_validation():
    with pytest.raises(ValueError):
        build_thmK1("sphere", 0)
    with pytest.raises(ValueError):
        build_thmK1("sphere", 2, N=1)
    with pytest.raises(ValueError):
        build_thmK1("sl2aff", 1, N=1)     # violates 2N <= k
    with pytest.raises(ValueError):
        build_thmK1("torus", 1)


# -- triangle modules and the Lagrangian-side constructions --------------------

def test_triangle_nodes():
    assert triangle_nodes(1, 1) == [(1, 1)]
    assert triangle_nodes(2, 0) == [(1, -1), (1, 1), (2, 0)]
    assert triangle_nodes(2, 2) == [(1, 1), (2, 2)]
    assert triangle_nodes(3, 1) == [(1, -1), (1, 1), (2, 0), (2, 2), (3, 1)]
    with pytest.raises(ValueError):
        triangle_nodes(2, 1)              # k and l must have equal parity


def test_triangle_real_form_needs_conjugation_closure():
    basis = triangle_real_basis([(1, 1), (1, -1)])
    assert [str(b) for b in basis] == ["1*x", "1*y"]
    with pytest.raises(ValueError):
        triangle_real_basis([(2, 2)])
    assert len(triangle_real_basis([(2, 0)])) == 3    # x, y, x^2+y^2


def test_node_eigenvalues():
    for k in range(1, 5):
        for l in range(-k, k + 1, 2):
            assert node_eigen_checks(k, l)


def test_triangle_invariance_under_conf():
    for tops in ([(1, 1), (1, -1)], [(2, 0)], [(2, 2), (2, -2)], [(3, 1), (3, -1)]):
        basis = triangle_real_basis(tops)
        keys = [(ex, ey) for d in range(17) for ex in range(d, -1, -1) for ey in [d - ex]]
        span = Matrix([[b.coeffs.get(k, rat(0)) for b in basis] for k in keys],
                      ncols=len(basis))
        from symprol.linalg import Subspace
        sub = Subspace.from_vectors(span.transpose().entries, len(keys))
        for f in conf_fields():
            for b in basis:
                img = f.apply(b).drop_constant()
                assert [img.coeffs.get(k, rat(0)) for k in keys] in sub


K2_CASES = [("sl2aff2", 1, None), ("sl2aff2", 2, None), ("sl2aff2", 3, None),
            ("gl2aff2", 1, None), ("gl2aff2", 3, None),
            ("conf", None, [(1, 1), (1, -1)]), ("conf", None, [(2, 0)]),
            ("conf", None, [(2, 2), (2, -2), (1, 1), (1, -1)]),
            ("euc", None, [(1, 1), (1, -1)]), ("euc", None, [(2, 0)])]


@pytest.mark.parametrize("base,k,tops", K2_CASES)
def test_thmK2_constructions(base, k, tops):
    rep = build_thmK2(base, k=k, tops=tops, alpha=rat(1, 2) if base == "euc" else 0)
    assert rep.jacobi_ok
    assert rep.transitive
    assert rep.stability_dim == rep.expected_stability_dim
    assert rep.isotropy_dim == rep.expected_isotropy_dim
    assert rep.ok


def test_thmK2_affine_dims():
    rep = build_thmK2("sl2aff2", k=1)
    assert rep.dim == 7
    rep = build_thmK2("conf", tops=[(1, 1), (1, -1)])
    assert rep.dim == 6


def test_thmK2_isotropy_kernel_for_high_degree():
    assert build_thmK2("sl2aff2", k=2).isotropy_kernel_dim == 0
    assert build_thmK2("sl2aff2", k=3).isotropy_kernel_dim > 0


def test_thmK2_invariance_error():
    # span(x) alone is not rotation-invariant: J sends x to y
    with pytest.raises(InvarianceError) as exc:
        build_thmK2("conf", xi_polys=[poly2({(1, 0): 1})])
    assert exc.value.pair[0] == "J"
    with pytest.raises(ValueError):
        build_thmK2("gl2aff2", k=0)
    with pytest.raises(ValueError):
        build_thmK2("conf", tops=[(2, 2)])


def test_invariance_error_prints_the_residue_as_a_polynomial():
    # J sends x to y, so the residue of J(x) against span(x) is -y
    with pytest.raises(InvarianceError) as exc:
        build_thmK2("conf", xi_polys=[poly2({(1, 0): 1})])
    assert str(exc.value) == "xi is not invariant: J applied to 1*x leaves the span (residue -1*y)"


# -- degree-one cohomology ----------------------------------------------------

def _h_module(t, h_txt, m_txt):
    h = [t(s) for s in h_txt]
    m = [t(s) for s in m_txt]
    table = tabulate(h, poisson_bracket, lambda x: dict(x.coeffs))
    return table, bracket_action_matrices(h, m)


def test_ce_h1_printed_cases(t):
    table, acts = _h_module(t, ["p2^2", "p2*q2"], ["p1^2"])
    res = ce_h1(table, acts)
    assert res.dim == 1
    # generator: c(p2^2) = 0, c(p2q2) = p1^2
    rep = res.representatives[0]
    assert rep[0] == (rat(0),) and rep[1][0]

    table, acts = _h_module(t, ["p2^2"], ["p1*p2", "p1*q2"])
    res = ce_h1(table, acts)
    assert res.dim == 1
    assert res.representatives[0][0][1]   # c(p2^2) has a p1q2 component


def test_ce_h1_vanishing_cases(t):
    for h_txt in (["p2*q2"], ["p2^2 + q2^2"], ["p2^2", "p2*q2"],
                  ["p2^2", "p2*q2", "q2^2"]):
        table, acts = _h_module(t, h_txt, ["p1*p2", "p1*q2"])
        assert ce_h1(table, acts).dim == 0


def test_ce_h1_trivial_action_is_hom(t):
    # with trivial action H^1 = Hom(h/[h,h], m)
    for h_txt, expected in ((["p2^2"], 1), (["p2*q2"], 1), (["p2^2", "p2*q2"], 1)):
        table, acts = _h_module(t, h_txt, ["p1^2"])
        assert all(a.is_zero() for a in acts) or h_txt == ["p2^2", "p2*q2"]
        assert ce_h1(table, acts).dim == expected


def test_ce_h1_trivial_algebra():
    table = tabulate([PlaneVF.make({(0, 0): 1}, {})],
                     lambda a, b: a.bracket(b), lambda v: v.to_dict())
    acts = [Matrix.zero(2, 2)]
    assert ce_h1(table, acts).dim == 2  # Hom(R, R^2)


def test_ce_h1_rejects_non_representation(t):
    table, _ = _h_module(t, ["p2^2", "p2*q2"], ["p1^2"])
    bad = [Matrix([[rat(1)]]), Matrix([[rat(1)]])]
    with pytest.raises(ValueError):
        ce_h1(table, bad)


# -- nonsplitting deformations -------------------------------------------------

def test_nonsplit_items(t):
    zero = t("0")
    # span(p2^2 + eps p1q2), the cocycle-deformed nilpotent line
    for eps in (1, -1):
        rep = nonsplit_check([t("p2^2")], [t("p1*q2").scale(rat(eps))], [zero])
        assert rep.closed and rep.cocycle_ok and rep.psi_ok
    # the solvable pair with c(p2q2) = p1^2
    rep = nonsplit_check([t("p2^2"), t("p2*q2")], [zero, t("p1^2")], [zero, zero])
    assert rep.closed
    # splitting case
    rep = nonsplit_check([t("p2^2"), t("p2*q2")], [zero, zero], [zero, zero])
    assert rep.closed
    # a psi violating the curvature equation is reported with the pair
    rep = nonsplit_check([t("p2^2"), t("p2*q2")], [zero, t("p1^2")],
                         [t("p1^2"), zero])
    assert not rep.closed and not rep.psi_ok
    assert rep.violations and rep.violations[0][:3] == (0, 1, "psi")

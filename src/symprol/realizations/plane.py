"""Finite-dimensional transitive Lie algebras of vector fields on the plane.

Every field is an exact polynomial vector field (`PlaneVF`).

The four primitive algebras of symplectic (area-preserving, for a suitable
area form) vector fields:

  * hyperbolic  -- sl2(R) by Moebius fields on the upper half plane,
                   translated so the origin is a regular point;
  * sphere      -- so3(R), infinitesimal rotations of the round 2-sphere in
                   stereographic coordinates;
  * sl2aff      -- unimodular affine algebra sl2(R) + R^2;
  * euclid      -- Euclidean motions R + R^2.

sl2aff and euclid preserve the standard area form dx^dy (divergence zero);
hyperbolic preserves dx^dy / (1+y)^2 and the sphere 4 dx^dy / (1+x^2+y^2)^2,
which the tests verify as power series identities through a fixed degree.

Also here: the larger (non-symplectic) primitive plane algebras used as
bases of the semi-direct constructions on the Lagrangian side -- affine,
special affine, conformal, and the one-parameter twisted Euclidean family --
and the order filtration of a plane vector-field algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalars import ZERO, as_rat
from ..linalg import Matrix, Subspace, basis_vector
from ..structure import LieTable, tabulate
from .series import PlaneVF


_vf = PlaneVF.make


def hyperbolic_fields():
    """Moebius sl2(R): d/dx, x d/dx + (y+1) d/dy,
    (x^2-(y+1)^2) d/dx + 2x(y+1) d/dy."""
    A = _vf({(0, 0): 1}, {})
    B = _vf({(1, 0): 1}, {(0, 1): 1, (0, 0): 1})
    C = _vf({(2, 0): 1, (0, 2): -1, (0, 1): -2, (0, 0): -1}, {(1, 1): 2, (1, 0): 2})
    return [A, B, C]


def sphere_fields():
    """so3(R): -y d/dx + x d/dy, (1+x^2-y^2) d/dx + 2xy d/dy,
    2xy d/dx + (1-x^2+y^2) d/dy."""
    J = _vf({(0, 1): -1}, {(1, 0): 1})
    B = _vf({(0, 0): 1, (2, 0): 1, (0, 2): -1}, {(1, 1): 2})
    C = _vf({(1, 1): 2}, {(0, 0): 1, (2, 0): -1, (0, 2): 1})
    return [J, B, C]


def sl2aff_fields():
    """sl2(R) + R^2: translations and the traceless linear fields."""
    return [_vf({(0, 0): 1}, {}), _vf({}, {(0, 0): 1}),
            _vf({(1, 0): 1}, {(0, 1): -1}),
            _vf({(0, 1): 1}, {}), _vf({}, {(1, 0): 1})]


def euclid_fields():
    """R + R^2: translations and the rotation."""
    return [_vf({(0, 0): 1}, {}), _vf({}, {(0, 0): 1}), _vf({(0, 1): -1}, {(1, 0): 1})]


def gl2aff_fields():
    """gl2(R) + R^2, the full affine algebra."""
    return [_vf({(0, 0): 1}, {}), _vf({}, {(0, 0): 1}),
            _vf({(1, 0): 1}, {}), _vf({(0, 1): 1}, {}),
            _vf({}, {(1, 0): 1}), _vf({}, {(0, 1): 1})]


def euler_field() -> PlaneVF:
    """E = x d/dx + y d/dy."""
    return _vf({(1, 0): 1}, {(0, 1): 1})


def rotation_field() -> PlaneVF:
    """J = x d/dy - y d/dx."""
    return _vf({(0, 1): -1}, {(1, 0): 1})


def conf_fields():
    """conf(R^2) = span(d/dx, d/dy, E, J)."""
    return [_vf({(0, 0): 1}, {}), _vf({}, {(0, 0): 1}), euler_field(), rotation_field()]


def euc_alpha_fields(alpha):
    """euc_alpha(R^2) = span(d/dx, d/dy, alpha E - J), alpha >= 0."""
    a = as_rat(alpha)
    if a < 0:
        raise ValueError("alpha must be >= 0")
    Ja = euler_field().scale(a) - rotation_field()
    return [_vf({(0, 0): 1}, {}), _vf({}, {(0, 0): 1}), Ja]


PRIMITIVE_SYMPLECTIC = {
    "hyperbolic": hyperbolic_fields,
    "sphere": sphere_fields,
    "sl2aff": sl2aff_fields,
    "euclid": euclid_fields,
}


@dataclass
class PlaneFiltration:
    """Order filtration of a plane vector-field algebra."""

    table: LieTable
    fields: list
    transitive: bool
    stability: Subspace          # coefficient vectors vanishing at the origin
    isotropy_dim: int
    isotropy_kernel_dim: int
    filtration_dims: list

    def isotropy_matrices(self):
        """Linear action of a stability basis on the tangent space."""
        out = []
        for v in self.stability.basis:
            m = None
            for c, f in zip(v, self.fields):
                if c:
                    part = f.linear_part().scale(c)
                    m = part if m is None else m + part
            out.append(m if m is not None else Matrix.zero(2, 2))
        return out


def plane_table(fields) -> LieTable:
    return tabulate(fields, lambda a, b: a.bracket(b), lambda v: v.to_dict())


def order_filtration(elements, table: LieTable, ev_rows, component, max_degree):
    """Transitivity, stability, isotropy kernel and the dimensions of the
    order filtration g_(-1) = stability, g_0, g_1, ... of span(elements).

    ev_rows are the coordinates of the values at the origin (one row per
    coordinate, one column per element); component(e, d) is the sparse
    {key: coeff} degree-d part of e.  g_d is the subspace on which every
    component of degree <= d vanishes; the loop stops at dimension 0.
    """
    n = len(elements)
    ev = Matrix(ev_rows, ncols=n)
    transitive = ev.rank() == len(ev_rows)
    stability = ev.kernel()
    rows = list(ev_rows)
    dims = [stability.dim]
    for d in range(max_degree + 1):
        if not dims[-1]:
            break
        comps = [component(e, d) for e in elements]
        keys = sorted({k for p in comps for k in p})
        rows.extend([[comps[c].get(k, ZERO) for c in range(n)] for k in keys])
        dims.append(Matrix(rows, ncols=n).kernel().dim)
    return transitive, stability, isotropy_kernel(table, stability), dims


def order_filtration_plane(fields) -> PlaneFiltration:
    """Filtration by vanishing order at the origin, transitivity and the
    linear isotropy of span(fields).  The homogeneous part of polynomial
    degree r of a field is its component of degree r - 1."""
    table = plane_table(fields)
    ev_rows = [[f.value_at_origin()[r] for f in fields] for r in range(2)]
    maxdeg = max((f.degree() for f in fields), default=0)
    transitive, stability, iso_kernel, dims = order_filtration(
        fields, table, ev_rows, lambda f, d: f.homogeneous_part(d + 1).to_dict(),
        maxdeg - 1)
    return PlaneFiltration(table, list(fields), transitive, stability,
                           stability.dim - iso_kernel.dim, iso_kernel.dim, dims)


def isotropy_kernel(table: LieTable, stability: Subspace) -> Subspace:
    """{x in stability : [x, g] is contained in stability}, the kernel of the
    isotropy representation on g / stability."""
    n = table.n
    cond = stability.quotient_conditions()
    if not cond:
        return stability
    C = Matrix(cond)
    rows = []
    for j in range(n):
        e = basis_vector(n, j)
        # map x -> C [x, e_j], linear in x
        cols = [C.apply(table.bracket_coords(basis_vector(n, i), e)) for i in range(n)]
        rows.extend(Matrix.from_columns(cols).entries)
    sol = Matrix(rows, ncols=n).kernel()
    return sol.intersect(stability)

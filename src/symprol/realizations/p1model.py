"""Transitive subalgebras of the Lagrangian-plane prolongation model.

The model is the semi-direct sum of vector fields on the plane acting on the
abelian ideal of formal power series modulo constants:

    [X, Y] = vector field bracket,   [X, f] = X(f) mod constants,   [f, g] = 0.

A transitive splitting subalgebra is g = gtilde + xi with gtilde a transitive
plane algebra and xi an invariant space of polynomials containing x + h.o.t.
and y + h.o.t.  For the affine bases xi is the space of nonconstant
polynomials of degree <= k; for the conformal and twisted-Euclidean bases xi
is a sum of "triangle" modules: with E = x d/dx + y d/dy and J = x d/dy -
y d/dx acting diagonally on the complexified bigrading

    P^(k,l) = C z^((k+l)/2) zbar^((k-l)/2),    E -> k,  J -> i l,

the module W^(k0,l0) is the span of all nodes with k > 0 in the downward
triangle below (k0,l0), and a real form exists iff the chosen tops are
closed under l -> -l.
"""

from __future__ import annotations

from math import comb

from ..scalars import ZERO, rat
from ..linalg import Matrix, Subspace, basis_vector
from ..structure import tabulate
from .series import PlaneVF, TruncSeries, poly2
from .plane import (conf_fields, euc_alpha_fields, euler_field, gl2aff_fields,
                    order_filtration, rotation_field, sl2aff_fields)
from .p2model import ModelReport

K2_BASES = ("sl2aff2", "gl2aff2", "conf", "euc")


def base_fields(base: str, alpha=0):
    if base == "sl2aff2":
        return sl2aff_fields(), ["d/dx", "d/dy", "H", "Y-", "Y+"]
    if base == "gl2aff2":
        return gl2aff_fields(), ["d/dx", "d/dy", "x d/dx", "y d/dx", "x d/dy", "y d/dy"]
    if base == "conf":
        return conf_fields(), ["d/dx", "d/dy", "E", "J"]
    if base == "euc":
        return euc_alpha_fields(alpha), ["d/dx", "d/dy", "J_alpha"]
    raise ValueError(f"base must be one of {K2_BASES}")


# ---------------------------------------------------------------------------
# triangle modules
# ---------------------------------------------------------------------------

def triangle_nodes(k0: int, l0: int):
    """Bigraded nodes (k, l), k > 0, of the triangle with top (k0, l0)."""
    if k0 < 1 or abs(l0) > k0 or (k0 - l0) % 2:
        raise ValueError(f"illegal top node ({k0},{l0})")
    nodes = set()
    frontier = {(k0, l0)}
    while frontier:
        nxt = set()
        for (k, l) in frontier:
            if k < 1 or abs(l) > k:
                continue
            if (k, l) in nodes:
                continue
            nodes.add((k, l))
            nxt.add((k - 1, l - 1))
            nxt.add((k - 1, l + 1))
        frontier = nxt
    return sorted(nodes)


def _re_im_monomial(a: int, b: int):
    """Real and imaginary parts of z^a zbar^b as exact real polynomials."""
    re = {}
    im = {}
    # z^a zbar^b = (x+iy)^a (x-iy)^b; expand binomially
    for s in range(a + 1):
        for u in range(b + 1):
            coeff = comb(a, s) * comb(b, u) * (-1) ** u
            ex = (a - s) + (b - u)
            ey = s + u
            ipow = (s + u) % 4
            c = rat(coeff)
            key = (ex, ey)
            if ipow == 0:
                re[key] = re.get(key, ZERO) + c
            elif ipow == 1:
                im[key] = im.get(key, ZERO) + c
            elif ipow == 2:
                re[key] = re.get(key, ZERO) - c
            else:
                im[key] = im.get(key, ZERO) - c
    return (TruncSeries(2, re), TruncSeries(2, im))


def triangle_real_basis(tops):
    """Real polynomial basis of the real form of the sum of the triangle
    modules with the given top nodes.

    The list of tops must be closed under conjugation l -> -l, else there is
    no real form and a ValueError reports the offending top.
    """
    tops = sorted(set(tuple(t) for t in tops))
    topset = set(tops)
    for (k, l) in tops:
        if l and (k, -l) not in topset:
            raise ValueError(f"module set is not conjugation-invariant: "
                             f"top ({k},{l}) without ({k},{-l})")
    nodes = set()
    for t in tops:
        nodes.update(triangle_nodes(*t))
    basis = []
    for (k, l) in sorted(nodes):
        if l < 0:
            continue
        a, b = (k + l) // 2, (k - l) // 2
        re, im = _re_im_monomial(a, b)
        basis.append(re)
        if l:
            basis.append(im)
    return basis


def node_eigen_checks(k: int, l: int):
    """E acts on the node pair by k and J by the rotation block for l:
    E(Re) = k Re, E(Im) = k Im, J(Re) = -l Im, J(Im) = l Re.  Returns True
    when the identities hold exactly."""
    a, b = (k + l) // 2, (k - l) // 2
    re, im = _re_im_monomial(a, b)
    E, J = euler_field(), rotation_field()
    kk, ll = rat(k), rat(l)
    return (E.apply(re) == re.scale(kk) and E.apply(im) == im.scale(kk)
            and J.apply(re) == im.scale(-ll) and J.apply(im) == re.scale(ll))


# ---------------------------------------------------------------------------
# the semi-direct construction
# ---------------------------------------------------------------------------

class K2Element:
    """Pair (vector field, polynomial without constant term)."""

    __slots__ = ("v", "f")

    def __init__(self, v: PlaneVF = None, f: TruncSeries = None):
        self.v = v if v is not None else PlaneVF.zero()
        self.f = f if f is not None else TruncSeries.zero(2)
        if self.f.constant_term():
            raise ValueError("polynomial part has no constant term")

    def __add__(self, other):
        return K2Element(self.v + other.v, self.f + other.f)

    def scale(self, c):
        return K2Element(self.v.scale(c), self.f.scale(c))

    def to_dict(self):
        out = self.v.to_dict("v")
        for e, c in self.f.coeffs.items():
            out[("f",) + e] = c
        return out

    def __str__(self):
        parts = []
        if not self.v.is_zero():
            parts.append(str(self.v))
        if not self.f.is_zero():
            parts.append(f"xi[{self.f}]")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def k2_bracket(e1: K2Element, e2: K2Element) -> K2Element:
    return K2Element(e1.v.bracket(e2.v),
                     (e1.v.apply(e2.f) - e2.v.apply(e1.f)).drop_constant())


def k2_component(e: K2Element, d: int) -> dict:
    """Degree-d graded component: fields of polynomial coefficient degree
    d+1, polynomials of degree d+2."""
    out = {}
    for k, c in e.v.homogeneous_part(d + 1).to_dict().items():
        out[k] = c
    for ee, c in e.f.homogeneous_part(d + 2).coeffs.items():
        out[("f",) + ee] = c
    return out


def k2_evaluation(e: K2Element):
    vx, vy = e.v.value_at_origin()
    return (vx, vy, e.f.coeffs.get((1, 0), ZERO), e.f.coeffs.get((0, 1), ZERO))


class InvarianceError(ValueError):
    """The chosen xi is not invariant under the base algebra."""

    def __init__(self, field_label, poly, residue):
        self.pair = (field_label, str(poly))
        super().__init__(f"xi is not invariant: {field_label} applied to {poly} "
                         f"leaves the span (residue {residue})")


def nonconstant_polys_upto(k: int):
    return [poly2({e: 1}) for e in _poly_keys(k)[1:]]


def build_thmK2(base: str, k: int = None, tops=None, alpha=0, xi_polys=None) -> ModelReport:
    """g = gtilde + xi on the Lagrangian side.

    For the affine bases pass k (xi = nonconstant polynomials of degree <= k);
    for conf/euc pass the triangle tops; xi_polys overrides either with an
    explicit polynomial basis.  Invariance of xi mod constants is verified
    generator by generator, reporting the violating pair; the report then
    carries closure, Jacobi, transitivity, and the stability/isotropy counts
    k_stab = ktilde + (xi cap deg >= 2),  h = ktilde + (xi cap deg 2).
    """
    if base not in K2_BASES:
        raise ValueError(f"base must be one of {K2_BASES}")
    if xi_polys is not None:
        xi = list(xi_polys)
        xi_labels = [f"xi{m+1}" for m in range(len(xi))]
        name = f"thmK2-{base}-custom"
    elif base in ("sl2aff2", "gl2aff2"):
        if k is None or k < 1:
            raise ValueError("affine bases need k >= 1")
        xi = nonconstant_polys_upto(k)
        xi_labels = [f"x^{ex}y^{ey}" for ex, ey in _poly_keys(k)[1:]]
        name = f"thmK2-{base}-k{k}"
    else:
        if not tops:
            raise ValueError("conf/euc bases need triangle tops")
        xi = triangle_real_basis(tops)
        xi_labels = [f"xi{m+1}" for m in range(len(xi))]
        name = f"thmK2-{base}-" + "+".join(f"W({a},{b})" for a, b in sorted(set(map(tuple, tops))))
        if base == "euc":
            name += f"-alpha={alpha}"

    fields, flabels = base_fields(base, alpha)
    # the base fields have degree <= 1, so v(f) keeps within the degree of xi
    maxdeg = max((f.degree() for f in xi), default=2)
    keys = _poly_keys(max(2, maxdeg))
    xi_span = Subspace.from_vectors([_poly_vector(f, keys) for f in xi], len(keys))
    for v, lab in zip(fields, flabels):
        for f in xi:
            img = v.apply(f).drop_constant()
            vec = _poly_vector(img, keys)
            if vec not in xi_span:
                residue = zip(keys, xi_span.reduce(vec))
                raise InvarianceError(lab, f, poly2({e: c for e, c in residue if c}))

    elements = [K2Element(v=v) for v in fields]
    elements += [K2Element(f=f) for f in xi]
    labels = flabels + xi_labels
    table = tabulate(elements, k2_bracket, lambda e: e.to_dict(), labels)
    jac = table.jacobi_violation()

    ktilde = sum(1 for v in fields if v.value_at_origin() == (ZERO, ZERO))
    # dim(xi with the linear part killed) and dim(xi cap span(x^2, xy, y^2)),
    # computed on spans so any basis presentation of xi gives the same counts
    lin_rows = [[f.coeffs.get(e, ZERO) for f in xi] for e in ((1, 0), (0, 1))]
    xi_high = len(xi) - Matrix(lin_rows, ncols=len(xi)).rank()
    deg2 = Subspace.from_vectors(
        [basis_vector(len(keys), keys.index(e)) for e in ((2, 0), (1, 1), (0, 2))],
        len(keys))
    xi_two = xi_span.intersect(deg2).dim
    expected_stab = ktilde + xi_high
    expected_iso = ktilde + xi_two

    n = len(elements)
    ev_rows = [[k2_evaluation(e)[r] for e in elements] for r in range(4)]
    transitive, stability, ik, dims = order_filtration(
        elements, table, ev_rows, k2_component, maxdeg)
    return ModelReport(name, table, elements, n, len(fields) + len(xi), jac is None,
                       transitive, stability.dim, expected_stab,
                       stability.dim - ik.dim, expected_iso, ik.dim, dims)


def _poly_keys(degree):
    """Exponents of total degree <= degree, by degree and then falling ex."""
    return [(ex, d - ex) for d in range(degree + 1) for ex in range(d, -1, -1)]


def _poly_vector(f: TruncSeries, keys):
    return [f.coeffs.get(e, ZERO) for e in keys]

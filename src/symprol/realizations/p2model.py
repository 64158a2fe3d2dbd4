"""Abstract model of the full prolongation of the isotropic-line parabolic.

Elements are triples

    a(y) d/dy   +   sum_i y^i X_i   +   f(y)

with a, f polynomials in one variable (f without constant term) and X_i
polynomial vector fields on the transverse plane W.  The bracket follows the
semi-direct structure: vector fields on the line act on both the y-grading
and the center, the center R_+[[y]] is central in the ideal, and

    [y^i X, y^j Y] = y^(i+j) [X, Y] + y^(i+j) Omega(X(0), Y(0))   (i + j > 0)
    [X, Y]                                                        (i = j = 0)

where Omega is the symplectic pairing of the values at the origin,
normalized to Omega(wp, wq) = -1 on the two translation directions of W.
This is exactly the central-term bookkeeping of the bracket of formal
symplectic vector fields, so Jacobi holds on the nose whenever the fields
occurring at positive powers of y preserve the standard area form.

From this model the transitive algebra family

    g = aff(R) + gbar-part + span(y, ..., y^k)

is built for each of the four primitive plane bases, with gbar-part equal
to gbar itself for the simple bases (hyperbolic, sphere) and to
s + (P^N tensor n) for the affine ones (sl2aff, euclid), subject to
2N <= k.  Dimensions, Jacobi, transitivity, stability and isotropy are all
recomputed exactly and compared with the closed-form counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scalars import ZERO
from ..structure import LieTable, tabulate
from .series import PlaneVF, TruncSeries, area_pairing, poly1
from .plane import PRIMITIVE_SYMPLECTIC, order_filtration


class P2Element:
    """a(y) d/dy + sum_i y^i X_i + f(y), the model element."""

    __slots__ = ("a", "xs", "f")

    def __init__(self, a: TruncSeries = None, xs: dict = None, f: TruncSeries = None):
        self.a = a if a is not None else TruncSeries.zero(1)
        self.f = f if f is not None else TruncSeries.zero(1)
        if self.a.nvars != 1 or self.f.nvars != 1:
            raise ValueError("a and f are one-variable series")
        if self.f.constant_term():
            raise ValueError("the center part has no constant term")
        self.xs = {i: v for i, v in (xs or {}).items() if not v.is_zero()}

    @classmethod
    def der(cls, pairs):
        """a(y) d/dy from {power: coeff}."""
        return cls(a=poly1(pairs))

    @classmethod
    def field(cls, i: int, v: PlaneVF):
        return cls(xs={i: v})

    @classmethod
    def center(cls, pairs):
        return cls(f=poly1(pairs))

    def __add__(self, other):
        xs = dict(self.xs)
        for i, v in other.xs.items():
            w = xs.get(i)
            s = v if w is None else w + v
            if s.is_zero():
                xs.pop(i, None)
            else:
                xs[i] = s
        return P2Element(self.a + other.a, xs, self.f + other.f)

    def __neg__(self):
        return P2Element(-self.a, {i: -v for i, v in self.xs.items()}, -self.f)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return P2Element(self.a.scale(c), {i: v.scale(c) for i, v in self.xs.items()},
                         self.f.scale(c))

    def is_zero(self):
        return self.a.is_zero() and self.f.is_zero() and not self.xs

    def to_dict(self):
        out = {}
        for e, c in self.a.coeffs.items():
            out[("a", e[0])] = c
        for i, v in self.xs.items():
            for k, c in v.to_dict().items():
                out[("x", i) + k[1:]] = c
        for e, c in self.f.coeffs.items():
            out[("f", e[0])] = c
        return out

    def __str__(self):
        parts = []
        if not self.a.is_zero():
            parts.append(f"({self.a}) d/dy")
        for i in sorted(self.xs):
            parts.append(f"y^{i} ({self.xs[i]})" if i else f"({self.xs[i]})")
        if not self.f.is_zero():
            parts.append(f"xi[{self.f}]")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def p2_bracket(e1: P2Element, e2: P2Element) -> P2Element:
    """The model bracket; antisymmetric and Jacobi-exact (see module doc)."""
    a = e1.a * e2.a.diff(0) - e2.a * e1.a.diff(0)
    xs = {}

    def add_x(i, v):
        if v.is_zero():
            return
        w = xs.get(i)
        s = v if w is None else w + v
        if s.is_zero():
            xs.pop(i, None)
        else:
            xs[i] = s

    # derivation part acting on the y-grading: [a d/dy, y^i X] = a (y^i)' X
    for i, v in e2.xs.items():
        if i:
            prof = e1.a * poly1({i - 1: i})
            for e, c in prof.coeffs.items():
                add_x(e[0], v.scale(c))
    for i, v in e1.xs.items():
        if i:
            prof = e2.a * poly1({i - 1: i})
            for e, c in prof.coeffs.items():
                add_x(e[0], v.scale(-c))
    # derivation part acting on the center, modulo constants
    f = (e1.a * e2.f.diff(0) - e2.a * e1.f.diff(0)).drop_constant()
    # plane fields against plane fields, with the central correction
    for i, v in e1.xs.items():
        for j, w in e2.xs.items():
            add_x(i + j, v.bracket(w))
            if i + j > 0:
                om = area_pairing(v, w)
                if om:
                    f = f + poly1({i + j: om})
    return P2Element(a, xs, f)


# ---------------------------------------------------------------------------
# grading, evaluation and the order filtration of the model
# ---------------------------------------------------------------------------

def element_component(e: P2Element, d: int) -> dict:
    """Sparse dict of the degree-d graded component of the element:
    y^m d/dy has degree m-1, y^i (field of polynomial degree r) degree
    i+r-1, and y^m in the center degree m-2."""
    out = {}
    c = e.a.coeffs.get((d + 1,))
    if c:
        out[("a", d + 1)] = c
    for i, v in e.xs.items():
        r = d + 1 - i
        if r < 0:
            continue
        part = v.homogeneous_part(r)
        for k, cc in part.to_dict().items():
            out[("x", i) + k[1:]] = cc
    c = e.f.coeffs.get((d + 2,))
    if c:
        out[("f", d + 2)] = c
    return out


def evaluation_vector(e: P2Element):
    """The four degree -1 coordinates: d/dy coefficient at 0, the value of
    the y^0 field at the origin, and the linear coefficient of the center."""
    x0 = e.xs.get(0)
    vx, vy = x0.value_at_origin() if x0 is not None else (ZERO, ZERO)
    return (e.a.constant_term(), vx, vy, e.f.coeffs.get((1,), ZERO))


@dataclass
class ModelReport:
    """A constructed transitive algebra with its verification data."""

    name: str
    table: LieTable
    elements: list
    dim: int
    expected_dim: int
    jacobi_ok: bool
    transitive: bool
    stability_dim: int
    expected_stability_dim: int
    isotropy_dim: int
    expected_isotropy_dim: int
    isotropy_kernel_dim: int
    filtration_dims: list

    @property
    def ok(self) -> bool:
        return (self.jacobi_ok and self.transitive and self.dim == self.expected_dim
                and self.stability_dim == self.expected_stability_dim
                and self.isotropy_dim == self.expected_isotropy_dim)

    def records(self):
        lines = [f"name={self.name} dim={self.dim} expected_dim={self.expected_dim} "
                 f"jacobi={'0' if self.jacobi_ok else 'VIOLATED'} transitive={self.transitive} "
                 f"stability={self.stability_dim}/{self.expected_stability_dim} "
                 f"isotropy={self.isotropy_dim}/{self.expected_isotropy_dim} "
                 f"isotropy_kernel={self.isotropy_kernel_dim} "
                 f"filtration={','.join(map(str, self.filtration_dims))}"]
        lines += self.table.records()
        return lines


def build_thmK1(base: str, k: int, N: int = 0) -> ModelReport:
    """Transitive, transversally primitive algebra over a primitive plane base.

    For the simple bases the family is aff(R) + gbar + span(y..y^k); for the
    affine bases aff(R) + (s + P^N tensor n) + span(y..y^k) with 2N <= k.
    The returned report carries the exact checks: structure constants close,
    Jacobi holds, dim g = 2 + dim(gbar-part) + k, and the stability and
    isotropy dimensions match the closed-form counts.
    """
    if base not in PRIMITIVE_SYMPLECTIC:
        raise ValueError(f"base must be one of {sorted(PRIMITIVE_SYMPLECTIC)}")
    if k < 1:
        raise ValueError("need k >= 1")
    simple = base in ("hyperbolic", "sphere")
    if simple and N:
        raise ValueError("N applies only to the affine bases")
    if not simple and not 0 <= 2 * N <= k:
        raise ValueError("need 0 <= 2N <= k")

    elements = [P2Element.der({0: 1}), P2Element.der({1: 1})]
    labels = ["d/dy", "y d/dy"]
    fields = PRIMITIVE_SYMPLECTIC[base]()
    if simple:
        for m, v in enumerate(fields):
            elements.append(P2Element.field(0, v))
            labels.append(f"X{m+1}")
        bar_dim = 3
        stab_bar = 1  # one-dimensional isotropy of the plane base
    else:
        s_part = fields[2:]
        n_part = fields[:2]
        for m, v in enumerate(s_part):
            elements.append(P2Element.field(0, v))
            labels.append(f"S{m+1}")
        for i in range(N + 1):
            for m, v in enumerate(n_part):
                elements.append(P2Element.field(i, v))
                labels.append(f"y^{i} T{m+1}" if i else f"T{m+1}")
        bar_dim = len(s_part) + 2 * (N + 1)
        stab_bar = len(s_part) + 2 * N
    for m in range(1, k + 1):
        elements.append(P2Element.center({m: 1}))
        labels.append(f"y^{m}")

    table = tabulate(elements, p2_bracket, lambda e: e.to_dict(), labels)
    jac = table.jacobi_violation()
    dim = len(elements)
    expected_dim = 2 + bar_dim + k

    # closed-form stability and isotropy counts
    expected_stab = 1 + stab_bar + (k - 1 if k > 1 else 0)
    if simple:
        expected_iso = 2 + (1 if k > 1 else 0)
    else:
        s_dim = len(fields) - 2
        expected_iso = 1 + s_dim + (2 if N > 0 and k > 1 else 0) + (1 if k > 1 else 0)

    ev_rows = [[evaluation_vector(e)[r] for e in elements] for r in range(4)]
    max_deg = max(k, 2 * N + 1, 3)
    transitive, stability, ik, dims = order_filtration(
        elements, table, ev_rows, element_component, max_deg)
    return ModelReport(f"thmK1-{base}-k{k}" + (f"-N{N}" if not simple else ""),
                       table, elements, dim, expected_dim, jac is None, transitive,
                       stability.dim, expected_stab,
                       stability.dim - ik.dim, expected_iso, ik.dim, dims)

"""Exact sparse polynomials and polynomial vector fields on the plane.

Polynomials are sparse exponent -> coefficient maps in one or two variables
with exact coefficients; every ring operation is exact, with no degree cap.
The finite-dimensional algebras built downstream are polynomial of bounded
degree, so every bracket and Jacobi check is an exact identity.
"""

from __future__ import annotations

from ..scalars import ZERO, as_rat, fmt_scalar
from ..linalg import Matrix


class TruncSeries:
    """Exact sparse polynomial in 1 or 2 variables."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        if nvars not in (1, 2):
            raise ValueError("polynomials support 1 or 2 variables")
        self.nvars = nvars
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            e = (e,) if isinstance(e, int) else tuple(e)
            if len(e) != nvars:
                raise ValueError("exponent arity mismatch")
            if c:
                self.coeffs[e] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def _same(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        self._same(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncSeries(self.nvars, out)

    def __neg__(self):
        return TruncSeries(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return TruncSeries.zero(self.nvars)
        return TruncSeries(self.nvars, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        self._same(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return TruncSeries(self.nvars, out)

    def diff(self, var: int = 0):
        out = {}
        for e, c in self.coeffs.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * e[var]
        return TruncSeries(self.nvars, out)

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, ZERO)

    def drop_constant(self):
        out = dict(self.coeffs)
        out.pop((0,) * self.nvars, None)
        return TruncSeries(self.nvars, out)

    def homogeneous_part(self, d: int):
        return TruncSeries(self.nvars, {e: c for e, c in self.coeffs.items() if sum(e) == d})

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = ("y",) if self.nvars == 1 else ("x", "y")
        terms = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                            for i, k in enumerate(e) if k)
            c = fmt_scalar(self.coeffs[e])
            terms.append(f"{c}*{mono}" if mono else c)
        return " + ".join(terms)

    __repr__ = __str__


def poly1(pairs) -> TruncSeries:
    """Polynomial in y from {power: coeff}."""
    return TruncSeries(1, {(m,): as_rat(c) for m, c in pairs.items()})


def poly2(pairs) -> TruncSeries:
    """Two-variable polynomial from {(ex, ey): coeff}."""
    return TruncSeries(2, {e: as_rat(c) for e, c in pairs.items()})


class PlaneVF:
    """Vector field fx d/dx + fy d/dy with polynomial coefficients."""

    __slots__ = ("fx", "fy")

    def __init__(self, fx: TruncSeries, fy: TruncSeries):
        if fx.nvars != 2 or fy.nvars != 2:
            raise ValueError("plane fields need two-variable coefficients")
        self.fx = fx
        self.fy = fy

    @classmethod
    def make(cls, fx_pairs, fy_pairs):
        return cls(poly2(fx_pairs), poly2(fy_pairs))

    @classmethod
    def zero(cls):
        return cls(TruncSeries.zero(2), TruncSeries.zero(2))

    def __eq__(self, other):
        return isinstance(other, PlaneVF) and self.fx == other.fx and self.fy == other.fy

    def is_zero(self):
        return self.fx.is_zero() and self.fy.is_zero()

    def __add__(self, other):
        return PlaneVF(self.fx + other.fx, self.fy + other.fy)

    def __neg__(self):
        return PlaneVF(-self.fx, -self.fy)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return PlaneVF(self.fx.scale(c), self.fy.scale(c))

    def bracket(self, other: "PlaneVF") -> "PlaneVF":
        """[V, W] = V(W) - W(V), componentwise and exact."""
        gx = (self.fx * other.fx.diff(0) + self.fy * other.fx.diff(1)
              - other.fx * self.fx.diff(0) - other.fy * self.fx.diff(1))
        gy = (self.fx * other.fy.diff(0) + self.fy * other.fy.diff(1)
              - other.fx * self.fy.diff(0) - other.fy * self.fy.diff(1))
        return PlaneVF(gx, gy)

    def apply(self, f: TruncSeries) -> TruncSeries:
        """Directional derivative of a function."""
        return self.fx * f.diff(0) + self.fy * f.diff(1)

    def value_at_origin(self):
        return (self.fx.constant_term(), self.fy.constant_term())

    def linear_part(self) -> Matrix:
        """Jacobian of the field at the origin."""
        x1 = self.fx.homogeneous_part(1)
        y1 = self.fy.homogeneous_part(1)
        return Matrix([[x1.coeffs.get((1, 0), ZERO), x1.coeffs.get((0, 1), ZERO)],
                       [y1.coeffs.get((1, 0), ZERO), y1.coeffs.get((0, 1), ZERO)]])

    def divergence(self) -> TruncSeries:
        return self.fx.diff(0) + self.fy.diff(1)

    def degree(self) -> int:
        return max(self.fx.degree(), self.fy.degree())

    def homogeneous_part(self, d: int) -> "PlaneVF":
        """Coefficients of polynomial degree d (filtration degree d - 1)."""
        return PlaneVF(self.fx.homogeneous_part(d), self.fy.homogeneous_part(d))

    def to_dict(self, tag="v"):
        out = {}
        for e, c in self.fx.coeffs.items():
            out[(tag, e, 0)] = c
        for e, c in self.fy.coeffs.items():
            out[(tag, e, 1)] = c
        return out

    def __str__(self):
        return f"({self.fx}) d/dx + ({self.fy}) d/dy"

    __repr__ = __str__


def area_pairing(v: PlaneVF, w: PlaneVF):
    """Symplectic pairing of the values at the origin, normalized so the two
    translation directions pair to -1 in the basis order (d/dx, d/dy):
    omega(d/dx, d/dy) = -1."""
    a, b = v.value_at_origin()
    c, d = w.value_at_origin()
    return b * c - a * d


def lie_derivative_of_area(v: PlaneVF, density: TruncSeries) -> TruncSeries:
    """Coefficient of L_v (rho dx^dy) = (d(rho fx)/dx + d(rho fy)/dy) dx^dy."""
    return (density * v.fx).diff(0) + (density * v.fy).diff(1)

"""The symplectic vector space V = R^(2n) and the symmetric algebra S+(V).

Degree-1 tensors are vectors of V, degree-2 tensors are identified with the
symplectic Lie algebra sp(V) through

    uv : w  |->  Omega(u, w) v + Omega(v, w) u,

and in general S^(k+2)(V) is the k-th prolongation of sp(V).  The bracket on
S+(V) is computed monomial by monomial,

    [u_1...u_i, w_1...w_j] = sum_{a,b} Omega(u_a, w_b) (U\\u_a)(W\\w_b),

with degree-0 results (constants) dropped.

The sign convention is the one fixed by Omega = -(p1*^q1* + ... + pn*^qn*),
i.e. Omega(p_k, q_k) = -1 and Omega(q_k, p_k) = +1.  It is pinned by the
printed basis actions q1p1: p1 -> p1, q1 -> -q1 and p1^2: q1 -> -2 p1,
which the test suite reproduces.

Monomials are stored as sorted tuples of basis indices; index k in
[0, n) is p_(k+1), index n + k is q_(k+1).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .scalars import GScalar, ONE, ZERO, fmt_scalar, is_rat, parse_scalar
from .linalg import Matrix


class SymplecticSpace:
    """R^(2n) with its symplectic basis p_1..p_n, q_1..q_n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.dim = 2 * n
        self.labels = tuple([f"p{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)])
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def omega_idx(self, i: int, j: int):
        """Omega on basis vectors, by index."""
        n = self.n
        if j == i + n:
            return -ONE
        if i == j + n:
            return ONE
        return ZERO

    def omega_matrix(self) -> Matrix:
        return Matrix([[self.omega_idx(i, j) for j in range(self.dim)]
                       for i in range(self.dim)])

    def basis_vector(self, i: int) -> "SymTensor":
        return SymTensor(self, {(i,): ONE})

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and self.n == other.n

    def __repr__(self):
        return f"SymplecticSpace(n={self.n})"


def dim_sym(n: int, k: int) -> int:
    """dim S^k(R^(2n)) = C(2n+k-1, k)."""
    return comb(2 * n + k - 1, k)


@lru_cache(maxsize=None)
def monomial_basis(n: int, k: int):
    """Sorted degree-k monomials (index tuples) over 2n letters."""
    return tuple(combinations_with_replacement(range(2 * n), k))


class SymTensor:
    """Homogeneous element of S^k(V) as a sparse monomial -> coefficient map."""

    __slots__ = ("space", "coeffs", "degree")

    def __init__(self, space: SymplecticSpace, coeffs: dict):
        self.space = space
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        if self.coeffs:
            degs = {len(m) for m in self.coeffs}
            if len(degs) != 1:
                raise ValueError("inhomogeneous tensor")
            self.degree = degs.pop()
        else:
            self.degree = 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, SymTensor) and self.space == other.space
                and self.degree == other.degree
                and self.coeffs.keys() == other.coeffs.keys()
                and all(other.coeffs[m] == c for m, c in self.coeffs.items()))

    def __add__(self, other):
        if other.degree and self.degree and other.degree != self.degree:
            raise ValueError("degree mismatch in sum")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SymTensor(self.space, out)

    def __neg__(self):
        return SymTensor(self.space, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return SymTensor(self.space, {})
        return SymTensor(self.space, {m: c * x for m, x in self.coeffs.items()})

    def __mul__(self, other):
        """Symmetric product."""
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(sorted(m1 + m2))
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return SymTensor(self.space, out)

    def complexify(self) -> "SymTensor":
        return SymTensor(self.space, {m: GScalar.of(c) if is_rat(c) else c
                                      for m, c in self.coeffs.items()})

    def coords(self, degree=None):
        """Coordinate vector in the monomial basis of its degree."""
        k = self.degree if degree is None else degree
        if self.coeffs and self.degree != k:
            raise ValueError("degree mismatch")
        basis = monomial_basis(self.space.n, k)
        return tuple(self.coeffs.get(m, ZERO) for m in basis)

    def __str__(self):
        return format_tensor(self)

    def __repr__(self):
        return f"SymTensor({format_tensor(self)})"


def tensor_from_coords(space: SymplecticSpace, k: int, vec) -> SymTensor:
    basis = monomial_basis(space.n, k)
    return SymTensor(space, {m: c for m, c in zip(basis, vec) if c})


def monomials(space: SymplecticSpace, *labels) -> SymTensor:
    """Monomial with coefficient 1, e.g. monomials(V, "p1", "p1", "q2")."""
    idx = tuple(sorted(space.index[l] for l in labels))
    return SymTensor(space, {idx: ONE})


def omega(u: SymTensor, v: SymTensor):
    """Symplectic pairing of two degree-1 tensors."""
    if u.is_zero() or v.is_zero():
        return ZERO
    if u.degree != 1 or v.degree != 1:
        raise ValueError("omega needs two degree-1 tensors")
    s = ZERO
    for (i,), a in u.coeffs.items():
        for (j,), b in v.coeffs.items():
            w = u.space.omega_idx(i, j)
            if w:
                s = s + a * b * w
    return s


def quad_action(t: SymTensor, w: SymTensor) -> SymTensor:
    """Action of uv in S^2(V) on a vector: uv(w) = Omega(u,w)v + Omega(v,w)u."""
    if t.is_zero() or w.is_zero():
        return SymTensor(t.space, {})
    if t.degree != 2 or w.degree != 1:
        raise ValueError("quad_action needs degrees (2, 1)")
    out = SymTensor(t.space, {})
    for (i, j), c in t.coeffs.items():
        for (k,), b in w.coeffs.items():
            wik = t.space.omega_idx(i, k)
            if wik:
                out = out + SymTensor(t.space, {(j,): c * b * wik})
            wjk = t.space.omega_idx(j, k)
            if wjk:
                out = out + SymTensor(t.space, {(i,): c * b * wjk})
    return out


def quad_to_matrix(t: SymTensor) -> Matrix:
    """The endomorphism of V given by a degree-2 tensor, as a matrix."""
    sp = t.space
    return Matrix.from_columns([quad_action(t, sp.basis_vector(j)).coords(1)
                                for j in range(sp.dim)])


@lru_cache(maxsize=None)
def _quad_matrix_map(n: int):
    """Matrix (4n^2 x dim S^2) of T -> quad_to_matrix(T) in flattened form."""
    sp = SymplecticSpace(n)
    basis = monomial_basis(n, 2)
    cols = []
    for m in basis:
        t = SymTensor(sp, {m: ONE})
        M = quad_to_matrix(t)
        cols.append([M[i, j] for i in range(sp.dim) for j in range(sp.dim)])
    return Matrix.from_columns(cols)


def in_sp(space: SymplecticSpace, M: Matrix) -> bool:
    """Membership test for sp(V): Omega M + M^T Omega = 0."""
    Om = space.omega_matrix()
    return ((Om @ M) + (M.transpose() @ Om)).is_zero()


def matrix_to_quad(space: SymplecticSpace, M: Matrix) -> SymTensor:
    """Inverse of quad_to_matrix; requires M in sp(V)."""
    if not in_sp(space, M):
        raise ValueError("matrix is not in sp(V): Omega M + M^T Omega != 0")
    A = _quad_matrix_map(space.n)
    flat = [M[i, j] for i in range(space.dim) for j in range(space.dim)]
    sol = A.solve(flat)
    if sol is None:
        raise ValueError("matrix not in the image of S^2(V)")
    return tensor_from_coords(space, 2, sol)


def poisson_bracket(a: SymTensor, b: SymTensor) -> SymTensor:
    """Bracket on S+(V), modulo constants.

    Degree (i, j) inputs produce a degree i+j-2 output; an i+j-2 = 0 result
    is discarded (it is a constant of the formal symplectic vector field).
    """
    sp = a.space
    out = {}
    drop = a.degree + b.degree == 2
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            seen1 = set()
            for x, u in enumerate(m1):
                if u in seen1:
                    continue
                seen1.add(u)
                mult_u = m1.count(u)
                rest1 = m1[:x] + m1[x + 1:]
                seen2 = set()
                for y, w in enumerate(m2):
                    if w in seen2:
                        continue
                    seen2.add(w)
                    om = sp.omega_idx(u, w)
                    if not om:
                        continue
                    mult_w = m2.count(w)
                    if drop:
                        continue
                    rest2 = m2[:y] + m2[y + 1:]
                    m = tuple(sorted(rest1 + rest2))
                    c = c1 * c2 * om * mult_u * mult_w
                    s = out.get(m, ZERO) + c
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
    return SymTensor(sp, out)


def bracket_constant_term(a: SymTensor, b: SymTensor):
    """The degree-0 part the bracket drops: Omega on the degree-1 components."""
    if a.degree == 1 and b.degree == 1:
        return omega(a, b)
    return ZERO


# ---------------------------------------------------------------------------
# text form: sum of terms "c * m" with m like "p1^2*q2"
# ---------------------------------------------------------------------------

def _format_monomial(space: SymplecticSpace, m) -> str:
    parts = []
    i = 0
    while i < len(m):
        j = i
        while j < len(m) and m[j] == m[i]:
            j += 1
        lab = space.labels[m[i]]
        parts.append(lab if j - i == 1 else f"{lab}^{j-i}")
        i = j
    return "*".join(parts)


def format_tensor(t: SymTensor) -> str:
    if not t.coeffs:
        return "0"
    terms = []
    for m in sorted(t.coeffs):
        c = t.coeffs[m]
        ctxt = fmt_scalar(c) if is_rat(c) else f"({fmt_scalar(c)})"
        terms.append(f"{ctxt} * {_format_monomial(t.space, m)}")
    return " + ".join(terms)


def _parse_monomial(space: SymplecticSpace, text: str):
    idx = []
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError("empty monomial factor")
        if "^" in factor:
            lab, e = factor.split("^")
            lab, e = lab.strip(), int(e)
        else:
            lab, e = factor, 1
        if lab not in space.index:
            raise ValueError(f"unknown basis label {lab!r}")
        if e < 1:
            raise ValueError("exponents must be positive")
        idx.extend([space.index[lab]] * e)
    return tuple(sorted(idx))


def _split_terms(text: str):
    """Split on top-level +/- separators (never inside parentheses and never
    directly after an operator or another sign)."""
    terms = []
    depth = 0
    cur = ""
    prev = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip() and prev not in "*/^+-(":
            terms.append(cur)
            cur = "-" if ch == "-" else ""
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if cur.strip():
        terms.append(cur)
    return terms


def parse_tensor(space: SymplecticSpace, text: str) -> SymTensor:
    """Parse the printer's grammar back into a tensor.

    Terms are "c * mono" with rational c, "(g) * mono" with Gaussian g, or a
    bare monomial (coefficient 1); terms are joined by top-level + or -.
    """
    text = text.strip()
    if text in ("0", ""):
        return SymTensor(space, {})
    out = SymTensor(space, {})
    for term in _split_terms(text):
        term = term.strip()
        neg = term.startswith("-")
        if term[0] in "+-":
            term = term[1:].strip()
        if term.startswith("("):
            close = term.index(")")
            coeff = parse_scalar(term[1:close])
            rest = term[close + 1:].strip()
            if not rest.startswith("*"):
                raise ValueError(f"expected '*' after coefficient in {term!r}")
            mono = _parse_monomial(space, rest[1:])
        elif term[0].isdigit():
            head, star, tail = term.partition("*")
            if not star:
                raise ValueError(f"constant term {term!r} not allowed in S+(V)")
            coeff = parse_scalar(head)
            mono = _parse_monomial(space, tail)
        else:
            coeff = ONE
            mono = _parse_monomial(space, term)
        if neg:
            coeff = -coeff
        out = out + SymTensor(space, {mono: coeff})
    return out

"""Polynomials on the symplectic space R^(2n) as plain dictionaries.

Standard library only, written apart from ``symprol`` so that the benchmark
can make its inputs and check the program's answers without the program's
own code.  A polynomial is ``{monomial: coefficient}`` where a monomial is a
sorted tuple of variable indices: index ``k < n`` is p_(k+1) and ``n + k`` is
q_(k+1), the convention of the program's text grammar.  Coefficients are
``Fraction``; Gaussian rationals are ``(re, im)`` pairs of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def labels(n: int):
    return [f"p{i + 1}" for i in range(n)] + [f"q{i + 1}" for i in range(n)]


# ---------------------------------------------------------------------------
# text in the program's printer grammar
# ---------------------------------------------------------------------------

def format_monomial(m, n: int) -> str:
    names = labels(n)
    parts = []
    for i in sorted(set(m)):
        e = m.count(i)
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts)


def format_poly(poly, n: int) -> str:
    """Rational polynomial as printer text, e.g. "1/2 * p1^2 + -3 * p1*q2"."""
    return " + ".join(f"{poly[m]} * {format_monomial(m, n)}" for m in sorted(poly)) or "0"


def parse_monomial(text: str, n: int):
    index = {lab: i for i, lab in enumerate(labels(n))}
    idx = []
    for factor in text.split("*"):
        lab, _, e = factor.strip().partition("^")
        idx += [index[lab]] * (int(e) if e else 1)
    return tuple(sorted(idx))


def parse_gaussian(text: str):
    """"a/b", "a/b+c/d i", "-i", "2 i", ... as an (re, im) pair."""
    t = text.strip()
    if not t.endswith("i"):
        return Fraction(t), Fraction(0)
    body = t[:-1].strip()
    k = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:k], body[k:]) if k > 0 else ("", body)
    im_txt = im_txt.replace(" ", "")
    im = {"": 1, "+": 1, "-": -1}.get(im_txt)
    return Fraction(re_txt or 0), Fraction(im if im is not None else im_txt)


def parse_poly(text: str, n: int):
    """Printer text (Gaussian coefficients allowed) as {monomial: (re, im)}.

    Terms are joined by " + "; the scalar printer never puts spaces around
    the sign inside "a/b+c/d i", so the split is unambiguous."""
    out = {}
    for term in text.split(" + "):
        coeff, _, mono = term.rpartition(" * ")
        coeff = coeff.strip()
        if coeff.startswith("("):
            coeff = coeff[1:-1]
        out[parse_monomial(mono, n)] = parse_gaussian(coeff)
    return out


# ---------------------------------------------------------------------------
# the symplectic group over the integers
# ---------------------------------------------------------------------------

def omega(n: int):
    """Gram matrix of Omega with Omega(p_k, q_k) = -1."""
    om = [[0] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        om[k][k + n], om[k + n][k] = -1, 1
    return om


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transvection(v, c: int, n: int):
    """x -> x + c Omega(v, x) v, an element of Sp(2n, Z) for integer v, c."""
    om = omega(n)
    d = 2 * n
    ov = [sum(v[i] * om[i][j] for i in range(d)) for j in range(d)]
    return [[int(i == j) + c * ov[j] * v[i] for j in range(d)] for i in range(d)]


def random_symplectic(rng, n: int, lo: int = 60, hi: int = 90):
    """Product of random transvections with v in {-1, 0, 1}^(2n), c = +-1,
    stopped once the largest entry reaches lo; redrawn unless it stays below
    hi and has no zero entry.  Quadratic forms conjugated by it get dense
    coefficients of about lo^2."""
    d = 2 * n
    while True:
        g = [[int(i == j) for j in range(d)] for i in range(d)]
        top = 1
        while top < lo:
            v = [rng.randint(-1, 1) for _ in range(d)]
            if any(v):
                g = matmul(transvection(v, rng.choice((1, -1)), n), g)
                top = max(abs(x) for row in g for x in row)
        if top <= hi and all(x for row in g for x in row):
            return g


def substitute(poly, g):
    """Image of a polynomial under e_i -> sum_j g[j][i] e_j, the action of
    g on S(V); for g symplectic it preserves the Poisson bracket."""
    d = len(g)
    out = {}
    for mono, c in poly.items():
        terms = {(): Fraction(c)}
        for i in mono:
            nxt = {}
            for m, a in terms.items():
                for j in range(d):
                    if g[j][i]:
                        key = tuple(sorted(m + (j,)))
                        nxt[key] = nxt.get(key, 0) + a * g[j][i]
            terms = nxt
        for m, a in terms.items():
            out[m] = out.get(m, 0) + a
    return {m: a for m, a in out.items() if a}


# ---------------------------------------------------------------------------
# calculus and rank
# ---------------------------------------------------------------------------

def derivative(poly, a: int):
    """Partial derivative by variable a.  The bracket with a basis vector of
    V is, up to sign, the derivative by the Omega-dual variable, so
    h^(1) = {T cubic : every first partial of T lies in h}."""
    out = {}
    for m, c in poly.items():
        e = m.count(a)
        if e:
            k = m.index(a)
            rest = m[:k] + m[k + 1:]
            out[rest] = out.get(rest, 0) + e * c
    return {m: c for m, c in out.items() if c}


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def is_rank_one(poly, n: int) -> bool:
    """A quadratic form with Gaussian coefficients has rank one exactly when
    its symmetric matrix S is nonzero and every 2x2 minor of S vanishes."""
    d = 2 * n
    zero = (Fraction(0), Fraction(0))
    s = [[zero] * d for _ in range(d)]
    for (i, j), c in poly.items():
        if i == j:
            s[i][i] = c
        else:
            s[i][j] = s[j][i] = (c[0] / 2, c[1] / 2)
    if all(x == zero for row in s for x in row):
        return False
    for i in range(d):
        for k in range(i + 1, d):
            for j in range(d):
                for l in range(j + 1, d):
                    a, b = _gmul(s[i][j], s[k][l]), _gmul(s[i][l], s[k][j])
                    if a != b:
                        return False
    return True

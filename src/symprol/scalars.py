"""Exact scalar arithmetic: rationals and Gaussian rationals.

All coefficients in this package are exact.  Plain rationals are
``fractions.Fraction`` (``rat`` is an alias of it).

Gaussian rationals (elements of Q(i)) are pairs of rationals with full field
arithmetic; complexification of rational data is the base change
x -> GScalar(x, 0) of the same structures, not a separate code path.

Text forms: rationals print as "a/b" or "a"; Gaussian rationals as
"a/b+c/d i" (with the usual simplifications "i", "-i", "2 i", ...).
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fraction"  # the rational type, as benchmark records name it

rat = Fraction

ZERO = rat(0)
ONE = rat(1)


def is_rat(x) -> bool:
    return isinstance(x, (int, Fraction))


def as_rat(x):
    """A Python int as a rational; any other scalar unchanged."""
    return rat(x) if isinstance(x, int) else x


def fmt_rat(x) -> str:
    """Render a rational as "a/b" or "a"."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def parse_rat(text: str):
    """Parse "a/b" or "a" into a rational."""
    text = text.strip()
    if "/" in text:
        a, b = text.split("/")
        den = int(b.strip())
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return rat(int(a.strip()), den)
    return rat(int(text))


def rat_sqrt(x):
    """Exact square root of a nonnegative rational, or None if irrational."""
    n, d = x.numerator, x.denominator
    if n < 0:
        return None
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rat(rn, rd)


class GScalar:
    """Gaussian rational a + b i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def of(cls, x) -> "GScalar":
        if isinstance(x, GScalar):
            return x
        return cls(x, 0)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = GScalar.of(other) if is_rat(other) else other
        if not isinstance(other, GScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GScalar.of(other)
        return GScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GScalar(-self.re, -self.im)

    def __sub__(self, other):
        other = GScalar.of(other)
        return GScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GScalar.of(other) - self

    def __mul__(self, other):
        other = GScalar.of(other)
        return GScalar(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conjugate(self) -> "GScalar":
        return GScalar(self.re, -self.im)

    def norm(self):
        """Field norm re^2 + im^2 (a rational)."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        other = GScalar.of(other)
        n = other.norm()
        if not n:
            raise ZeroDivisionError("division by zero GScalar")
        c = other.conjugate()
        p = self * c
        return GScalar(p.re / n, p.im / n)

    def __rtruediv__(self, other):
        return GScalar.of(other) / self

    def sqrt(self):
        """Exact square root inside Q(i), or None if there is none."""
        if not self.im:
            r = rat_sqrt(self.re)
            if r is not None:
                return GScalar(r, 0)
            r = rat_sqrt(-self.re)
            return None if r is None else GScalar(0, r)
        # (c + d i)^2 = re + im i  =>  c^2 - d^2 = re, 2cd = im,
        # c^2 + d^2 = sqrt(norm) which must be rational.
        m = rat_sqrt(self.norm())
        if m is None:
            return None
        c2 = (self.re + m) / 2
        c = rat_sqrt(c2)
        if c is None or not c:
            return None
        d = self.im / (2 * c)
        cand = GScalar(c, d)
        return cand if cand * cand == self else None

    def __repr__(self):
        return f"GScalar({fmt_rat(self.re)}, {fmt_rat(self.im)})"

    def __str__(self):
        return fmt_gauss(self)


I = GScalar(0, 1)


def fmt_gauss(x) -> str:
    """Render a GScalar (or plain rational) in the "a/b+c/d i" text form."""
    if is_rat(x):
        return fmt_rat(x)
    if not x.im:
        return fmt_rat(x.re)
    if not x.re:
        if x.im == 1:
            return "i"
        if x.im == -1:
            return "-i"
        return f"{fmt_rat(x.im)} i"
    sign = "+" if x.im > 0 else "-"
    mag = x.im if x.im > 0 else -x.im
    imtxt = "i" if mag == 1 else f"{fmt_rat(mag)} i"
    return f"{fmt_rat(x.re)}{sign}{imtxt}"


def parse_gauss(text: str) -> GScalar:
    """Parse "a/b+c/d i", "a/b", "i", "-2 i", ... into a GScalar."""
    t = text.strip()
    if not t:
        raise ValueError("empty scalar literal")
    if not t.endswith("i"):
        return GScalar(parse_rat(t), 0)
    body = t[:-1].strip()
    # split off the real part at the last top-level +/- that is not a leading sign
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/ ":
            re_txt, im_txt = body[:k], body[k:]
            break
    else:
        re_txt, im_txt = "", body
    im_txt = im_txt.strip()
    if im_txt in ("", "+"):
        im = ONE
    elif im_txt == "-":
        im = -ONE
    else:
        neg = im_txt.startswith("-")
        if im_txt[0] in "+-":
            im_txt = im_txt[1:]
        im = parse_rat(im_txt)
        if neg:
            im = -im
    re = parse_rat(re_txt) if re_txt else ZERO
    return GScalar(re, im)


def fmt_scalar(x) -> str:
    return fmt_rat(x) if is_rat(x) else fmt_gauss(x)


def parse_scalar(text: str):
    """Parse a scalar literal; returns a plain rational unless an "i" appears."""
    t = text.strip()
    if t.endswith("i"):
        return parse_gauss(t)
    return parse_rat(t)

"""The localized coefficient ring: Laurent polynomials over a
multiplicative set of leading-coefficient-one elements.

Scalars are fractions num/den with den in the multiplicative set.
Full gcd reduction is available for rank <= 1 weight systems (rank 0
is plain integers, rank 1 reduces to univariate integer polynomials);
higher rank scalars only ever reduce by monomial factors, which is
enough for the operations the engine performs there.
"""

import math

from .errors import UnsupportedOperationError, ValidationError
from .laurent import LaurentPoly, exact_divide

__all__ = ["LocalizedScalar", "localized_gcd", "associates", "int_poly_gcd"]

# Dense univariate gcds allocate one coefficient slot per exponent in
# the spread, so huge sparse exponents (rank one perturbations scale
# like 10**precision) must be refused instead of densified.
GCD_SPREAD_CAP = 512


def _spread_too_wide(p):
    if not p or p.r != 1:
        return False
    lo, hi = p.exp_bounds()
    return hi[0] - lo[0] > GCD_SPREAD_CAP


def _dense_from_laurent(p):
    """(coeff list c_0..c_d, shift) with c_0 != 0, for r = 1 polys."""
    if p.r != 1 or not p:
        raise ValidationError("dense form needs a nonzero polynomial in one "
                              "variable, not %r" % (p,))
    lo = min(e[0] for e in p.terms)
    hi = max(e[0] for e in p.terms)
    coeffs = [0] * (hi - lo + 1)
    for (e,), c in p.terms.items():
        coeffs[e - lo] = c
    return coeffs, lo


def _laurent_from_dense(coeffs, shift=0):
    return LaurentPoly(1, {(i + shift,): c for i, c in enumerate(coeffs) if c})


def _poly_content(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    return g


def _poly_primitive(coeffs):
    g = _poly_content(coeffs)
    if g == 0:
        return []
    prim = [c // g for c in coeffs]
    if prim[-1] < 0:
        prim = [-c for c in prim]
    return prim


def _poly_deg(coeffs):
    return len(coeffs) - 1


def _poly_mul_scalar(coeffs, s):
    return [c * s for c in coeffs]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_pseudo_rem(a, b):
    """Pseudo-remainder of a by b over Z (lc(b)^(deg gap + 1) * a mod b)."""
    a = list(a)
    lb = b[-1]
    while a and _poly_deg(a) >= _poly_deg(b):
        gap = _poly_deg(a) - _poly_deg(b)
        # scale so the leading terms cancel over Z
        a = _poly_mul_scalar(a, lb)
        shifted = [0] * gap + list(b)
        a = _poly_sub(a, _poly_mul_scalar(shifted, a[-1] // lb))
    return a


def int_poly_gcd(a, b):
    """Gcd in Z[t] of dense coefficient lists, content included.

    Primitive-remainder sequence: slow in theory, fine at the sizes
    the engine sees, and easy to trust.

    >>> int_poly_gcd([2, 4], [6])        # gcd(2 + 4t, 6) = 2
    [2]
    >>> int_poly_gcd([-1, 0, 1], [1, 1]) # gcd(t^2 - 1, t + 1)
    [1, 1]
    >>> int_poly_gcd([1, 2], [2])
    [1]
    """
    a = list(a)
    b = list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a and not b:
        raise ValidationError("gcd of two zero polynomials")
    if not a:
        return _positive_lead(b)
    if not b:
        return _positive_lead(a)
    content = math.gcd(_poly_content(a), _poly_content(b))
    pa, pb = _poly_primitive(a), _poly_primitive(b)
    if _poly_deg(pa) < _poly_deg(pb):
        pa, pb = pb, pa
    while pb:
        rem = _poly_pseudo_rem(pa, pb)
        pa, pb = pb, _poly_primitive(rem)
    return _poly_mul_scalar(pa, content)


def _positive_lead(coeffs):
    return [-c for c in coeffs] if coeffs[-1] < 0 else list(coeffs)


def localized_gcd(x, y, ws):
    """Gcd of two Laurent polynomials, valid up to units of the
    localized ring.

    Supported for weight rank <= 1 (rank 0 is integer gcd).  The
    result is the plain polynomial-ring gcd based at exponent zero; it
    is not normalized to a canonical associate, so a result that is a
    unit (e.g. T - 1 for positive weight) stands for the class of 1.
    """
    if ws.r >= 2:
        raise UnsupportedOperationError(
            "gcd needs a principal ideal setting; weight rank %d has none"
            % (ws.r,))
    if not x and not y:
        raise ValidationError("gcd of two zero polynomials")
    if not x or not y:
        p = y if not x else x
        p = p.shift(tuple(-e for e in p.exp_bounds()[0]))
        if p.terms[max(p.terms)] < 0:
            p = -p
        return p
    if ws.r == 0:
        return LaurentPoly.const(0, math.gcd(x.terms[()], y.terms[()]))
    if _spread_too_wide(x) or _spread_too_wide(y):
        raise UnsupportedOperationError(
            "exponent spread beyond %d; the dense gcd would not fit"
            % (GCD_SPREAD_CAP,))
    da, _ = _dense_from_laurent(x)
    db, _ = _dense_from_laurent(y)
    return _laurent_from_dense(int_poly_gcd(da, db))


def associates(x, y, ws):
    """Whether x and y differ by a unit of the localized ring.

    Reduces x/y by their full polynomial gcd (content included) and
    asks that both reduced parts be units.

    Rank 0: plain sign.  Rank 1: exact.  Rank >= 2 is refused rather
    than answered approximately.
    """
    if ws.r >= 2:
        raise UnsupportedOperationError(
            "associate testing needs gcd reduction; weight rank %d" % (ws.r,))
    if not x or not y:
        return not x and not y
    xr, yr = _cancel(localized_gcd(x, y, ws), x, y)
    return ws.is_unit_poly(xr) and ws.is_unit_poly(yr)


def _cancel(g, *polys):
    """The exact quotients of polys by their common divisor g."""
    out = [exact_divide(p, g) for p in polys]
    if any(q is None for q in out):
        raise ValidationError("gcd does not divide its arguments")
    return out


class LocalizedScalar:
    """A fraction num/den of Laurent polynomials with den in the
    multiplicative set (leading coefficient one).

    A monomial denominator is a unit of the Laurent ring itself, so it
    is always absorbed into the numerator: every scalar whose
    denominator is a monomial is stored over its ring's one, ws.one.
    """

    __slots__ = ("ws", "num", "den")

    def __init__(self, ws, num, den=None):
        if den is None:
            den = ws.one
        if num.r != ws.r:
            # ws.leading checks the denominator
            raise ValidationError("numerator in %d variables, weights for %d"
                                  % (num.r, ws.r))
        if not den:
            raise ValidationError("scalar with zero denominator")
        lc = ws.leading(den)[1]
        if lc == -1:
            num, den = -num, -den
        elif lc != 1:
            raise ValidationError(
                "denominator %r is outside the multiplicative set" % (den,))
        self.ws = ws
        if num:
            num, den = self._reduce(num, den)
        else:
            den = ws.one
        self.num = num
        self.den = den

    @classmethod
    def _over_one(cls, ws, num):
        # ring results of scalars over one: num is a clean polynomial
        # in ws.r variables, and a denominator of one needs no reduction
        s = cls.__new__(cls)
        s.ws = ws
        s.num = num
        s.den = ws.one
        return s

    def _reduce(self, num, den):
        ws = self.ws
        one = ws.one
        if den == one:
            return num, one
        full = (ws.r == 1 and den.n_terms() > 1
                and not _spread_too_wide(num) and not _spread_too_wide(den))
        if full:
            g = localized_gcd(num, den, ws)
            if g != one:
                num, den = _cancel(g, num, den)
        else:
            # common monomial only: exact for monomial denominators,
            # and the safe fallback everywhere else
            nlo = num.exp_bounds()[0]
            dlo = den.exp_bounds()[0]
            common = tuple(-min(a, b) for a, b in zip(nlo, dlo))
            if any(common):
                num, den = num.shift(common), den.shift(common)
        if ws.leading(den)[1] == -1:
            num, den = -num, -den
        if ws.leading(den)[1] != 1:
            raise ValidationError("reduction left the mult set")
        if den.n_terms() == 1:
            (exp,) = den.terms
            if any(exp):
                num = num.shift(tuple(-e for e in exp))
            den = one
        return num, den

    def _ring(self, other):
        if self.ws is not other.ws:
            raise ValidationError("scalars of two different weight systems")
        return self.ws

    @classmethod
    def from_int(cls, ws, c):
        return cls(ws, LaurentPoly.const(ws.r, c))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        ws = self._ring(other)
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den is ws.one and other.den is ws.one:
            return LocalizedScalar._over_one(ws, self.num + other.num)
        if self.den == other.den:
            return LocalizedScalar(ws, self.num + other.num, self.den)
        num = self.num * other.den + other.num * self.den
        return LocalizedScalar(ws, num, self.den * other.den)

    def __neg__(self):
        if self.den is self.ws.one:
            return LocalizedScalar._over_one(self.ws, -self.num)
        return LocalizedScalar(self.ws, -self.num, self.den)

    def __sub__(self, other):
        ws = self._ring(other)
        if not other.num:
            return self
        if self.den is ws.one and other.den is ws.one:
            return LocalizedScalar._over_one(ws, self.num - other.num)
        return self + (-other)

    def __mul__(self, other):
        ws = self._ring(other)
        if not self.num or not other.num:
            return LocalizedScalar(ws, LaurentPoly(ws.r, {}))
        if self.den is ws.one and other.den is ws.one:
            return LocalizedScalar._over_one(ws, self.num * other.num)
        return LocalizedScalar(ws, self.num * other.num,
                               self.den * other.den)

    def __truediv__(self, other):
        """Division by a unit scalar; anything else is refused.

        Unit division never needs a gcd: the divisor's numerator has
        unit leading coefficient, so it moves into the denominator
        without leaving the multiplicative set.  A divisor +-T^e over
        one is a unit of the Laurent ring, and the quotient is the
        numerator shifted by -e, with the sign.
        """
        ws = self._ring(other)
        if not other.is_unit():
            raise ValidationError("division by the non-unit %r" % (other,))
        if not self.num:
            return LocalizedScalar(ws, LaurentPoly(ws.r, {}))
        if (self.den is ws.one and other.den is ws.one
                and other.num.n_terms() == 1):
            ((exp, c),) = other.num.terms.items()
            q = self.num.shift(tuple(-e for e in exp))
            return LocalizedScalar._over_one(ws, -q if c < 0 else q)
        return LocalizedScalar(ws, self.num * other.den,
                               self.den * other.num)

    def exact_divide_scalar(self, other):
        """self/other if it lies in the localized ring, else None."""
        ws = self._ring(other)
        if not other:
            raise ValidationError("division by zero")
        if not self:
            return LocalizedScalar(ws, LaurentPoly(ws.r, {}))
        num = self.num * other.den
        den = self.den * other.num
        if ws.r <= 1:
            num, den = _cancel(localized_gcd(num, den, ws), num, den)
        else:
            nlo = num.exp_bounds()[0]
            dlo = den.exp_bounds()[0]
            common = tuple(-min(a, b) for a, b in zip(nlo, dlo))
            num, den = num.shift(common), den.shift(common)
        lc = ws.leading(den)[1]
        if abs(lc) != 1:
            if ws.r >= 2:
                raise UnsupportedOperationError(
                    "exact division undecidable without gcd at weight rank %d"
                    % (ws.r,))
            return None
        if lc == -1:
            num, den = -num, -den
        return LocalizedScalar(ws, num, den)

    def is_unit(self):
        """Units are exactly the scalars with unit numerator; the
        denominator is in the multiplicative set by construction, and
        any polynomial common factor has leading coefficient +-1, so
        reduction never changes the verdict."""
        return bool(self.num) and self.ws.is_unit_poly(self.num)

    def __eq__(self, other):
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        self._ring(other)
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        if not self.num:
            return "0"
        if self.den == self.ws.one:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)

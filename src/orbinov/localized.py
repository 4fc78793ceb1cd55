"""Gcd theory of the localized coefficient ring: Laurent polynomials
over the multiplicative set of leading-coefficient-one elements.

A polynomial is a unit there exactly when its leading coefficient is
+-1 (WeightSystem.is_unit_poly), so matrices over the ring need no
fractions: lmatrix eliminates on the polynomials themselves.  What
invariant factors need beyond that lives here: gcds and the associate
test, for weight rank <= 1 (rank 0 is plain integers, rank 1 reduces
to univariate integer polynomials).  Higher rank has no gcd theory
here and is refused.
"""

import math

from .errors import UnsupportedOperationError, ValidationError
from .laurent import LaurentPoly, exact_divide

__all__ = ["localized_gcd", "associates", "int_poly_gcd"]

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

"""Gcd theory of the localized coefficient ring: Laurent polynomials
over the multiplicative set of leading-coefficient-one elements.

A polynomial is a unit there exactly when its leading coefficient is
+-1 (WeightSystem.is_unit_poly), so matrices over the ring need no
fractions: lmatrix eliminates on the polynomials themselves.  What
invariant factors need beyond that lives here: gcds and the associate
test, for weight rank <= 1.  Rank 0 is plain integers; rank 1 runs a
primitive remainder sequence on the Laurent polynomials themselves,
based at exponent zero because a monomial is a unit.  Higher rank has
no gcd theory here and is refused.
"""

import math

from .errors import UnsupportedOperationError, ValidationError
from .laurent import LaurentPoly, exact_divide

__all__ = ["localized_gcd", "associates"]

# Pseudo-remainders fill in the exponent spread and grow their
# coefficients with it, so huge sparse exponents (rank one
# perturbations scale like 10**precision) must be refused.
GCD_SPREAD_CAP = 512


def _primitive(p):
    """p over its content, based at exponent zero, leading coefficient
    positive; zero stays zero.  One variable."""
    if not p:
        return p
    g = p.content()
    if p.terms[max(p.terms)] < 0:
        g = -g
    (lo,) = min(p.terms)
    return LaurentPoly._of(1, {(e - lo,): c // g
                               for (e,), c in p.terms.items()})


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b in Z[T]: each step scales a by the
    leading coefficient of b so the leading terms cancel over Z."""
    (db,) = top = max(b.terms)
    lb = b.terms[top]
    while a:
        (da,) = top = max(a.terms)
        if da < db:
            break
        a = a * lb - b.shift((da - db,)) * a.terms[top]
    return a


def localized_gcd(x, y, ws):
    """Gcd of two Laurent polynomials, valid up to units of the
    localized ring.

    Supported for weight rank <= 1 (rank 0 is integer gcd).  The
    result is the plain polynomial-ring gcd based at exponent zero,
    content included, with a positive leading coefficient; it is not
    normalized to a canonical associate, so a result that is a unit
    (e.g. T - 1 for positive weight) stands for the class of 1.

    >>> from orbinov.laurent import WeightSystem
    >>> ws = WeightSystem([(1,)])
    >>> def poly(terms):
    ...     return LaurentPoly(1, {(e,): c for e, c in terms.items()})
    >>> localized_gcd(poly({-1: 2, 0: 4}), poly({0: 6}), ws)  # 2T^-1 + 4, 6
    2
    >>> localized_gcd(poly({-1: 1, 1: -1}), poly({0: 1, 1: 1}), ws)
    1 + T
    >>> localized_gcd(poly({-2: 1, -1: 2}), poly({0: 2}), ws)
    1
    """
    if ws.r >= 2:
        raise UnsupportedOperationError(
            "gcd needs a principal ideal setting; weight rank %d has none"
            % (ws.r,))
    for p in (x, y):
        if p.r != ws.r:
            raise ValidationError(
                "gcd needs %s, not %r"
                % ("polynomials in one variable" if ws.r else "constants", p))
    if not x and not y:
        raise ValidationError("gcd of two zero polynomials")
    if ws.r == 0:
        return LaurentPoly.const(0, math.gcd(x.terms.get((), 0),
                                             y.terms.get((), 0)))
    if not x or not y:
        p = x or y
        return _primitive(p) * p.content()
    spread = max(hi[0] - lo[0] for lo, hi in (x.exp_bounds(), y.exp_bounds()))
    if spread > GCD_SPREAD_CAP:
        raise UnsupportedOperationError(
            "exponent spread %d is beyond the gcd cap of %d"
            % (spread, GCD_SPREAD_CAP))
    content = math.gcd(x.content(), y.content())
    a, b = _primitive(x), _primitive(y)
    if max(a.terms) < max(b.terms):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a * content


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

"""Integer Laurent polynomials in r variables, weighted by a class.

Exponents are length-r integer tuples; a weight system (the lattice
basis of the class's period group) assigns each monomial a weight
vector in Q^k, injectively, and monomials are ordered by that vector
lexicographically.  The multiplicative set the engine localizes at is
"leading coefficient exactly one" with respect to this order.
"""

import math
from fractions import Fraction

from .errors import ValidationError
from .snf import row_lattice_basis

__all__ = ["LaurentPoly", "WeightSystem", "exact_divide", "divides"]


class LaurentPoly:
    """Sparse Laurent polynomial over Z in r variables."""

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=()):
        self.r = r
        clean = {}
        for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exp = tuple(int(e) for e in exp)
            if len(exp) != r:
                raise ValidationError("exponent %r needs %d coordinates"
                                      % (exp, r))
            coeff = int(coeff)
            if coeff:
                clean[exp] = clean.get(exp, 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _of(cls, r, terms):
        # ring results: int coefficients on length-r int exponents, so
        # only the zero coefficients need dropping
        poly = cls.__new__(cls)
        poly.r = r
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def const(cls, r, c):
        return cls._of(r, {(0,) * r: int(c)})

    @classmethod
    def monomial(cls, r, exp, coeff=1):
        return cls(r, {tuple(exp): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.r == other.r
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if self.r != other.r:
            raise ValidationError("cannot add polynomials in %d and %d "
                                  "variables" % (self.r, other.r))
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._of(self.r, out)

    def __neg__(self):
        return LaurentPoly._of(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._of(self.r, {e: c * other
                                            for e, c in self.terms.items()})
        if self.r != other.r:
            raise ValidationError("cannot multiply polynomials in %d and %d "
                                  "variables" % (self.r, other.r))
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._of(self.r, out)

    __rmul__ = __mul__

    def shift(self, exp):
        """Multiply by the monomial with the given exponent."""
        if len(exp) != self.r:
            raise ValidationError("exponent %r needs %d coordinates"
                                  % (tuple(exp), self.r))
        return LaurentPoly._of(self.r, {tuple(a + b for a, b in zip(e, exp)): c
                                        for e, c in self.terms.items()})

    def content(self):
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        return g

    def exp_bounds(self):
        """Per-coordinate (min, max) over the support; None when zero."""
        if not self.terms:
            return None
        lows = [min(e[i] for e in self.terms) for i in range(self.r)]
        highs = [max(e[i] for e in self.terms) for i in range(self.r)]
        return lows, highs

    def n_terms(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = (["T"] if self.r == 1
                 else ["T%d" % (i + 1) for i in range(self.r)])
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("%d*%s" % (c, "*".join(factors)))
        return " + ".join(parts).replace("+ -", "- ")


class WeightSystem:
    """Weights for the r monomial generators, as vectors in Q^k.

    The rows must be Z-independent, which over Q^k is the same as
    Q-independence after clearing denominators; the constructor
    rejects dependent rows so that every nonzero polynomial has a
    unique maximal-weight term.

    >>> ws = WeightSystem([(Fraction(1),)])
    >>> p = LaurentPoly(1, {(1,): 1, (0,): -1})   # T - 1
    >>> ws.leading(p)
    ((1,), 1)
    >>> ws.is_unit_poly(p)
    True
    >>> ws.is_unit_poly(LaurentPoly.const(1, 2))
    False
    """

    __slots__ = ("weights", "k", "r", "one", "_rows", "_weight_of")

    def __init__(self, weights):
        self.weights = [tuple(Fraction(x) for x in w) for w in weights]
        self.r = len(self.weights)
        self.one = LaurentPoly.const(self.r, 1)
        self._weight_of = {}    # exponent -> weight vector, filled lazily
        if self.r:
            lengths = {len(w) for w in self.weights}
            if len(lengths) != 1:
                raise ValidationError("weight vectors of mixed length")
            self.k = lengths.pop()
        else:
            self.k = 1
        # one positive scale for all rows keeps the lexicographic order
        # of weight vectors and makes every weight an int
        scale = math.lcm(*(x.denominator for w in self.weights for x in w))
        self._rows = [tuple(int(x * scale) for x in w) for w in self.weights]
        if len(row_lattice_basis(self._rows, self.k)) != self.r:
            raise ValidationError(
                "weight vectors are Z-dependent; monomial order collapses")

    def weight_vec(self, exp):
        """Weight vector of a monomial, in units of 1/(the common
        denominator of the weights): an int tuple."""
        vec = self._weight_of.get(exp)
        if vec is None:
            vec = self._weight_of[exp] = tuple(
                sum(e * w[i] for e, w in zip(exp, self._rows) if e)
                for i in range(self.k))
        return vec

    def leading(self, poly):
        """(exponent, coefficient) of the maximal-weight term."""
        if not poly:
            raise ValidationError("zero polynomial has no leading term")
        if poly.r != self.r:
            raise ValidationError("polynomial in %d variables, weights for %d"
                                  % (poly.r, self.r))
        best = None
        best_w = None
        for exp in poly.terms:
            w = self.weight_vec(exp)
            if best is None or w > best_w:
                best, best_w = exp, w
            elif w == best_w:
                raise ValidationError("two monomials share a weight")
        return best, poly.terms[best]

    def is_unit_poly(self, poly):
        """Unit test in the localization: leading coefficient +-1."""
        if not poly:
            return False
        return abs(self.leading(poly)[1]) == 1

    def in_mult_set(self, poly):
        """Membership in the localized-at set: leading coefficient 1."""
        return bool(poly) and self.leading(poly)[1] == 1


def exact_divide(f, g):
    """Quotient f/g in the Laurent ring, or None when g does not divide f.

    Exactness argument: if f = q*g then, taking lexicographic orders
    that put any chosen coordinate first, per-coordinate support
    bounds add under multiplication, so q's support is confined to a
    box computed from f and g; the greedy top-term elimination then
    either walks down inside that box or proves non-divisibility.

    >>> t = LaurentPoly.monomial(1, (1,))
    >>> one = LaurentPoly.const(1, 1)
    >>> exact_divide(t * t - one, t + one) == t - one
    True
    >>> exact_divide(t, t + one) is None
    True
    >>> exact_divide(LaurentPoly.const(1, 2), LaurentPoly.const(1, 3)) is None
    True
    """
    if not g:
        raise ValidationError("division by the zero polynomial")
    if f.r != g.r:
        raise ValidationError("cannot divide polynomials in %d and %d "
                              "variables" % (f.r, g.r))
    if not f:
        return LaurentPoly(f.r, {})
    flo, fhi = f.exp_bounds()
    glo, ghi = g.exp_bounds()
    qlo = [a - b for a, b in zip(flo, glo)]
    qhi = [a - b for a, b in zip(fhi, ghi)]
    if any(lo > hi for lo, hi in zip(qlo, qhi)):
        return None
    g_lead = max(g.terms)
    g_lc = g.terms[g_lead]
    rem = f
    q_terms = {}
    while rem:
        r_lead = max(rem.terms)
        r_lc = rem.terms[r_lead]
        if r_lc % g_lc:
            return None
        exp = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(e < lo or e > hi for e, lo, hi in zip(exp, qlo, qhi)):
            return None
        coeff = r_lc // g_lc
        q_terms[exp] = q_terms.get(exp, 0) + coeff
        rem = rem - g.shift(exp) * coeff
    return LaurentPoly(f.r, q_terms)


def divides(g, f):
    """Whether g divides f in the Laurent ring."""
    if not f:
        return True
    if not g:
        return False
    return exact_divide(f, g) is not None

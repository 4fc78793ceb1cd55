"""Closed rational 1-cochains, with optional symbolic period parts.

A class is presented by its values on oriented edges.  Values live in
Q^k where coordinate 0 is the rational part and the remaining k-1
coordinates are coefficients of declared irrational symbols, so "1/3 +
2*alpha" with symbols ("alpha",) is (1/3, 2).  All arithmetic on the
coordinates is exact; the decimal shadows attached to symbols are used
only when a class must be perturbed to rank one.

Values are coerced to Fractions and oriented once, where they enter:
the public RationalCochain1 constructor, PeriodSpace.vector and
coboundary0 take ints, Fractions and rational strings and refuse
floats and bools.  Code that already holds oriented Fraction vectors
(the document parser, the descent, the subdivision) builds through the
trusted RationalCochain1._of, which still drops zero vectors and checks
closedness.  Values stay Fractions; their integer numerators over one
common denominator D are computed once per cochain, on construction,
and serve both the closedness check and forest_periods.  Fractions
start again only where a caller divides by D: is_exact's potential,
the period map and the period lattice basis.
"""

import math
from fractions import Fraction

from .complexes import bfs_forest, cycle_periods
from .errors import DocumentError, ValidationError

__all__ = ["PeriodSpace", "RationalCochain1", "coboundary0", "is_exact",
           "is_invariant", "subdivide_cochain", "descend_cochain"]


def _exact(x):
    """Fraction of an int, a Fraction or a rational string; a float, a
    bool or anything else is a DocumentError naming the value."""
    if isinstance(x, (int, Fraction, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DocumentError("%r is not an exact rational (an int, a Fraction "
                        "or a p/q string)" % (x,))


class PeriodSpace:
    """Value space Q + Q*sym_1 + ... with optional decimal shadows."""

    __slots__ = ("symbols", "shadows", "_zero")

    def __init__(self, symbols=(), shadows=None):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise DocumentError("duplicate period symbol")
        # one shared zero vector: tuples and Fractions are immutable
        self._zero = (Fraction(0),) * self.k
        self.shadows = {}
        for name, value in (shadows or {}).items():
            if name not in self.symbols:
                raise DocumentError("shadow for unknown symbol %r" % (name,))
            self.shadows[name] = _exact(value)

    @property
    def k(self):
        return 1 + len(self.symbols)

    def zero(self):
        return self._zero

    def vector(self, value):
        """Coerce a number or a length-k list or tuple to a value vector."""
        if not isinstance(value, (list, tuple)):
            return (_exact(value),) + self._zero[1:]
        vec = tuple(map(_exact, value))
        if len(vec) != self.k:
            raise DocumentError("value %r needs %d coordinates" % (value, self.k))
        return vec

    def shadow_value(self, vec):
        """Rational stand-in for a vector, using the symbol shadows."""
        total = vec[0]
        for name, coeff in zip(self.symbols, vec[1:]):
            if coeff:
                if name not in self.shadows:
                    raise ValidationError("symbol %r has no shadow" % (name,))
                total += coeff * self.shadows[name]
        return total

    def format(self, vec):
        """Human form: '1/3 + 2*alpha'."""
        parts = []
        if vec[0] or all(c == 0 for c in vec[1:]):
            parts.append(str(vec[0]))
        for name, coeff in zip(self.symbols, vec[1:]):
            if coeff:
                parts.append("%s*%s" % (coeff, name))
        return " + ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, PeriodSpace)
                and self.symbols == other.symbols
                and self.shadows == other.shadows)

    def __repr__(self):
        return "PeriodSpace(symbols=%r)" % (self.symbols,)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(c, a):
    return tuple(c * x for x in a)


class RationalCochain1:
    """A closed 1-cochain on a simplicial complex.

    values maps vertex pairs to vectors; each pair must be an edge,
    each edge may appear once (in either orientation), absent edges
    are zero.  Closedness over every triangle is checked on
    construction and is a hard requirement everywhere downstream.

    After construction values maps stored edges to nonzero vectors and
    is read-only: numerators, (D, {stored edge: value times D as
    ints}), is computed from it once.
    """

    __slots__ = ("complex", "space", "values", "numerators")

    def __init__(self, complex, values, space=None):
        space = space if space is not None else PeriodSpace()
        store = {}
        for (u, v), raw in values.items():
            if u == v:
                raise DocumentError("edge (%r, %r) is degenerate" % (u, v))
            key, sign = complex.orient(u, v)
            vec = space.vector(raw)
            if key in store:
                raise DocumentError("edge (%r, %r) assigned twice" % (u, v))
            store[key] = vec if sign > 0 else vec_neg(vec)
        self._settle(complex, store, space)

    @classmethod
    def _of(cls, complex, values, space):
        # trusted: values maps stored edges to length-k Fraction tuples,
        # so only zero vectors need dropping; closedness is still checked
        cochain = cls.__new__(cls)
        cochain._settle(complex, values, space)
        return cochain

    def _settle(self, complex, values, space):
        self.complex = complex
        self.space = space
        self.values = {k: v for k, v in values.items() if any(v)}
        self.numerators = _numerators(self.values)
        self._check_closed()

    def _check_closed(self):
        if self.complex.dim < 2 or not self.values:
            return
        nums = self.numerators[1]
        zero = (0,) * self.space.k
        for tri in self.complex.cells[2]:
            a, b, c = tri
            if any(x - y + z for x, y, z in zip(nums.get((a, b), zero),
                                                nums.get((a, c), zero),
                                                nums.get((b, c), zero))):
                raise ValidationError(
                    "cochain is not closed on triangle %r" % (tri,))

    def value(self, u, v):
        """Value on the oriented edge u -> v (antisymmetric)."""
        if u == v:
            return self.space.zero()
        key, sign = self.complex.orient(u, v)
        vec = self.values.get(key, self.space.zero())
        return vec if sign > 0 else vec_neg(vec)

    def sum_along(self, walk):
        """Sum of values along a vertex walk; repeated vertices allowed
        consecutively (they contribute nothing)."""
        total = self.space.zero()
        for u, v in zip(walk, walk[1:]):
            if u != v:
                total = vec_add(total, self.value(u, v))
        return total

    def is_zero(self):
        return not self.values

    def add(self, other):
        if self.complex is not other.complex or self.space != other.space:
            raise DocumentError("cochains live on different complexes "
                                "or period spaces")
        out = dict(self.values)
        for key, vec in other.values.items():
            out[key] = vec_add(out.get(key, self.space.zero()), vec)
        return RationalCochain1._of(self.complex, out, self.space)

    def scale(self, c):
        c = _exact(c)
        return RationalCochain1._of(
            self.complex,
            {k: vec_scale(c, v) for k, v in self.values.items()},
            self.space)

    def __eq__(self, other):
        return (isinstance(other, RationalCochain1)
                and self.complex is other.complex
                and self.space == other.space
                and self.values == other.values)

    def __repr__(self):
        return "RationalCochain1(%d nonzero edges)" % (len(self.values),)


def coboundary0(complex, potential, space=None):
    """Coboundary of a vertex function; absent vertices count as zero.

    >>> from .complexes import build_complex
    >>> X = build_complex([("a", "b"), ("b", "c")])
    >>> df = coboundary0(X, {"b": Fraction(1, 2)})
    >>> df.value("a", "b")
    (Fraction(1, 2),)
    """
    space = space if space is not None else PeriodSpace()
    f = {}
    for v, raw in potential.items():
        if v not in complex.vertex_index:
            raise DocumentError("unknown vertex %r" % (v,))
        f[v] = space.vector(raw)
    zero = space.zero()
    values = {}
    for (u, v) in (complex.cells[1] if complex.dim >= 1 else []):
        values[(u, v)] = vec_sub(f.get(v, zero), f.get(u, zero))
    return RationalCochain1._of(complex, values, space)


def _numerators(values):
    """D, the lcm of all coordinate denominators, and {stored edge: value
    times D as ints}; scaling by D > 0 is injective, so zero sums stay."""
    D = math.lcm(*{x.denominator for vec in values.values() for x in vec})
    return D, {e: tuple(x.numerator * (D // x.denominator) for x in vec)
               for e, vec in values.items()}


def forest_periods(cochain, parent, order):
    """(D, pot, periods): complexes.cycle_periods of the cochain's
    integer numerators over D, its common denominator, along the
    spanning forest of bfs_forest, so tree edges never appear."""
    D, nums = cochain.numerators
    pot, periods = cycle_periods(cochain.complex, nums, (parent, order),
                                 (0,) * cochain.space.k)
    return D, pot, periods


def is_exact(cochain):
    """Potential vertex function if the cochain is a coboundary, else None.

    The potential vanishes at the lowest vertex of each component.
    """
    parent, order = bfs_forest(cochain.complex)
    D, pot, periods = forest_periods(cochain, parent, order)
    if periods:
        return None
    return {v: tuple(Fraction(n, D) for n in vec) for v, vec in pot.items()}


def is_invariant(action, cochain):
    """Whether every group element preserves the cochain's edge values."""
    X = action.complex
    if cochain.complex is not X:
        raise DocumentError("cochain does not live on the action's complex")
    for (u, v) in X.edges():
        value = cochain.value(u, v)
        for g in action.group.elements:
            if cochain.value(action.apply_vertex(g, u),
                             action.apply_vertex(g, v)) != value:
                return False
    return True


def subdivide_cochain(sd, cochain):
    """Transport a closed cochain along a barycentric subdivision.

    Each edge of the subdivision joins barycenters of a proper face
    pair c < d; its value is the difference of barycenter potentials
    inside d, which keeps all walk sums exact: an original edge (u, v)
    splits into two steps of value omega(u,v)/2 each.
    """
    X = cochain.complex
    Xs = sd.complex
    space = cochain.space
    values = {}
    for (a, b) in (Xs.cells[1] if Xs.dim >= 1 else []):
        ca = sd.cell_of[a]
        cb = sd.cell_of[b]
        big = ca if len(ca) >= len(cb) else cb
        small = cb if big is ca else ca
        if not set(small) < set(big):
            raise ValidationError("subdivision edge %r is not a face flag"
                                  % ((a, b),))
        base = big[0]

        def avg(cell):
            # barycenter potential inside the big cell: phi(w) = omega(base, w)
            tot = space.zero()
            for w in cell:
                tot = vec_add(tot, cochain.value(base, w))
            return vec_scale(Fraction(1, len(cell)), tot)

        values[(a, b)] = vec_sub(avg(cb), avg(ca))
    return RationalCochain1._of(Xs, values, space)


def descend_cochain(qres, cochain):
    """Push a basic closed cochain down to the orbit space, in one pass.

    The cochain lives on the complex the quotient was computed from;
    any subdivisions the quotient needed are applied to it first.  Each
    edge's value is written onto its oriented orbit edge, and that pass
    is the basic-class test.  (u, v) and (g.u, g.v) land on the same
    orbit edge, so agreement on every orbit edge is invariance; and
    regularity puts all edges with one image in one orbit, so an
    invariant cochain always agrees.  Raises ValidationError on the
    first disagreement: the cochain is not invariant, hence not basic.
    """
    current = cochain
    for sd in qres.subdivisions:
        current = subdivide_cochain(sd, current)
    X = qres.action.complex
    if current.complex is not X:
        raise DocumentError("cochain does not live on the quotient's complex")
    proj = qres.projection
    Y = qres.complex
    zero = current.space.zero()
    values = {}
    for (u, v) in X.edges():
        key, sign = Y.orient(proj[u], proj[v])
        vec = current.values.get((u, v), zero)
        vec = vec if sign > 0 else vec_neg(vec)
        if values.setdefault(key, vec) != vec:
            raise ValidationError("cochain is not invariant, hence not basic")
    return RationalCochain1._of(Y, values, current.space)

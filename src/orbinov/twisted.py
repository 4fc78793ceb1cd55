"""Twisted chain complexes and exact Novikov numbers.

A closed rational cochain is first replaced by an integer-valued
exponent cochain: the periods of the off-tree edges of a spanning
forest are expanded in a lattice basis of the period group, and tree
edges get exponent zero.  The expansion runs on integer numerators;
Fractions appear only in the lattice basis, which weights the ring.
The boundary maps of the complex then pick up monomial coefficients
(the face dropping the first vertex is transported along its first
edge), giving matrices over the weighted Laurent ring whose ranks and
invariant factors are the Novikov betti and torsion numbers.

They are built and checked as signed monomials.  d_1 never becomes a
Laurent matrix: its pivots are read off the lift's spanning forest
(complexes.forest_pairs), every one a unit, so its rank is their count
and q_0 = 0.  Nor does the top one: its dual forest pairs it
(complexes.dual_forest_reduction), and only the residual and the middle
degrees' unpaired rows become Laurent polynomials.
"""

from fractions import Fraction
from operator import add

from .cochains import RationalCochain1, PeriodSpace, forest_periods
from .complexes import (SimplicialComplex, bfs_forest,
                        dual_forest_reduction, forest_pairs,
                        integer_homology)
from .errors import UnsupportedOperationError, ValidationError
from .laurent import LaurentPoly, WeightSystem
from .lmatrix import (WeightedLaurentMatrix, fraction_field_rank,
                      invariant_factors)
from .periods import period_lattice

__all__ = ["IntegralLift", "integralize", "TwistedComplex",
           "twisted_complex", "NovikovNumbers", "novikov_numbers",
           "CyclicCoverCheck", "check_cover_degree", "cyclic_cover_oracle",
           "rank1_perturb"]


class IntegralLift:
    """Integer exponent cochain representing a closed cochain's class.

    basis spans the period lattice, and forest is the spanning forest
    (parent, order) of bfs_forest.  exponents maps stored edges to
    integer coordinates in the basis, absent edges zero; integralize
    puts each off-tree period there and leaves the tree edges at zero.
    The lifted cochain differs from the original by a coboundary, so
    every loop period is preserved.
    """

    __slots__ = ("complex", "basis", "exponents", "forest")

    def __init__(self, complex, basis, exponents, forest):
        self.complex = complex
        self.basis = basis
        self.exponents = exponents
        self.forest = forest

    @property
    def rank(self):
        return len(self.basis)

    def exponent(self, u, v):
        """Exponent vector along the edge u -> v, antisymmetric."""
        if u == v:
            return (0,) * self.rank
        key, sign = self.complex.orient(u, v)
        e = self.exponents.get(key, (0,) * self.rank)
        return e if sign > 0 else tuple(-x for x in e)


def integralize(cochain):
    """Integral lift of a closed cochain's class.

    The fundamental cycles of a spanning forest generate H_1, so the
    off-tree periods span the period lattice.  Each nonzero one is
    expanded in its basis, and every expansion must be integral.
    """
    X = cochain.complex
    parent, order = bfs_forest(X)
    D, _, periods = forest_periods(cochain, parent, order)
    basis, coords = period_lattice(list(periods.values()), D,
                                   cochain.space.k)
    return IntegralLift(X, basis, dict(zip(periods, coords)),
                        (parent, order))


class TwistedComplex:
    """Boundaries of a complex twisted by an integral lift, as signed
    monomials: monomials[q] maps (row, col) of d_q to (exponent, sign)."""

    __slots__ = ("complex", "lift", "ws", "monomials")

    def __init__(self, complex, lift, ws, monomials):
        self.complex = complex
        self.lift = lift
        self.ws = ws
        self.monomials = monomials

    def boundary(self, q, paired=()):
        """d_q over the weighted Laurent ring, without the rows in
        paired; Laurent entries are built only for the rows kept."""
        r, X = self.ws.r, self.complex
        return WeightedLaurentMatrix(
            self.ws, X.n_cells(q - 1), X.n_cells(q),
            {key: LaurentPoly._of(r, {e: sign})
             for key, (e, sign) in self.monomials[q].items()
             if key[0] not in paired})


def twisted_complex(lift):
    """Signed-monomial boundaries of the lift's complex over the
    weighted Laurent ring of its period lattice.

    The face that drops a cell's first vertex changes basepoint, so
    its coefficient is transported by the monomial of the first edge's
    exponent; all other faces keep plain alternating signs.  Entries are
    signed monomials (exponent, sign), and consecutive maps must
    compose to zero.
    """
    X = lift.complex
    ws = WeightSystem(lift.basis)
    zero = (0,) * ws.r
    monomials = {}
    for q in range(1, X.dim + 1):
        idx = X.cell_index[q - 1]
        entries = {}
        for j, cell in enumerate(X.cells[q]):
            entries[(idx[cell[1:]], j)] = (
                lift.exponents.get(cell[:2], zero), 1)
            for drop in range(1, q + 1):
                entries[(idx[cell[:drop] + cell[drop + 1:]], j)] = (
                    zero, -1 if drop % 2 else 1)
        monomials[q] = entries
    for q in range(1, X.dim):
        if not _monomial_product_is_zero(monomials[q], monomials[q + 1]):
            raise ValidationError(
                "twisted boundary squared is nonzero in degree %d" % (q + 1,))
    return TwistedComplex(X, lift, ws, monomials)


def _monomial_product_is_zero(A, B):
    """Whether a product of sparse signed-monomial matrices
    {(row, col): (exponent, sign)} vanishes; signs add per exponent."""
    by_row = {}
    for (k, j), b in B.items():
        by_row.setdefault(k, []).append((j, b))
    acc = {}
    for (i, k), (e1, s1) in A.items():
        for j, (e2, s2) in by_row.get(k, ()):
            key = (i, j, tuple(map(add, e1, e2)))
            acc[key] = acc.get(key, 0) + s1 * s2
    return not any(acc.values())


class NovikovNumbers:
    """Exact Novikov numbers of a class, with the route that produced
    them.

    route is "integral" when the class vanishes (ordinary homology),
    "rank-one" when torsion is computed through invariant factors, and
    "betti-only" when the period lattice has rank two or more, where
    torsion is left as None.  novikov_numbers sets lift to the
    IntegralLift the numbers came from; numbers built directly have
    lift None.
    """

    __slots__ = ("betti", "torsion", "rank", "route", "note", "lift")

    def __init__(self, betti, torsion, rank, route, note=None):
        self.betti = betti
        self.torsion = torsion
        self.rank = rank
        self.route = route
        self.note = note
        self.lift = None

    def euler(self):
        return sum((-1) ** q * b for q, b in enumerate(self.betti))

    def __repr__(self):
        return ("NovikovNumbers(betti=%r, torsion=%r, rank=%d, route=%r)"
                % (self.betti, self.torsion, self.rank, self.route))


def novikov_numbers(cochain):
    """Betti and torsion numbers of a closed cochain's class.

    Rank zero classes reduce to ordinary integer homology.  At rank
    one each boundary is reduced once, and its invariant factors give
    both the rank and the torsion.  At higher rank the betti numbers
    come from fraction-field ranks; torsion needs invariant factors,
    which exist as an algorithm only at rank one.
    """
    lift = integralize(cochain)
    numbers = _novikov_of_lift(lift)
    numbers.lift = lift
    return numbers


def _novikov_of_lift(lift):
    """Novikov numbers of an integral lift, one boundary at a time,
    going up in degree.

    d_1's unit pivots come from the lift's spanning forest, so its
    rank is their count and it adds no torsion.  Block lemma: a unit
    pivot (s, t) of d_q splits s and t off with no homology, so d_{q+1}
    drops row t and keeps its ranks and torsion; the top one pairs
    along its dual forest first.
    """
    X = lift.complex
    r = lift.rank
    if r == 0:
        ih = integer_homology(X, lift.forest)
        return NovikovNumbers(list(ih.betti),
                              [len(t) for t in ih.torsion],
                              0, "integral")
    tc = twisted_complex(lift)
    top = X.dim
    pairs = forest_pairs(X, lift.forest, lift.exponents)
    rho = [0, len(pairs)] + [0] * top
    torsion = [0] * (top + 1)
    for q in range(2, top + 1):
        paired = {j for _, j in pairs}
        if q < top:
            pairs, d = [], tc.boundary(q, paired)
        else:
            pairs, d = dual_forest_reduction(tc.monomials[q], paired)
            d = WeightedLaurentMatrix(tc.ws, X.n_cells(q - 1), X.n_cells(q), {
                key: LaurentPoly._of(r, terms) for key, terms in d.items()})
        if r == 1:
            inv = invariant_factors(d)
            rank, more = inv.rank, inv.pairs
            torsion[q - 1] = inv.nonunit_count
        else:
            rank, more = fraction_field_rank(d)
        rho[q], pairs = len(pairs) + rank, pairs + more
    betti = [X.n_cells(q) - rho[q] - rho[q + 1] for q in range(top + 1)]
    if any(b < 0 for b in betti):
        raise ValidationError("negative twisted betti number")
    if r >= 2:
        return NovikovNumbers(
            betti, None, r, "betti-only",
            "torsion needs a rank one class; consider rank1_perturb")
    return NovikovNumbers(betti, torsion, 1, "rank-one")


class CyclicCoverCheck:
    """A degree p cyclic cover of a rank one class: cover is the cover
    as a SimplicialComplex, and consistent says whether the twisted
    boundaries at T = the p by p cyclic shift are the cover's own."""

    __slots__ = ("p", "cover", "consistent")

    def __init__(self, p, cover, consistent):
        self.p = p
        self.cover = cover
        self.consistent = consistent

    def __repr__(self):
        return ("CyclicCoverCheck(p=%d, consistent=%r, cover=%r)"
                % (self.p, self.consistent, self.cover))


def check_cover_degree(p):
    """Refuse a cyclic cover degree outside 2..12."""
    if not 2 <= p <= 12:
        raise UnsupportedOperationError(
            "cover degree %d out of the supported range 2..12" % (p,))


def cyclic_cover_oracle(lift, p):
    """The degree p cyclic cover, checked against the twisted boundary.

    lift is the integral lift of a rank one class (see integralize).
    The cover is returned as a simplicial complex with vertices
    (v, level); its homology is left to callers (integer_homology).
    Substituting the p by p cyclic shift for the twisting variable turns
    each twisted boundary into a block matrix in the cover's own cell
    order, so the two must agree entry for entry.  A disagreement
    exposes a defect in the twisting conventions, a flipped exponent
    sign included, which the cover's homology alone cannot see.
    """
    check_cover_degree(p)
    if lift.rank != 1:
        raise UnsupportedOperationError(
            "cyclic covers need a rank one class, got rank %d" % (lift.rank,))
    X = lift.complex
    # the twisted d o d check comes first: a lift that is not closed
    # stops there, before the cover looks up a face it lacks
    block = _block_substitution(X, twisted_complex(lift), p)
    cover = _explicit_cover(X, lift, p)
    consistent = all(block[q] == cover.boundary_entries(q)
                     for q in range(1, X.dim + 1))
    return CyclicCoverCheck(p, cover, consistent)


def _explicit_cover(X, lift, p):
    # vertex (v, l) sits at index i p + l, i its index in X; the lift
    # of cell j at level l puts each vertex v at level
    # l + exponent(v0, v) and sits at index j p + l, in stored order
    cells = []
    for layer in X.cells:
        lifted = []
        for cell in layer:
            offsets = [lift.exponent(cell[0], v)[0] for v in cell]
            lifted += [tuple((v, (level + e) % p)
                             for v, e in zip(cell, offsets))
                       for level in range(p)]
        cells.append(lifted)
    return SimplicialComplex(
        [(v, level) for v in X.vertices for level in range(p)], cells)


def _block_substitution(X, tc, p):
    # T^e acts on levels as the cyclic shift by e; boundaries[q] is d_q
    return [{}] + [{(i * p + (level + e) % p, j * p + level): c
                    for (i, j), ((e,), c) in tc.monomials[q].items()
                    for level in range(p)}
                   for q in range(1, X.dim + 1)]


def rank1_perturb(cochain, precision=6):
    """Rational rank one stand-in for a higher rank class.

    Each symbol's decimal shadow is rounded once, to the requested
    number of digits, and every value vector is collapsed onto the
    rational number it takes under those rounded shadows.  That map is
    linear, so the stand-in is closed whenever the class is; periods
    then live in a rank one lattice and torsion becomes computable.
    Rank one input passes through unchanged; rank zero input (before or
    after the collapse) is refused since it no longer points anywhere.
    """
    X = cochain.complex
    if integralize(cochain).rank == 0:
        raise ValidationError("the zero class cannot be perturbed")
    if not cochain.space.symbols:
        return cochain
    scale = 10 ** precision
    rounded = PeriodSpace(cochain.space.symbols, {
        name: Fraction(round(s * scale), scale)
        for name, s in cochain.space.shadows.items()})
    values = {}
    for (u, v) in X.edges():
        w = cochain.value(u, v)
        if any(w):
            c = rounded.shadow_value(w)
            if c:
                values[(u, v)] = (c,)
    out = RationalCochain1(X, values, PeriodSpace())
    if integralize(out).rank == 0:
        raise ValidationError(
            "perturbation collapsed the class to zero; raise precision")
    return out

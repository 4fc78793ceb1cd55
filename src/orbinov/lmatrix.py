"""Matrices over the weighted Laurent ring: rank and invariant factors.

Both run on the sparse unit-pivot elimination of integer homology
(snf.eliminate_units), on the Laurent polynomials themselves: every
entry with a unit leading coefficient is pivoted away, shortest column
first, and each pivot adds one to the rank and one unit invariant
factor.  A pivot +-T^e is a unit of the Laurent ring, so the rows it
clears are divided exactly, by a shift; any other unit pivot u clears
row r as u*r - a*(pivot row), which differs from the exact step by the
unit u of the localized ring and so changes neither rank nor invariant
factors.  What remains is a residual block with no unit entries,
usually empty for twisted boundaries.  Both also return the pivot
pairs (row, col), so that a twisted complex hands the next boundary
only the rows not paired away (see twisted._novikov_of_lift).

A twisted d_1 never comes here.  Its pivots are read off a spanning
forest (complexes.forest_pairs): +-T^e on the tree edges, then T^p - 1
times a unit in a component's root row, where p != 0 is a cycle's
period.  Those two terms have coefficients +-1 and different weights,
so the leading one is a unit and so is the polynomial; every invariant
factor of d_1 is a unit, and q_0 = 0.

Rank then adds the fraction-free (Bareiss) rank of the residual, valid
for any weight rank.  Invariant factors resolve the residual through
determinantal divisors, i.e. gcds of all i x i minors over the
polynomial ring.  Dividing consecutive divisors is exact because an
i-minor expands into (i-1)-minors; the divisibility chain of the
resulting factors is then re-verified inside the localized ring.
"""

from .errors import UnsupportedOperationError, ValidationError
from .laurent import LaurentPoly, exact_divide
from .localized import associates, localized_gcd
from .snf import eliminate_units

__all__ = ["WeightedLaurentMatrix", "fraction_field_rank",
           "InvariantFactors", "invariant_factors"]

MINOR_CAP = 8


class WeightedLaurentMatrix:
    """Sparse matrix of Laurent polynomials tied to a weight system."""

    __slots__ = ("ws", "nrows", "ncols", "entries")

    def __init__(self, ws, nrows, ncols, entries):
        self.ws = ws
        self.nrows = nrows
        self.ncols = ncols
        store = {}
        for (i, j), p in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValidationError("entry (%d, %d) outside %d x %d"
                                      % (i, j, nrows, ncols))
            if isinstance(p, int):
                p = LaurentPoly.const(ws.r, p)
            if p.r != ws.r:
                raise ValidationError("entry (%d, %d) is in %d variables, "
                                      "the weights in %d" % (i, j, p.r, ws.r))
            if p:
                store[(i, j)] = p
        self.entries = store

    def entry(self, i, j):
        return self.entries.get((i, j), LaurentPoly(self.ws.r, {}))

    def transpose(self):
        return WeightedLaurentMatrix(
            self.ws, self.ncols, self.nrows,
            {(j, i): p for (i, j), p in self.entries.items()})

    def __repr__(self):
        return "WeightedLaurentMatrix(%d x %d, %d nonzero)" % (
            self.nrows, self.ncols, len(self.entries))


def _unit_cost(p, ws):
    """Pivot cost of a Laurent polynomial: its term count if it is a
    unit of the localized ring, else None.  A monomial is a unit
    exactly when its coefficient is +-1, which needs no weight scan."""
    terms = p.terms
    if len(terms) == 1:
        (c,) = terms.values()
        return 1 if c in (1, -1) else None
    return len(terms) if ws.is_unit_poly(p) else None


def _divide(a, pivot):
    """a / pivot when the pivot is +-T^e, a unit of the Laurent ring
    itself: a shift, and none at e = 0.  None for any other unit, whose
    row eliminate_units then clears fraction-free."""
    if len(pivot.terms) != 1:
        return None
    ((exp, c),) = pivot.terms.items()
    if any(exp):
        a = a.shift(tuple(-e for e in exp))
    return -a if c < 0 else a


def _eliminate_units(M):
    """(pivot pairs (row, col), dense residual rows over the live
    columns) of M over the localized ring.  The shortest column goes
    first, so free faces go first and cause no fill; then fewer terms
    is cheaper.  Entries stay Laurent polynomials throughout: a row is
    divided only by a monomial pivot, and scaled by any other one."""
    ws = M.ws
    pairs, rows, cols = eliminate_units(
        M.entries, lambda p: _unit_cost(p, ws), _divide)
    zero = LaurentPoly(ws.r, {})
    return pairs, [[row.get(j, zero) for j in cols] for row in rows]


def _bareiss_rank(rows, ws):
    """Rank over the fraction field of dense Laurent rows.

    Bareiss: every intermediate entry is a minor of the input, so the
    division at each step is exact in the polynomial ring.
    """
    A = [list(row) for row in rows]
    ncols = len(A[0]) if A else 0
    prev = ws.one
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pivot = A[rank]
        for row in A[rank + 1:]:
            for c in range(j + 1, ncols):
                q = exact_divide(row[c] * pivot[j] - row[j] * pivot[c], prev)
                if q is None:
                    raise ValidationError(
                        "fraction-free step failed to divide")
                row[c] = q
        prev = pivot[j]
        rank += 1
    return rank


def fraction_field_rank(M):
    """(rank over the fraction field, unit pivot pairs): the rank is
    the unit pivots plus the fraction-free rank of the residual."""
    pairs, residual = _eliminate_units(M)
    return len(pairs) + _bareiss_rank(residual, M.ws), pairs


class InvariantFactors:
    """Invariant factors of a matrix over the localized ring.

    factors lists the nonzero invariant factors up to units, units
    first (reported as the constant 1); rank counts them;
    nonunit_count is the number of factors that are not units, which
    is the torsion contribution; pairs lists the unit pivots (row, col)
    that eliminate_units took, in pivot order.
    """

    __slots__ = ("ws", "factors", "rank", "nonunit_count", "pairs")

    def __init__(self, ws, factors, nonunit_count, pairs):
        self.ws = ws
        self.factors = factors
        self.rank = len(factors)
        self.nonunit_count = nonunit_count
        self.pairs = pairs

    def nonunit_factors(self):
        return self.factors[self.rank - self.nonunit_count:]

    def __repr__(self):
        return ("InvariantFactors(rank=%d, nonunit=%r)"
                % (self.rank, self.nonunit_factors()))


def invariant_factors(M):
    """Invariant factors over the localized ring, weight rank <= 1.

    Unit entries are pivoted away exactly; the residual block goes
    through gcd-of-minors determinantal divisors, which is exponential
    in its size, so residual blocks larger than MINOR_CAP on a side
    are refused rather than attempted.
    """
    ws = M.ws
    pairs, residual = _eliminate_units(M)
    one = ws.one
    factors = [one] * len(pairs)
    if not residual:
        return InvariantFactors(ws, factors, 0, pairs)
    if ws.r >= 2:
        raise UnsupportedOperationError(
            "residual invariant factors need gcds; weight rank %d has none"
            % (ws.r,))
    m, n = len(residual), len(residual[0])
    if min(m, n) > MINOR_CAP:
        raise UnsupportedOperationError(
            "residual block is %d x %d; gcd-of-minors is capped at %d"
            % (m, n, MINOR_CAP))
    prev_delta = one
    nonunit = []
    for size in range(1, min(m, n) + 1):
        delta = _minor_gcd(residual, size, ws)
        if not delta:
            break
        d = exact_divide(delta, prev_delta)
        if d is None:
            raise ValidationError("determinantal divisors failed to divide")
        if d.terms.get(max(d.terms), 0) < 0:
            d = -d
        nonunit.append(d)
        prev_delta = delta
    factors_tail = []
    for d in nonunit:
        if ws.is_unit_poly(d):
            factors.append(one)
        else:
            factors_tail.append(d)
    # a divides b in the localized ring exactly when gcd(a, b) is an
    # associate of a
    for a, b in zip(factors_tail, factors_tail[1:]):
        if not associates(localized_gcd(a, b, ws), a, ws):
            raise ValidationError(
                "invariant factor chain broke: %r does not divide %r"
                % (a, b))
    factors.extend(factors_tail)
    return InvariantFactors(ws, factors, len(factors_tail), pairs)


def _minor_gcd(rows, size, ws):
    from itertools import combinations
    m = len(rows)
    n = len(rows[0])
    g = LaurentPoly(ws.r, {})
    for rsel in combinations(range(m), size):
        for csel in combinations(range(n), size):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            det = _poly_det(sub, ws)
            if det:
                g = det if not g else localized_gcd(g, det, ws)
    return g


def _poly_det(sub, ws):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = LaurentPoly(ws.r, {})
    for j in range(n):
        if sub[0][j]:
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            term = sub[0][j] * _poly_det(minor, ws)
            total = total + term if j % 2 == 0 else total - term
    return total

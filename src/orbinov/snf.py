"""Smith normal form, sparse unit-pivot elimination and integer
row-lattice reduction, exact arithmetic.

Homology over Z and over the localized Laurent ring (see lmatrix) runs
on one sparse elimination, eliminate_units, before any dense step.  It
pivots on the unit whose column has the fewest live entries first:
a column with one entry is a free face, whose elimination updates no
row, and a short column causes little fill in the rest.  Entries stay
in the ring they came in: a row is cleared by the exact quotient where
the ring has a cheap one (an integer unit, a monomial +-T^e), else
fraction-free, scaled by the unit pivot as in Bareiss's step.

Dense matrices are plain lists of rows of Python ints; no machine-word
modes anywhere.  Every pivot is a smallest nonzero entry of the
trailing block, and the search ends at the first +-1 entry in
row-major order, the entry the full scan would pick.  A sweep that
leaves a remainder beside the pivot goes back to the search; a +-1
pivot skips the divisibility check, since it divides every entry.
"""

from heapq import heappop, heappush

from .errors import ValidationError

__all__ = ["SNFResult", "smith_normal_form", "identity_matrix", "mat_mul",
           "row_lattice_basis"]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """Product of two int matrices (lists of rows)."""
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    n = len(B)
    cols = len(B[0])
    if (any(len(row) != n for row in A)
            or any(len(row) != cols for row in B)):
        raise ValidationError("shape mismatch in matrix product")
    out = []
    for row in A:
        acc = [0] * cols
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


class SNFResult:
    """Diagonal form d_1 | d_2 | ... of an integer matrix.

    diagonal has length min(m, n) and may end in zeros; rank counts the
    nonzero entries.  When transforms are retained they are the triple
    (S, S_inv, T) with S*A*T equal to the diagonal form.
    """

    __slots__ = ("diagonal", "rank", "shape", "transforms")

    def __init__(self, diagonal, shape, transforms=None):
        self.diagonal = list(diagonal)
        self.shape = shape
        self.rank = sum(1 for d in self.diagonal if d)
        self.transforms = transforms
        for a, b in zip(self.diagonal, self.diagonal[1:]):
            if b and (a == 0 or b % a):
                raise ValidationError("diagonal %r breaks the divisibility chain"
                                      % (self.diagonal,))

    def torsion(self):
        """Invariant factors bigger than 1 (the torsion part)."""
        return [d for d in self.diagonal if d > 1]

    def __repr__(self):
        return "SNFResult(diagonal=%r, shape=%r)" % (self.diagonal, self.shape)


def smith_normal_form(rows, shape=None, want_transforms=False):
    """Smith normal form of an integer matrix.

    >>> smith_normal_form([[2, 0], [0, 3]]).diagonal
    [1, 6]
    >>> smith_normal_form([[0]]).rank
    0
    >>> r = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    >>> r.diagonal
    [2, 2, 156]

    With shape=(m, n) an empty list stands for any m x 0 / 0 x n matrix.
    Every pivot is a smallest entry of the trailing block; a sweep
    that leaves a remainder beside it goes back to the pivot search.
    """
    if shape is None:
        m = len(rows)
        n = len(rows[0]) if rows else 0
    else:
        m, n = shape
    M = [list(r) for r in rows]
    if len(M) != m or any(len(r) != n for r in M):
        raise ValidationError("matrix does not have shape %d x %d" % (m, n))

    if want_transforms:
        S, Si = identity_matrix(m), identity_matrix(m)
        T = identity_matrix(n)

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        if want_transforms:
            S[i], S[j] = S[j], S[i]
            for r in Si:
                r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        Mi, Mj = M[i], M[j]
        for t in range(n):
            Mi[t] += c * Mj[t]
        if want_transforms:
            Ri, Rj = S[i], S[j]
            for t in range(m):
                Ri[t] += c * Rj[t]
            for r in Si:
                r[j] -= c * r[i]

    def row_neg(i):
        M[i] = [-x for x in M[i]]
        if want_transforms:
            S[i] = [-x for x in S[i]]
            for r in Si:
                r[i] = -r[i]

    def col_swap(j, k):
        for r in M:
            r[j], r[k] = r[k], r[j]
        if want_transforms:
            for r in T:
                r[j], r[k] = r[k], r[j]

    def col_add(j, k, c):
        # col_j += c * col_k
        for r in M:
            r[j] += c * r[k]
        if want_transforms:
            for r in T:
                r[j] += c * r[k]

    t = 0
    while t < min(m, n):
        # minimal |entry| pivot in the trailing submatrix, first in
        # row-major order; nothing beats a unit, so the first one ends it
        best, low = None, 0
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (best is None or abs(v) < low):
                    best, low = (i, j), abs(v)
                    if low == 1:
                        break
            if low == 1:
                break
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])

        # a floor remainder is smaller than the pivot, a smallest entry,
        # so each return to the search lowers that minimum: the loop ends
        p = M[t][t]
        for i in range(t + 1, m):
            if M[i][t]:
                row_add(i, t, -(M[i][t] // p))
        for j in range(t + 1, n):
            if M[t][j]:
                col_add(j, t, -(M[t][j] // p))
        if any(M[t][t + 1:]) or any(M[i][t] for i in range(t + 1, m)):
            continue
        bad = None
        # a unit pivot divides every entry of the trailing block
        if abs(p) != 1:
            bad = next((a for a in range(t + 1, m)
                        if any(x % p for x in M[a][t + 1:])), None)
        if bad is not None:
            # drag a non-divisible entry into the pivot row and redo
            row_add(t, bad, 1)
            continue
        if p < 0:
            row_neg(t)
        t += 1

    diagonal = [M[i][i] for i in range(min(m, n))]
    transforms = None
    if want_transforms:
        D = mat_mul(mat_mul(S, [list(r) for r in rows]), T) if rows else []
        for i in range(m):
            for j in range(n):
                want = diagonal[i] if i == j and i < len(diagonal) else 0
                if D[i][j] != want:
                    raise ValidationError("transform bookkeeping broke")
        transforms = (S, Si, T)
    return SNFResult(diagonal, (m, n), transforms)


def eliminate_units(entries, unit_cost, divide):
    """Sparse unit-pivot elimination: (pairs, residual rows, columns).

    entries maps (row, col) to a nonzero ring element; unit_cost(a) is
    None for a non-unit, else the cost of pivoting on a, and
    divide(a, pivot) is the exact quotient by a unit, or None when the
    ring has no cheap quotient.  Then the row is cleared fraction-free,
    as in Bareiss's step: row := pivot * row - a * (pivot row), which
    is invertible because the pivot is a unit, and keeps every unit a
    unit at a new cost.  Each pivot is the unit that minimizes (live
    entries in its column, cost, row, col): Markowitz's rule restricted
    to columns.  A column with one live entry is a free face, and
    pivoting on it updates no row, so free faces go first and a short
    column causes little fill.  A heap holds one key per column,
    (length, cost and row of its cheapest unit, col); a pivot changes
    only the columns of its row and of the rows it scales, so only
    their keys are recomputed, and a popped key that is no longer its
    column's is skipped.  Row operations clear the pivot column; the
    matching column operations would only clear the rest of the pivot
    row, so the pivot's row and column are dropped instead.  pairs
    lists the pivots (row, col) in pivot order; no two share a row or
    a column.  Residual rows are dicts col -> entry, in row order; the
    columns still holding an entry come sorted.
    """
    rows = {}
    in_col = {}    # col -> rows with an entry there
    units = {}     # col -> {row: cost} of the unit entries there
    keys = {}      # col -> the key of that column in the heap
    heap = []

    def refresh(j):
        col = units[j]
        if not col:
            keys.pop(j, None)
            return
        key = (len(in_col[j]), *min(zip(col.values(), col)), j)
        if keys.get(j) != key:
            keys[j] = key
            heappush(heap, key)

    for (i, j), a in entries.items():
        rows.setdefault(i, {})[j] = a
        in_col.setdefault(j, set()).add(i)
        col = units.setdefault(j, {})
        cost = unit_cost(a)
        if cost is not None:
            col[i] = cost
    for j in units:
        refresh(j)
    pairs = []
    while heap:
        key = heappop(heap)
        _, _, pi, pj = key
        if keys.get(pj) != key:
            continue
        del keys[pj]
        prow = rows.pop(pi)
        for j in prow:
            in_col[j].discard(pi)
            units[j].pop(pi, None)
        pivot = prow.pop(pj)
        del units[pj]
        scaled = []
        for i in in_col.pop(pj):
            row = rows[i]
            a = row.pop(pj)
            f = divide(a, pivot)
            if f is None:
                f = a
                for j, b in row.items():
                    row[j] = b = pivot * b
                    if i in units[j]:
                        units[j][i] = unit_cost(b)
                        scaled.append(j)
            for j, b in prow.items():
                s = row[j] - f * b if j in row else -(f * b)
                if s:
                    row[j] = s
                    in_col[j].add(i)
                    cost = unit_cost(s)
                    if cost is None:
                        units[j].pop(i, None)
                    else:
                        units[j][i] = cost
                else:
                    del row[j]
                    in_col[j].discard(i)
                    units[j].pop(i, None)
        for j in prow:
            refresh(j)
        for j in scaled:
            refresh(j)
        pairs.append((pi, pj))
    cols = sorted(j for j, live in in_col.items() if live)
    return pairs, [rows[i] for i in sorted(rows) if rows[i]], cols


def row_lattice_basis(rows, ncols):
    """Hermite-style Z-basis of the lattice spanned by integer rows.

    Echelon over Z with positive pivots and entries above each pivot
    reduced into [0, pivot); deterministic, hence canonical.

    >>> row_lattice_basis([[7, 0], [-3, 1]], 2)
    [[1, 2], [0, 7]]
    >>> row_lattice_basis([[2, 4], [4, 8]], 2)
    [[2, 4]]
    """
    work = [list(r) for r in rows if any(r)]
    if any(len(r) != ncols for r in work):
        raise ValidationError("lattice rows need %d entries" % (ncols,))
    basis = []
    for col in range(ncols):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            r0 = live[0]
            for r in live[1:]:
                q = r[col] // r0[col]
                for j in range(col, ncols):
                    r[j] -= q * r0[j]
            live = [r for r in live if r[col]]
        if live:
            piv = live[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
        work = [r for r in work if any(r)]
    # reduce entries above every pivot into [0, pivot)
    pivots = [(next(j for j, x in enumerate(r) if x), r) for r in basis]
    for idx, (c, r) in enumerate(pivots):
        for earlier, (_, rr) in enumerate(pivots[:idx]):
            q = rr[c] // r[c]
            if q:
                for j in range(ncols):
                    rr[j] -= q * r[j]
    return basis

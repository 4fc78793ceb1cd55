import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

import orbinov
from orbinov.cli import resolve_document
from orbinov.complexes import (IntHomology, build_complex,
                               homology_of_matrices, integer_homology)
from orbinov.errors import ValidationError
from orbinov.laurent import LaurentPoly, WeightSystem
from orbinov.lmatrix import (WeightedLaurentMatrix, _divide, _eliminate_units,
                             _unit_cost)
from orbinov.snf import (eliminate_units, identity_matrix, mat_mul,
                         row_lattice_basis, smith_normal_form)
from orbinov.twisted import integralize, twisted_complex

from families import grid_class, torus_grid
from oracles import (gauss_rank, integer_kernel, minor_gcd_invariant_factors,
                     per_boundary_homology)
from test_lmatrix import EVAL_POINTS, _eval_rank, assert_pivot_pairs, rank_of


WS1 = WeightSystem([(1,)])


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_known_forms():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]).diagonal == [1, 0]
    assert smith_normal_form([], shape=(0, 3)).diagonal == []
    assert smith_normal_form([[], []], shape=(2, 0)).diagonal == []
    r = smith_normal_form([[6]])
    assert r.diagonal == [6] and r.rank == 1 and r.torsion() == [6]


def test_divisibility_chain_guard():
    with pytest.raises(ValidationError):
        from orbinov.snf import SNFResult
        SNFResult([2, 3], (2, 2))


def test_against_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A)
        nonzero = [d for d in res.diagonal if d]
        assert nonzero == minor_gcd_invariant_factors(A)
        assert res.rank == gauss_rank(A)


def test_transforms_are_inverse_pairs():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A, want_transforms=True)
        S, Si, T = res.transforms
        assert mat_mul(S, Si) == identity_matrix(m)
        # T is unimodular: all its invariant factors are 1
        assert smith_normal_form(T).diagonal == [1] * n
        # S*A*T is re-checked inside smith_normal_form already; spot check
        D = mat_mul(mat_mul(S, A), T)
        for i in range(m):
            for j in range(n):
                want = res.diagonal[i] if i == j else 0
                assert D[i][j] == want


def reduce_row(row, basis, ncols):
    row = list(row)
    for b in basis:
        c = next(j for j, x in enumerate(b) if x)
        if row[c] % b[c] == 0:
            q = row[c] // b[c]
            for j in range(ncols):
                row[j] -= q * b[j]
    return row


def test_row_lattice_basis_spans():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        rows = random_matrix(rng, m, n, bound=6)
        basis = row_lattice_basis(rows, n)
        # every generator reduces to zero against the echelon basis
        for r in rows:
            assert not any(reduce_row(r, basis, n))
        # basis rows are in the lattice: their own reduction is zero too
        again = row_lattice_basis(basis, n)
        assert again == basis
        # pivots positive, above-pivot entries reduced
        for i, b in enumerate(basis):
            c = next(j for j, x in enumerate(b) if x)
            assert b[c] > 0
            for earlier in basis[:i]:
                assert 0 <= earlier[c] < b[c]


def test_row_lattice_basis_known():
    assert row_lattice_basis([[7, 0], [-3, 1]], 2) == [[1, 2], [0, 7]]
    assert row_lattice_basis([[0, 0]], 2) == []
    assert row_lattice_basis([[2, 4], [4, 8]], 2) == [[2, 4]]


def test_transform_guard_survives_optimized_mode():
    # every H_1 presentation checks its Smith transforms; a product
    # that comes out wrong must still stop the command under -O.
    # periods is the command that presents H_1
    script = "\n".join([
        "import sys",
        "import orbinov.snf",
        "product = orbinov.snf.mat_mul",
        "orbinov.snf.mat_mul = lambda A, B: [[x + 1 for x in row]",
        "                                    for row in product(A, B)]",
        "from orbinov import cli",
        "sys.exit(cli.main(['periods', 'klein', '--class', 'dy']))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "transform bookkeeping broke" in proc.stderr


@pytest.mark.parametrize("call", [
    "smith_normal_form([[2, 0, 0], [0, 3]], shape=(2, 2))",
    "row_lattice_basis([[2, 4, 5], [4, 8]], 2)",
    "mat_mul([[1, 2], [3]], [[1], [1]])",
    "mat_mul([[1, 1]], [[1, 2], [3]])",
])
def test_shape_guards_survive_optimized_mode(call):
    # a ragged matrix must be refused under -O too, not read as a
    # matrix of another shape
    script = "\n".join([
        "import sys",
        "from orbinov.errors import ValidationError",
        "from orbinov.snf import mat_mul, row_lattice_basis, "
        "smith_normal_form",
        "try:",
        "    print(%s)" % (call,),
        "except ValidationError as err:",
        "    sys.exit(str(err))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert "shape" in proc.stderr or "entries" in proc.stderr


def cover_boundaries(name, cname, p):
    """Boundary matrices of the degree p cyclic cover of a corpus class:
    every cell lifted to p levels, offset by the lift's exponents."""
    lift = integralize(resolve_document(name).cochain(cname))
    X = lift.complex
    simplices = []
    for q in range(X.dim + 1):
        for cell in X.cells[q]:
            offsets = [0] + [lift.exponent(cell[0], v)[0] for v in cell[1:]]
            for level in range(p):
                simplices.append(tuple("%s@%d" % (v, (level + off) % p)
                                       for v, off in zip(cell, offsets)))
    cover = build_complex(simplices)
    return [cover.boundary_matrix(q) for q in range(1, cover.dim + 1)]


def signed_shuffle(rng, A):
    """A with rows and columns permuted and negated at random; the
    Smith form is unchanged, the pivot order is not."""
    rows = [[x * rng.choice((1, -1)) for x in r] for r in A]
    rng.shuffle(rows)
    cols = list(range(len(A[0])))
    rng.shuffle(cols)
    signs = [rng.choice((1, -1)) for _ in cols]
    return [[r[c] * s for c, s in zip(cols, signs)] for r in rows]


def check_against_sympy(A):
    m, n = len(A), len(A[0])
    res = smith_normal_form(A, want_transforms=True)
    ref = invariant_factors(DomainMatrix([[ZZ(x) for x in r] for r in A],
                                         (m, n), ZZ))
    assert [d for d in res.diagonal if d] == [abs(int(d)) for d in ref if d]
    assert res.rank == gauss_rank(A)
    S, _, T = res.transforms
    D = mat_mul(mat_mul(S, A), T)
    assert D == [[res.diagonal[i] if i == j else 0 for j in range(n)]
                 for i in range(m)]
    return res


# (document, class, cover degree); the largest matrix is 96 x 64
COVERS = [("circle", "dtheta", 7), ("torus7", "e1", 2), ("torus7", "e1", 4),
          ("klein", "dy", 2)]


@pytest.mark.parametrize("name,cname,p", COVERS)
def test_cover_boundaries_match_sympy(name, cname, p):
    rng = random.Random("%s/%s/%d" % (name, cname, p))
    for A in cover_boundaries(name, cname, p):
        A = signed_shuffle(rng, A)
        check_against_sympy(A)
        # every entry of k*A stays a multiple of k, so no pivot is a unit
        k = rng.choice((2, 3))
        res = check_against_sympy([[k * x for x in r] for r in A])
        assert all(d % k == 0 for d in res.diagonal)


def boundary_arg(A):
    """The sparse entries of a dense boundary, the form that
    homology_of_matrices takes."""
    return {(i, j): x for i, row in enumerate(A) for j, x in enumerate(row)
            if x}


def homology_from_full_boundaries(ncells, mats):
    """Betti and torsion numbers read off the dense Smith form of every
    full boundary, each checked against sympy; mats[q - 1] maps degree
    q to degree q - 1."""
    ranks = [0] * (len(ncells) + 1)
    torsion = [[] for _ in ncells]
    for q, A in enumerate(mats, start=1):
        if A and A[0]:
            res = check_against_sympy(A)
            ranks[q] = res.rank
            torsion[q - 1] = res.torsion()
    betti = [ncells[q] - ranks[q] - ranks[q + 1] for q in range(len(ncells))]
    return IntHomology(betti, torsion)


@pytest.mark.parametrize("name", ["rp2", "klein"])
def test_integer_homology_matches_full_boundary_snf(name):
    # both have 2-torsion, which no unit pivot can produce
    X = resolve_document(name).space
    mats = [X.boundary_matrix(q) for q in range(1, X.dim + 1)]
    ncells = [X.n_cells(q) for q in range(X.dim + 1)]
    want = homology_from_full_boundaries(ncells, mats)
    assert integer_homology(X) == want
    assert homology_of_matrices(
        ncells, [[]] + [boundary_arg(A) for A in mats]) == want


@pytest.mark.parametrize("name,cname,p", COVERS)
def test_scaled_cover_homology_matches_full_boundary_snf(name, cname, p):
    # scaling the rows of the first boundary, or the columns of the
    # last, by 2s and 3s keeps d o d zero and leaves no unit entry in
    # that degree, so its whole block is residual; the mixed factors
    # put units into the residual's Smith form
    rng = random.Random("scaled/%s/%s/%d" % (name, cname, p))
    mats = cover_boundaries(name, cname, p)
    ncells = [len(mats[0])] + [len(A[0]) for A in mats]
    if rng.random() < 0.5:
        mats[0] = [[k * x for x in r]
                   for r, k in zip(mats[0], rng.choices((2, 3), k=ncells[0]))]
    else:
        ks = rng.choices((2, 3), k=ncells[-1])
        mats[-1] = [[k * x for x, k in zip(r, ks)] for r in mats[-1]]
    want = homology_from_full_boundaries(ncells, mats)
    assert any(want.torsion)
    assert homology_of_matrices(
        ncells, [[]] + [boundary_arg(A) for A in mats]) == want


def seeded_chain_complex(rng):
    """Ranks and dense boundaries d_1, d_2, d_3 of a seeded integer chain
    complex: d_1 is random, and each later boundary's columns are
    integer combinations of kernel vectors of the one below, so that
    consecutive maps compose to zero; the coefficients 2 and 3 make
    torsion."""
    ncells = [rng.randint(2, 6), rng.randint(3, 9), rng.randint(2, 8),
              rng.randint(1, 4)]
    mats = [[[rng.choice((0, 0, 1, -1, 2)) for _ in range(ncells[1])]
             for _ in range(ncells[0])]]
    for q in (2, 3):
        kernel = integer_kernel(mats[-1], ncells[q - 1])
        cols = []
        for _ in range(ncells[q]):
            col = [0] * ncells[q - 1]
            for v in kernel:
                c = rng.choice((0, 0, 1, -1, 2, -2, 3))
                col = [a + c * b for a, b in zip(col, v)]
            cols.append(col)
        mats.append([list(row) for row in zip(*cols)])
    return ncells, mats


def test_reduced_complex_matches_per_boundary_reference(monkeypatch):
    # each boundary drops the rows its lower neighbour paired away; the
    # reference eliminates every boundary on its own, with all rows
    handed = []

    def recording(entries, unit_cost, divide):
        handed.append(len(entries))
        return eliminate_units(entries, unit_cost, divide)

    monkeypatch.setattr(orbinov.complexes, "eliminate_units", recording)
    rng = random.Random("reduced complex")
    with_torsion = dropped = 0
    for _ in range(300):
        ncells, mats = seeded_chain_complex(rng)
        boundaries = [{}] + [boundary_arg(A) for A in mats]
        del handed[:]
        got = homology_of_matrices(ncells, boundaries)
        assert got == per_boundary_homology(ncells, boundaries)
        with_torsion += any(got.torsion)
        dropped += handed[2] < len(boundaries[3])
    assert with_torsion > 200
    # d_3 lost rows in about a third of the complexes
    assert dropped > 90


def test_no_unit_entries_match_sympy():
    # dense matrices with no +-1 entry
    rng = random.Random(29)
    for _ in range(60):
        m, n = rng.randint(2, 10), rng.randint(2, 10)
        low = rng.choice((2, 3))
        A = [[rng.choice((0, 0, 1, -1)) * rng.randint(low, 9)
              for _ in range(n)] for _ in range(m)]
        A[rng.randrange(m)][rng.randrange(n)] = low
        check_against_sympy(A)


def short_column_elimination(entries, unit_cost, divide):
    """eliminate_units with a rescan of every live unit for the least
    (column length, cost, row, col) at each pivot, plus four counts:
    units that tied with the pivot in (length, cost) and lost on (row,
    col); updates that changed the price of a live entry, a unit
    turning into a non-unit or back included; columns holding a unit
    whose length changed between two pivots; and rows scaled by the
    pivot because divide returned None."""
    rows, in_col, costs = {}, {}, {}
    seen = {"ties": 0, "repriced": 0, "resized": 0, "scaled": 0}

    def track(i, j, a):
        cost = unit_cost(a)
        if cost is None:
            costs.pop((i, j), None)
        else:
            costs[(i, j)] = cost

    for (i, j), a in entries.items():
        rows.setdefault(i, {})[j] = a
        in_col.setdefault(j, set()).add(i)
        track(i, j, a)
    pairs = []
    lengths = {}
    while costs:
        keys = [(len(in_col[j]), c, i, j) for (i, j), c in costs.items()]
        low = min(keys)
        seen["ties"] += sum(key[:2] == low[:2] for key in keys) - 1
        now = {j: length for length, _, _, j in keys}
        seen["resized"] += sum(lengths.get(j, length) != length
                               for j, length in now.items())
        lengths = now
        _, _, pi, pj = low
        prow = rows.pop(pi)
        for j in prow:
            in_col[j].discard(pi)
            costs.pop((pi, j), None)
        pivot = prow.pop(pj)
        for i in in_col.pop(pj):
            row = rows[i]
            a = row.pop(pj)
            f = divide(a, pivot)
            costs.pop((i, pj), None)
            if f is None:
                # row := pivot * row - a * (pivot row)
                seen["scaled"] += 1
                f = a
                for j in row:
                    row[j] = pivot * row[j]
                    track(i, j, row[j])
            for j, b in prow.items():
                s = row[j] - f * b if j in row else -(f * b)
                if s and j in row:
                    seen["repriced"] += unit_cost(s) != unit_cost(row[j])
                if s:
                    row[j] = s
                    in_col[j].add(i)
                    track(i, j, s)
                else:
                    del row[j]
                    in_col[j].discard(i)
                    costs.pop((i, j), None)
        pairs.append((pi, pj))
    cols = sorted(j for j, live in in_col.items() if live)
    return (pairs, [rows[i] for i in sorted(rows) if rows[i]], cols), seen


def seeded_integer_entries():
    """80 seeded sparse integer matrices up to 12 x 12."""
    rng = random.Random(41)
    for _ in range(80):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        yield {(i, j): rng.choice((1, -1, 2, -2, 3, -3))
               for i in range(m) for j in range(n) if rng.random() < 0.3}


def small_fraction_cost(a):
    # over Q every entry is a unit; pivot only on small ones, priced
    # by size, so costs change as entries are updated
    a = Fraction(a)
    return abs(a.numerator) + a.denominator if abs(a.numerator) <= 3 else None


@pytest.mark.parametrize("unit_cost, divide", [
    (lambda a: 1 if a in (1, -1) else None, mul),
    (small_fraction_cost, lambda a, p: Fraction(a) / p),
])
def test_unit_elimination_keeps_the_short_column_pivot_order(unit_cost,
                                                            divide):
    ties = repriced = resized = 0
    for entries in seeded_integer_entries():
        want, seen = short_column_elimination(entries, unit_cost, divide)
        assert eliminate_units(entries, unit_cost, divide) == want
        assert_pivot_pairs(want[0])
        ties += seen["ties"]
        repriced += seen["repriced"]
        resized += seen["resized"]
    assert ties > 100
    assert repriced > 20
    assert resized > 100


def is_integer_unit(a):
    return 1 if a in (1, -1) else None


def test_scaling_by_a_unit_keeps_integer_pivots():
    # row := pivot * row - a * (pivot row) is the exact step times the
    # pivot, +-1, so the same entries are pivoted and every residual
    # row comes out the same up to sign
    scaled_rows = 0
    for entries in seeded_integer_entries():
        pairs, rows, cols = eliminate_units(entries, is_integer_unit, mul)
        got = eliminate_units(entries, is_integer_unit, lambda a, p: None)
        assert (got[0], got[2]) == (pairs, cols)
        assert len(got[1]) == len(rows)
        for row, want in zip(got[1], rows):
            assert row in (want, {j: -x for j, x in want.items()})
            scaled_rows += row != want
    assert scaled_rows > 20


def test_scaled_unit_elimination_keeps_the_short_column_pivot_order():
    # sparse entries of one to three terms at weight (1): a pivot +-T^e
    # divides exactly, any other unit scales the rows it clears, which
    # reprices their units outside the pivot row's columns too
    rng = random.Random(43)
    unit_cost = lambda p: _unit_cost(p, WS1)
    scaled = repriced = 0
    for _ in range(300):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        entries = {}
        for i in range(m):
            for j in range(n):
                p = LaurentPoly(1, {(rng.randint(-1, 1),):
                                    rng.choice((1, -1, 2))
                                    for _ in range(rng.randint(1, 3))})
                if p and rng.random() < 0.35:
                    entries[(i, j)] = p
        want, seen = short_column_elimination(entries, unit_cost, _divide)
        assert eliminate_units(entries, unit_cost, _divide) == want
        assert_pivot_pairs(want[0])
        scaled += seen["scaled"]
        repriced += seen["repriced"]
    assert scaled > 500
    assert repriced > 500


def dense_product(rng, n, k):
    """n x n Laurent matrix of rank k over the fraction field: the
    product of random n x k and k x n factors whose entries are a
    monomial with coefficient 1, -1 or 2, sometimes plus +-T^e."""
    def entry():
        p = LaurentPoly.monomial(1, (rng.randint(-1, 1),),
                                 rng.choice((1, -1, 2)))
        if rng.random() < 0.3:
            p = p + LaurentPoly.monomial(1, (rng.randint(-1, 1),),
                                         rng.choice((1, -1)))
        return p
    U = [[entry() for _ in range(k)] for _ in range(n)]
    V = [[entry() for _ in range(n)] for _ in range(k)]
    zero = LaurentPoly(1, {})
    entries = {}
    for i in range(n):
        for j in range(n):
            p = sum((U[i][t] * V[t][j] for t in range(k)), zero)
            if p:
                entries[(i, j)] = p
    return WeightedLaurentMatrix(WS1, n, n, entries)


def test_dense_laurent_matrices_keep_their_rank(monkeypatch):
    # dense entries at weight (1) make most unit pivots polynomials, so
    # most rows are scaled rather than divided; three of the five leave
    # a residual block, whose largest entry has 16 terms
    calls = []

    def counted(a, pivot):
        q = _divide(a, pivot)
        calls.append(q is None)
        return q

    monkeypatch.setattr(orbinov.lmatrix, "_divide", counted)
    rng = random.Random(48)
    largest = 0
    for _ in range(5):
        M = dense_product(rng, 12, 4)
        assert len(M.entries) >= 140
        assert rank_of(M) == max(_eval_rank(M, t) for t in EVAL_POINTS)
        _, residual = _eliminate_units(M)
        largest = max([largest] + [p.n_terms() for row in residual
                                   for p in row])
    assert sum(calls) > len(calls) / 2
    assert largest == 16


def divisions(entries, unit_cost, divide):
    """eliminate_units, plus the pivot of each divide call: one call
    per row update."""
    calls = []

    def counted(a, pivot):
        calls.append(pivot)
        return divide(a, pivot)

    return eliminate_units(entries, unit_cost, counted), calls


def test_short_columns_first_keep_grid_torus_fill_low():
    # d_2 of the 8 x 8 grid torus, twisted by dx and plain; the key is
    # exact, so every implementation of the order makes these updates
    X = torus_grid(8)
    M = twisted_complex(integralize(grid_class(X, 8))).boundary(2)
    (pairs, _, _), calls = divisions(
        M.entries, lambda p: _unit_cost(p, M.ws), _divide)
    assert (len(pairs), len(calls)) == (128, 331)
    assert_pivot_pairs(pairs)
    (pairs, _, _), calls = divisions(X.boundary_entries(2), is_integer_unit,
                                     mul)
    assert (len(pairs), len(calls)) == (127, 324)
    assert_pivot_pairs(pairs)


def test_free_face_is_pivoted_first_and_updates_no_row():
    # column 2 holds one entry, the last in (row, col) order; taken
    # first, it drops row 2, so the pivot at (0, 0) updates row 1 only
    entries = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): -1,
               (2, 2): -1}
    result, calls = divisions(entries, is_integer_unit, mul)
    assert result == ([(2, 2), (0, 0)], [{1: -2}], [1])
    assert calls == [1]


# 8 x 8, entries in [-9, 9] and no +-1 entry
DENSE_NO_UNITS = [[5, 0, 2, -3, 0, 0, -5, 6], [-8, 0, 0, -4, 7, 0, 0, -7],
                  [-2, -2, 8, 0, 0, 0, -7, 9], [2, -4, 0, 0, 5, -9, 8, 2],
                  [9, 0, 0, 0, 0, 0, -2, 5], [3, 0, 3, 0, 4, 6, -7, -9],
                  [0, 8, 8, 0, 0, 0, 0, 0], [0, 0, -5, -5, 0, 8, 0, 0]]


def test_dense_matrix_without_units_finishes():
    # the 8 x 8 matrix above, then 200 seeded 5 x 9 matrices with entries
    # +-2..9, a quarter of them zero, with and without transforms
    script = (
        "import random\n"
        "from orbinov.snf import smith_normal_form\n"
        "print(smith_normal_form(%r).diagonal)\n"
        "rng = random.Random(4)\n"
        "for _ in range(200):\n"
        "    A = [[0 if rng.random() < 0.25 else\n"
        "          rng.choice((-1, 1)) * rng.randint(2, 9)\n"
        "          for _ in range(9)] for _ in range(5)]\n"
        "    if (smith_normal_form(A).diagonal !=\n"
        "            smith_normal_form(A, want_transforms=True).diagonal):\n"
        "        raise SystemExit(A)\n"
        % (DENSE_NO_UNITS,))
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=3)
    except subprocess.TimeoutExpired:
        pytest.fail("smith_normal_form ran past 3 s on matrices without "
                    "unit entries")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 1, 1, 1, 1, 1, 1, 15641928]\n"

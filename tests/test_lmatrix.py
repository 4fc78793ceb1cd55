"""Rank and invariant factors of matrices over the weighted ring."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import orbinov
from orbinov import UnsupportedOperationError, lmatrix, smith_normal_form
from orbinov.laurent import LaurentPoly, WeightSystem, exact_divide
from orbinov.lmatrix import (WeightedLaurentMatrix, _eliminate_units,
                             _minor_gcd, fraction_field_rank,
                             invariant_factors)
from orbinov.localized import associates

from oracles import gauss_rank

WS0 = WeightSystem([])
WS1 = WeightSystem([(1,)])
WS2 = WeightSystem([(1, 0), (0, 1)])
WS1_NEG = WeightSystem([(-1,)])
WS1_TWO = WeightSystem([(2,)])


def T(power=1):
    return LaurentPoly.monomial(1, (power,))


def const(c, r=1):
    return LaurentPoly.const(r, c)


def mat(ws, rows):
    entries = {}
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            entries[(i, j)] = p
    return WeightedLaurentMatrix(ws, len(rows), len(rows[0]) if rows else 0,
                                 entries)


def assert_pivot_pairs(pairs):
    """The pivot-pair contract: no two pivots share a row or a column."""
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) \
        == len(pairs)


def rank_of(M):
    """fraction_field_rank's rank, once its pivot pairs pass the
    contract and number at most the rank."""
    rank, pairs = fraction_field_rank(M)
    assert_pivot_pairs(pairs)
    assert len(pairs) <= rank
    return rank


def int_mat(rows):
    return mat(WS0, [[const(c, 0) for c in row] for row in rows])


def _eval_rank(M, *point):
    """Rank after substituting rational values for the variables."""
    rows = []
    for i in range(M.nrows):
        row = []
        for j in range(M.ncols):
            p = M.entry(i, j)
            total = Fraction(0)
            for e, c in p.terms.items():
                term = Fraction(c)
                for t, k in zip(point, e):
                    term *= t ** k
                total += term
            row.append(total)
        rows.append(row)
    return gauss_rank(rows)


def _boundary_like(rng, ws, m, n, coeffs=(1, -1)):
    """Sparse matrix shaped like a twisted boundary: a few faces per
    column, entries c*T^e for c in coeffs, or a sum of two such
    monomials."""
    def monomial():
        exp = tuple(rng.randint(-1, 1) for _ in range(ws.r))
        return LaurentPoly.monomial(ws.r, exp, rng.choice(coeffs))

    entries = {}
    for j in range(n):
        for i in rng.sample(range(m), min(m, rng.randint(1, 3))):
            p = monomial()
            if rng.random() < 0.4:
                p = p + monomial()
            entries[(i, j)] = p
    return WeightedLaurentMatrix(ws, m, n, entries)


EVAL_POINTS = [Fraction(7, 3), Fraction(-11, 5), Fraction(13, 2),
               Fraction(-17, 7)]


def test_matrix_container():
    M = mat(WS1, [[T() - const(1), const(0)], [const(2), T()]])
    assert M.entry(0, 1) == LaurentPoly(1, {})
    assert len(M.entries) == 3
    assert M.transpose().entry(0, 1) == const(2)
    Mi = WeightedLaurentMatrix(WS0, 1, 1, {(0, 0): 5})
    assert Mi.entry(0, 0) == const(5, 0)


def test_rank_examples():
    assert rank_of(mat(WS1, [[T() - const(1), const(0)],
                             [const(0), const(2)]])) == 2
    # second row is (T - 1) times the first, so rank drops
    dep = mat(WS1, [[const(1), T()],
                    [T() - const(1), T(2) - T()]])
    assert rank_of(dep) == 1
    assert rank_of(mat(WS1, [[LaurentPoly(1, {})]])) == 0
    assert rank_of(WeightedLaurentMatrix(WS1, 0, 3, {})) == 0


def test_rank_rank_two_weights():
    t1 = LaurentPoly.monomial(2, (1, 0))
    t2 = LaurentPoly.monomial(2, (0, 1))
    one = const(1, 2)
    M = mat(WS2, [[t1 - one, t2 - one], [t2 - one, t1 - one]])
    assert rank_of(M) == 2
    N = mat(WS2, [[t1, t2], [t1, t2]])
    assert rank_of(N) == 1


def test_rank_random_against_evaluation():
    rng = random.Random(52)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                terms = {(rng.randint(-2, 2),): rng.randint(-3, 3)
                         for _ in range(rng.randint(0, 2))}
                row.append(LaurentPoly(1, terms))
            rows.append(row)
        M = mat(WS1, rows)
        got = rank_of(M)
        # evaluation can only lose rank, and generic points lose none
        samples = [_eval_rank(M, Fraction(p, q))
                   for p, q in [(7, 3), (-11, 5), (13, 2)]]
        assert got == max(samples)
        assert all(s <= got for s in samples)


def test_invariant_factors_unit_and_torsion():
    M = mat(WS1, [[T() - const(1), const(0)], [const(0), const(2)]])
    inv = invariant_factors(M)
    assert inv.rank == 2
    assert inv.nonunit_count == 1
    assert inv.factors[0] == const(1)
    assert associates(inv.factors[1], const(2), WS1)
    assert inv.nonunit_factors() == [const(2)]


def test_invariant_factors_all_units():
    M = mat(WS1, [[T() - const(1), const(2)],
                  [const(0), T() - const(1)]])
    inv = invariant_factors(M)
    assert inv.rank == 2 and inv.nonunit_count == 0


def test_invariant_factors_zero_and_empty():
    Z = mat(WS1, [[LaurentPoly(1, {}), LaurentPoly(1, {})]])
    inv = invariant_factors(Z)
    assert inv.rank == 0 and inv.factors == []
    E = WeightedLaurentMatrix(WS1, 0, 2, {})
    assert invariant_factors(E).rank == 0


def test_invariant_factors_no_units_anywhere():
    # entries 2 and 2T: no unit leading coefficients, stage one idles
    inv = invariant_factors(mat(WS1, [[const(2), T() * 2],
                                      [T() * 2, const(2)]]))
    assert inv.rank == 2
    assert inv.nonunit_count == 2
    assert associates(inv.factors[0], const(2), WS1)
    assert associates(inv.factors[1], (T(2) - const(1)) * 2, WS1)


def test_invariant_factors_denominator_clearing():
    M = mat(WS1, [[T() - const(1), const(2), const(0)],
                  [const(4), const(2), const(0)],
                  [const(0), const(0), const(2)]])
    inv = invariant_factors(M)
    assert inv.rank == 3
    assert inv.nonunit_count == 2
    assert inv.factors[0] == const(1)
    assert associates(inv.factors[1], const(2), WS1)
    assert associates(inv.factors[2], (T() - const(5)) * 2, WS1)


def test_invariant_factors_mixed_units_from_division():
    # the unit pivot T - 1 scales the other row, and the residual entry
    # T*T - 7, the exact (T*T - 7)/(T - 1) times T - 1, is again a unit
    M = mat(WS1, [[T() - const(1), const(2)], [const(3), T() + const(1)]])
    inv = invariant_factors(M)
    assert inv.rank == 2 and inv.nonunit_count == 0


def test_invariant_factors_match_snf_rank_zero():
    rng = random.Random(9090)
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        inv = invariant_factors(int_mat(rows))
        assert_pivot_pairs(inv.pairs)
        assert len(inv.pairs) <= inv.rank - inv.nonunit_count
        snf = smith_normal_form(rows)
        expected = [d for d in snf.diagonal if d != 0]
        assert inv.rank == len(expected)
        assert rank_of(int_mat(rows)) == len(expected)
        got = [abs(p.terms.get((), 0)) for p in inv.factors]
        assert got == expected
        assert inv.nonunit_count == sum(1 for d in expected if d > 1)


def test_invariant_factors_rank_two_weights():
    t1 = LaurentPoly.monomial(2, (1, 0))
    t2 = LaurentPoly.monomial(2, (0, 1))
    one = const(1, 2)
    M = mat(WS2, [[t1 - one, const(0, 2)], [const(0, 2), t2 - one]])
    inv = invariant_factors(M)
    assert inv.rank == 2 and inv.nonunit_count == 0
    with pytest.raises(UnsupportedOperationError):
        invariant_factors(mat(WS2, [[const(2, 2)]]))


def test_minor_cap_refusal(monkeypatch):
    rows = [[const(2, 0) if i == j else const(0, 0) for j in range(9)]
            for i in range(9)]
    with pytest.raises(UnsupportedOperationError,
                       match="residual block is 9 x 9; .* capped at 8"):
        invariant_factors(mat(WS0, rows))
    monkeypatch.setattr(lmatrix, "MINOR_CAP", 9)
    inv = invariant_factors(mat(WS0, rows))
    assert inv.rank == 9 and inv.nonunit_count == 9


def test_elimination_differential_rank_one():
    rng = random.Random(2024)
    for _ in range(40):
        M = _boundary_like(rng, WS1, rng.randint(1, 12), rng.randint(1, 12))
        rank = rank_of(M)
        samples = [_eval_rank(M, t) for t in EVAL_POINTS]
        assert rank == max(samples)
        assert invariant_factors(M).rank == rank


def test_elimination_differential_rank_two():
    rng = random.Random(2025)
    pairs = list(zip(EVAL_POINTS, reversed(EVAL_POINTS)))
    for _ in range(40):
        M = _boundary_like(rng, WS2, rng.randint(1, 10), rng.randint(1, 10))
        rank = rank_of(M)
        assert rank == max(_eval_rank(M, s, t) for s, t in pairs)


def test_residual_with_denominators():
    # the unit pivot T - 1 is no monomial, so it scales the rows it
    # clears: the 3 x 3 residual is the exact one times T - 1, without
    # its denominators; the last row is the sum of the two before it
    rows = [[T() - const(1), const(2), const(2), const(0)],
            [const(4), const(2), const(0), const(2)],
            [const(4), const(0), const(2), const(2)],
            [const(8), const(2), const(2), const(4)]]
    M = mat(WS1, rows)
    pairs, residual = _eliminate_units(M)
    assert pairs == [(0, 0)] and len(residual) == 3
    # (2 - 8/(T-1), -8/(T-1), 2) times T - 1
    assert residual[0] == [T() * 2 - const(10), const(-8),
                           T() * 2 - const(2)]
    assert rank_of(M) == 3
    assert max(_eval_rank(M, t) for t in EVAL_POINTS) == 3
    inv = invariant_factors(M)
    # modulo 2 only the pivot survives, so two factors are even
    assert inv.rank == 3 and inv.nonunit_count == 2
    assert all(associates(d, const(2), WS1) for d in inv.nonunit_factors())


def test_zero_rows_do_not_count_toward_minor_cap():
    # nine rows, only two of them nonzero: the residual is 2 x 9
    rows = [[const(2, 0) if i < 2 and j % 2 == i else const(0, 0)
             for j in range(9)] for i in range(9)]
    inv = invariant_factors(mat(WS0, rows))
    assert inv.rank == 2 and inv.nonunit_count == 2


@pytest.mark.parametrize("ws", [WS0, WS1, WS1_NEG, WS1_TWO],
                         ids=["r0", "r1", "r1neg", "r1two"])
def test_invariant_factors_match_determinantal_divisors(ws):
    # an oracle with no elimination: the gcd of all i x i minors of the
    # whole matrix is the product of the first i invariant factors, up
    # to units of the localized ring
    rng = random.Random("divisors %s" % (ws.weights,))
    torsion = 0
    for _ in range(60):
        M = _boundary_like(rng, ws, rng.randint(1, 5), rng.randint(1, 5),
                           coeffs=(1, -1, 2))
        dense = [[M.entry(i, j) for j in range(M.ncols)]
                 for i in range(M.nrows)]
        want, prev = [], ws.one
        for size in range(1, min(M.nrows, M.ncols) + 1):
            delta = _minor_gcd(dense, size, ws)
            if not delta:
                break
            want.append(exact_divide(delta, prev))
            prev = delta
        inv = invariant_factors(M)
        assert_pivot_pairs(inv.pairs)
        assert len(inv.pairs) <= inv.rank - inv.nonunit_count
        assert inv.rank == len(want)
        assert inv.nonunit_count == sum(not ws.is_unit_poly(d) for d in want)
        assert all(associates(x, y, ws) for x, y in zip(inv.factors, want))
        torsion += inv.nonunit_count > 0
    assert torsion >= 15


def test_monomial_pivots_divide_exactly():
    # a pivot +-T^e is a unit of the Laurent ring: the quotient is a
    # shift, and at e = 0 the entry itself or its negative; any other
    # unit leaves the row to be scaled
    a = T(2) - const(3)
    assert lmatrix._divide(a, T(-1)) == T(3) - T() * 3
    assert lmatrix._divide(a, -T(2)) == const(-1) + T(-2) * 3
    assert lmatrix._divide(a, const(1)) is a
    assert lmatrix._divide(a, const(-1)) == -a
    assert lmatrix._divide(a, T() - const(1)) is None
    x, y = LaurentPoly.monomial(2, (1, 0)), LaurentPoly.monomial(2, (0, 1))
    assert lmatrix._divide(x + y, -(x * y)) == LaurentPoly(
        2, {(-1, 0): -1, (0, -1): -1})


@pytest.mark.parametrize("ws", [WS0, WS1, WS2], ids=["r0", "r1", "r2"])
def test_unit_cost_matches_the_weight_scan(ws):
    # a monomial is priced from its coefficient alone; every price must
    # be the weight scan's
    rng = random.Random(5050 + ws.r)
    polys = []
    for _ in range(20):
        polys.extend(_boundary_like(rng, ws, 4, 4).entries.values())
    for _ in range(20):
        exp = tuple(rng.randint(-2, 2) for _ in range(ws.r))
        polys.append(LaurentPoly.monomial(ws.r, exp,
                                          rng.choice((2, -2, 3, -3))))
    prices = set()
    for p in polys:
        want = p.n_terms() if ws.is_unit_poly(p) else None
        assert lmatrix._unit_cost(p, ws) == want
        prices.add(want)
    assert prices == ({1, None} if ws.r == 0 else {1, 2, None})


def test_entry_rank_guard_survives_optimized_mode():
    # an entry in the wrong number of variables must be refused under -O
    # too, not stored in a matrix over another ring
    script = "\n".join([
        "import sys",
        "from orbinov.errors import ValidationError",
        "from orbinov.laurent import LaurentPoly, WeightSystem",
        "from orbinov.lmatrix import WeightedLaurentMatrix",
        "try:",
        "    WeightedLaurentMatrix(WeightSystem([(1,)]), 1, 1,",
        "                          {(0, 0): LaurentPoly(2, {(1, 0): 1})})",
        "except ValidationError as err:",
        "    sys.exit(str(err))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "in 2 variables" in proc.stderr

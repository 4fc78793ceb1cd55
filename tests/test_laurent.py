"""Laurent polynomial arithmetic, weight systems, exact division."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import orbinov
from orbinov import ValidationError, laurent
from orbinov.laurent import LaurentPoly, WeightSystem, divides, exact_divide

from oracles import gauss_rank


def T(r=1, coord=0, power=1):
    exp = [0] * r
    exp[coord] = power
    return LaurentPoly.monomial(r, tuple(exp))


def const(c, r=1):
    return LaurentPoly.const(r, c)


def test_term_cleanup_and_eq():
    p = LaurentPoly(1, {(1,): 2, (0,): 0, (2,): -1})
    assert p.terms == {(1,): 2, (2,): -1}
    q = LaurentPoly(1, [((1,), 1), ((1,), 1), ((2,), -1)])
    assert p == q
    assert hash(p) == hash(q)
    assert not LaurentPoly.const(3, 0)


def test_arithmetic():
    t = T()
    p = t * t - const(1)
    assert p == LaurentPoly(1, {(2,): 1, (0,): -1})
    assert p * const(0) == LaurentPoly(1, {})
    assert (t - const(1)) * (t + const(1)) == p
    assert p - p == LaurentPoly(1, {})
    assert -p == const(1) - t * t
    assert p * 3 == p + p + p


def test_negative_exponents_and_shift():
    tinv = LaurentPoly.monomial(1, (-1,))
    assert tinv * T() == const(1)
    p = T() + const(1)
    assert p.shift((-1,)) == const(1) + tinv
    lows, highs = p.shift((-1,)).exp_bounds()
    assert tuple(lows) == (-1,) and tuple(highs) == (0,)


def test_content():
    assert (const(4) + T() * 6).content() == 2
    assert const(-3).content() == 3


def test_weight_system_validation():
    WeightSystem([(1,)])
    WeightSystem([(Fraction(1, 3), 0), (0, 1)])
    with pytest.raises(ValidationError):
        WeightSystem([(1, 0), (2, 0)])
    with pytest.raises(ValidationError):
        WeightSystem([(1,), (0, 1)])
    ws0 = WeightSystem([])
    assert ws0.r == 0 and ws0.k == 1


def test_leading_and_units():
    ws = WeightSystem([(1,)])
    p = T() - const(1)
    assert ws.leading(p) == ((1,), 1)
    assert ws.is_unit_poly(p)
    assert ws.is_unit_poly(T() + const(1))
    assert ws.is_unit_poly(T() - const(2))
    assert not ws.is_unit_poly(T() * 2 - const(1))
    assert not ws.is_unit_poly(const(2))
    assert not ws.is_unit_poly(LaurentPoly(1, {}))
    assert ws.in_mult_set(p)
    assert not ws.in_mult_set(-p)
    # a negative weight flips which end is leading
    wsn = WeightSystem([(-1,)])
    assert wsn.leading(p) == ((0,), -1)
    assert not wsn.in_mult_set(p)
    assert wsn.in_mult_set(-p)


def test_leading_rank_two():
    ws = WeightSystem([(1, 0), (0, 1)])
    p = LaurentPoly(2, {(1, 0): 3, (0, 1): -1})
    # lex on weight vectors: (1,0) beats (0,1)
    assert ws.leading(p) == ((1, 0), 3)
    assert not ws.is_unit_poly(p)
    q = LaurentPoly(2, {(1, 0): 1, (0, 1): -2})
    assert ws.leading(q) == ((1, 0), 1)
    assert ws.is_unit_poly(q) and ws.in_mult_set(q)


def test_leading_weight_order_is_lex():
    ws = WeightSystem([(1, 1), (1, -1)])
    # weight of (1,1) is (2,0); weight of (2,0) is (2,2); lex picks (2,2)
    p = LaurentPoly(2, {(1, 1): 1, (2, 0): 1})
    assert ws.leading(p)[0] == (2, 0)
    q = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    # weights (1,1) and (1,-1): first slots tie, second decides
    assert ws.leading(q)[0] == (1, 0)


def test_exact_divide_basics():
    t = T()
    assert exact_divide(t * t - const(1), t - const(1)) == t + const(1)
    assert exact_divide(t * t - const(1), t + const(1)) == t - const(1)
    assert exact_divide(t, t + const(1)) is None
    assert exact_divide(const(6), const(3)) == const(2)
    assert exact_divide(const(3), const(6)) is None
    assert exact_divide(LaurentPoly(1, {}), t) == LaurentPoly(1, {})
    with pytest.raises(ValidationError):
        exact_divide(t, LaurentPoly(1, {}))
    assert divides(t - const(1), t * t - const(1))
    assert not divides(const(2), t + const(1))


def test_exact_divide_laurent_shift():
    tinv = LaurentPoly.monomial(1, (-1,))
    f = const(1) - tinv
    g = T() - const(1)
    q = exact_divide(f, g)
    assert q == tinv and q * g == f


def _random_poly(rng, r, max_terms=4, span=3, coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-span, span) for _ in range(r))
        terms[exp] = rng.randint(-coeff, coeff)
    p = LaurentPoly(r, terms)
    return p if p else const(1, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_exact_divide_recovers_factor(r):
    rng = random.Random(1000 + r)
    for _ in range(120):
        f = _random_poly(rng, r)
        g = _random_poly(rng, r)
        h = f * g
        q = exact_divide(h, g)
        assert q is not None
        assert q * g == h
        # quotient is unique in a domain, so it must be f itself
        assert q == f


@pytest.mark.parametrize("r", [1, 2])
def test_exact_divide_rejects_nonmultiples(r):
    rng = random.Random(77 + r)
    for _ in range(150):
        f = _random_poly(rng, r)
        g = _random_poly(rng, r)
        q = exact_divide(f, g)
        if q is not None:
            assert q * g == f


def _assert_clean(x):
    assert 0 not in x.terms.values()
    assert x == LaurentPoly(x.r, dict(x.terms))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_ring_results_are_clean(r):
    # coefficients in -2..2 on a small support make cancellations common
    rng = random.Random(500 + r)
    for _ in range(150):
        a = _random_poly(rng, r, max_terms=5, span=1, coeff=2)
        b = _random_poly(rng, r, max_terms=5, span=1, coeff=2)
        k = rng.randint(-2, 2)
        exp = tuple(rng.randint(-3, 3) for _ in range(r))
        pairs_a, pairs_b = list(a.terms.items()), list(b.terms.items())
        cases = [
            (a + b, pairs_a + pairs_b),
            (a - b, pairs_a + [(e, -c) for e, c in pairs_b]),
            (-a, [(e, -c) for e, c in pairs_a]),
            (a * b, [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                     for e1, c1 in pairs_a for e2, c2 in pairs_b]),
            (a * k, [(e, c * k) for e, c in pairs_a]),
            (k * a, [(e, c * k) for e, c in pairs_a]),
            (a.shift(exp), [(tuple(x + y for x, y in zip(e, exp)), c)
                            for e, c in pairs_a]),
        ]
        for got, pairs in cases:
            _assert_clean(got)
            assert got == LaurentPoly(r, pairs)


def test_shift_checks_exponent_length():
    p = T(2) + const(1, 2)
    with pytest.raises(ValidationError):
        p.shift((1,))
    with pytest.raises(ValidationError):
        p.shift((1, 0, 0))
    with pytest.raises(ValidationError):
        LaurentPoly(2, {}).shift((1,))


@pytest.mark.parametrize("weights", [[(1,)], [(-1,)], [(1, 0), (0, 1)],
                                     [(1, 1), (1, -1)],
                                     [(Fraction(1, 3), 0), (0, 1)]])
def test_memoized_leading_matches_fresh_system(weights):
    r = len(weights)
    rng = random.Random(str(weights))
    ws = WeightSystem(weights)
    for _ in range(100):
        p = _random_poly(rng, r, max_terms=5, span=2)
        # the second call on ws reads every weight from its memo
        assert ws.leading(p) == WeightSystem(weights).leading(p)
        assert ws.leading(p) == WeightSystem(weights).leading(p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weight_system_accepts_exactly_independent_rows(k):
    rng = random.Random(100 + k)
    accepted = refused = 0
    for _ in range(150):
        rows = []
        for _ in range(rng.randint(1, k + 1)):
            kind = rng.choice(["fresh", "fresh", "zero", "repeat",
                               "multiple"] if rows else ["fresh", "zero"])
            if kind == "fresh":
                rows.append(tuple(Fraction(rng.randint(-4, 4),
                                           rng.randint(1, 3))
                                  for _ in range(k)))
            elif kind == "zero":
                rows.append((Fraction(0),) * k)
            elif kind == "repeat":
                rows.append(rng.choice(rows))
            else:
                scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                rows.append(tuple(scale * x for x in rng.choice(rows)))
        if gauss_rank(rows) == len(rows):
            assert WeightSystem(rows).r == len(rows)
            accepted += 1
        else:
            with pytest.raises(ValidationError, match="Z-dependent"):
                WeightSystem(rows)
            refused += 1
    assert accepted and refused


def test_shared_weight_still_raises(monkeypatch):
    # a validated system never has two monomials of one weight, so the
    # independence check is bypassed to reach the guard
    monkeypatch.setattr(laurent, "row_lattice_basis",
                        lambda rows, ncols: rows)
    ws = WeightSystem([(1,), (2,)])
    assert ws.leading(T(2, 1)) == ((0, 1), 1)
    tie = LaurentPoly(2, {(2, 0): 1, (0, 1): 1})
    for system in (ws, WeightSystem([(1,), (2,)])):
        with pytest.raises(ValidationError, match="share a weight"):
            system.leading(tie)


def _fraction_leading(weights, poly):
    """Leading term under exact Fraction weight vectors, compared
    lexicographically: the order the int weight keys must keep."""
    rows = [tuple(Fraction(x) for x in w) for w in weights]
    k = len(rows[0])

    def weight(exp):
        return tuple(sum((e * w[i] for e, w in zip(exp, rows)), Fraction(0))
                     for i in range(k))

    best = max(poly.terms, key=weight)
    return best, poly.terms[best]


WEIGHT_POOL = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 6), Fraction(-1),
               Fraction(2), Fraction(0), Fraction(-5, 4)]


@pytest.mark.parametrize("k", [1, 2])
def test_int_weight_keys_match_fraction_order(k):
    # rows with different denominators: scaling each row by its own lcm
    # would reweigh the variables against each other
    rng = random.Random(600 + k)
    systems = [[(Fraction(1, 3),)], [(Fraction(-2, 5),)]] if k == 1 else [
        [(Fraction(1, 3), Fraction(-2, 5)), (Fraction(7, 6), Fraction(-1))],
        [(Fraction(7, 6), 0), (Fraction(-2, 5), Fraction(1, 3))]]
    while len(systems) < 30:
        r = rng.randint(1, k)
        weights = [tuple(rng.choice(WEIGHT_POOL) for _ in range(k))
                   for _ in range(r)]
        try:
            WeightSystem(weights)
        except ValidationError:
            continue    # Z-dependent rows
        systems.append(weights)
    for weights in systems:
        ws = WeightSystem(weights)
        for _ in range(30):
            p = _random_poly(rng, ws.r, max_terms=5, span=3)
            assert ws.leading(p) == _fraction_leading(weights, p)
            assert all(type(x) is int
                       for exp in p.terms for x in ws.weight_vec(exp))


def test_rank_guards_survive_optimized_mode():
    # mixing rings must be refused under -O too, not computed on
    # truncated or mixed-length exponents
    calls = [
        "LaurentPoly(1, {(1,): 1}) + LaurentPoly(2, {(0, 0): 1})",
        "LaurentPoly(1, {(1,): 1}) * LaurentPoly(2, {(0, 1): 1})",
        "WeightSystem([(1,)]).leading(LaurentPoly(2, {(0, 1): 1}))",
        "exact_divide(LaurentPoly(2, {(1, 1): 1}), LaurentPoly(1, {(1,): 1}))",
        "exact_divide(LaurentPoly(2, {}), LaurentPoly(1, {(1,): 1}))",
    ]
    script = "\n".join([
        "from orbinov.errors import ValidationError",
        "from orbinov.laurent import LaurentPoly, WeightSystem, exact_divide",
        "for call in %r:" % (calls,),
        "    try:",
        "        eval(call)",
        "    except ValidationError:",
        "        print('refused')",
        "    else:",
        "        print('accepted', call)",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == ["refused"] * len(calls), \
        proc.stdout + proc.stderr

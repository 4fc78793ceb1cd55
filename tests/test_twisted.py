"""Integral lifts, twisted boundaries, Novikov numbers, cover oracle."""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import orbinov
from orbinov import twisted
from orbinov.actions import quotient_complex
from orbinov.cli import corpus_names, resolve_document
from orbinov.cochains import (PeriodSpace, RationalCochain1, coboundary0,
                              descend_cochain)
from orbinov.complexes import (IntHomology, build_complex,
                               dual_forest_reduction, euler_characteristic,
                               forest_pairs, homology_of_matrices,
                               integer_homology, sparse_product_is_zero)
from orbinov.errors import (DocumentError, UnsupportedOperationError,
                            ValidationError)
from orbinov.inequalities import CriticalData, check_inequalities
from orbinov.laurent import LaurentPoly, WeightSystem
from orbinov.lmatrix import WeightedLaurentMatrix
from orbinov.periods import (H1Presentation, gamma_basis, is_integral,
                             period_homomorphism)
from orbinov.twisted import (IntegralLift, _block_substitution,
                             _explicit_cover, _monomial_product_is_zero,
                             _novikov_of_lift, cyclic_cover_oracle,
                             integralize, novikov_numbers, rank1_perturb,
                             twisted_complex)

from families import (ALPHA, circle, circle_dtheta, genus_class,
                      grid_class, klein_grid, rp2, torus3_grid, torus_grid,
                      z2_grid_actions)
from oracles import (forest_pairs_oracle, per_boundary_homology,
                     per_boundary_novikov,
                     reference_block_substitution_homology,
                     reference_explicit_cover_homology,
                     reference_top_reduction, specialization_betti)

F = Fraction


def fig8():
    return build_complex([("a", "b"), ("b", "c"), ("a", "c"),
                          ("a", "d"), ("d", "e"), ("a", "e")])


def fig8_class(X, left=1, right=0):
    """Periods left on the loop a-b-c-a and right on a-d-e-a."""
    values = {}
    if left:
        values[("a", "b")] = F(left)
    if right:
        values[("a", "d")] = F(right)
    return RationalCochain1(X, values)


def test_integralize_circle():
    X = circle()
    lift = integralize(circle_dtheta(X))
    assert lift.rank == 1
    assert lift.basis == [(F(1),)]
    # gauge forest kills the two edges at the root; the off-tree edge
    # carries the whole period
    assert lift.exponents == {("b", "c"): (1,)}
    assert lift.exponent("c", "b") == (-1,)
    assert lift.exponent("a", "b") == (0,)
    assert lift.exponent("b", "b") == (0,)
    path = build_complex([("a", "b"), ("b", "c")])
    with pytest.raises(ValidationError):
        integralize(RationalCochain1(path, {})).exponent("a", "c")
    with pytest.raises(DocumentError):
        lift.exponent("a", "nope")


def test_integralize_exact_class_is_empty():
    X = circle()
    pot = {"a": F(0), "b": F(1, 5), "c": F(-2, 5)}
    lift = integralize(coboundary0(X, pot))
    assert lift.rank == 0 and lift.exponents == {}


def test_twisted_boundary_circle_entries():
    X = circle()
    tc = twisted_complex(integralize(circle_dtheta(X)))
    M = tc.boundary(1)
    assert M.nrows == 3 and M.ncols == 3
    t = LaurentPoly.monomial(1, (1,))
    one = LaurentPoly.const(1, 1)
    cols = {}
    for j, e in enumerate(X.cells[1]):
        cols[e] = {i: M.entry(i, j) for i in range(3) if M.entry(i, j)}
    iv = {v: i for i, v in enumerate(X.vertices)}
    # tree edges carry plain units, the off-tree edge carries the twist
    total = one
    for (u, v), col in cols.items():
        assert col[iv[u]] == -one
        head = col[iv[v]]
        total = total * head
    assert total == t  # exponents along the loop multiply to T**1


def test_novikov_circle_angle_class():
    nv = novikov_numbers(circle_dtheta(circle()))
    assert nv.route == "rank-one" and nv.rank == 1
    assert nv.betti == [0, 0]
    assert nv.torsion == [0, 0]
    assert nv.euler() == 0


def test_novikov_zero_class_is_integer_homology():
    X = circle()
    nv = novikov_numbers(RationalCochain1(X, {}))
    assert nv.route == "integral" and nv.rank == 0
    ih = integer_homology(X)
    assert nv.betti == list(ih.betti)
    assert nv.torsion == [0, 0]


def test_novikov_figure_eight():
    X = fig8()
    nv = novikov_numbers(fig8_class(X, 1, 0))
    assert nv.betti == [0, 1] and nv.torsion == [0, 0]
    nv2 = novikov_numbers(fig8_class(X, 0, 1))
    assert nv2.betti == [0, 1]
    nv3 = novikov_numbers(fig8_class(X, 1, 1))
    assert nv3.betti == [0, 1]
    assert nv.euler() == -1 == nv3.euler()


def test_novikov_torus_dx():
    X = torus_grid(4)
    nv = novikov_numbers(grid_class(X, 4))
    assert nv.route == "rank-one"
    assert nv.betti == [0, 0, 0]
    assert nv.torsion == [0, 0, 0]


def test_novikov_scale_and_gauge_invariance():
    X = fig8()
    base = fig8_class(X, 1, 0)
    ref = novikov_numbers(base)
    rng = random.Random(31)
    for m in (2, 3, 7):
        nv = novikov_numbers(base.scale(F(m)))
        assert nv.betti == ref.betti and nv.torsion == ref.torsion
    for _ in range(5):
        pot = {v: F(rng.randint(-20, 20), rng.randint(1, 9))
               for v in X.vertices}
        nv = novikov_numbers(base.add(coboundary0(X, pot)))
        assert nv.betti == ref.betti and nv.torsion == ref.torsion


def test_rank_two_class_goes_betti_only():
    X = torus_grid(3)
    space = PeriodSpace(("alpha",), {"alpha": F(141421356, 10 ** 8)})
    dx = grid_class(X, 3)
    dy = grid_class(X, 3, (0,), (1,))
    values = {}
    for e in X.cells[1]:
        vec = (dx.value(*e)[0], dy.value(*e)[0])
        if any(vec):
            values[e] = vec
    om = RationalCochain1(X, values, space)
    nv = novikov_numbers(om)
    assert nv.route == "betti-only" and nv.rank == 2
    assert nv.betti == [0, 0, 0]
    assert nv.torsion is None
    assert nv.note is not None


def test_rank1_perturb_rank_two_to_one():
    X = torus_grid(3)
    space = PeriodSpace(("alpha",), {"alpha": F(141421356, 10 ** 8)})
    dx = grid_class(X, 3)
    dy = grid_class(X, 3, (0,), (1,))
    values = {}
    for e in X.cells[1]:
        vec = (dx.value(*e)[0], dy.value(*e)[0])
        if any(vec):
            values[e] = vec
    om = RationalCochain1(X, values, space)
    flat = rank1_perturb(om, precision=6)
    assert flat.space.k == 1
    nv = novikov_numbers(flat)
    assert nv.route == "rank-one"
    assert nv.betti == [0, 0, 0] and nv.torsion == [0, 0, 0]


def test_rank1_perturb_edge_cases():
    X = circle()
    om = circle_dtheta(X)
    assert rank1_perturb(om) is om
    with pytest.raises(ValidationError):
        rank1_perturb(RationalCochain1(X, {}))
    space = PeriodSpace(("beta",), {"beta": F(0)})
    values = {("a", "b"): (F(0), F(1))}
    om2 = RationalCochain1(X, values, space)
    with pytest.raises(ValidationError):
        rank1_perturb(om2)  # the shadow collapses the class to zero


def test_cyclic_cover_circle():
    X = circle()
    om = circle_dtheta(X)
    for p in (2, 3, 5):
        chk = cyclic_cover_oracle(integralize(om), p)
        assert chk.consistent
        assert chk.explicit == IntHomology([1, 1], [[], []])


def test_cyclic_cover_torus():
    X = torus_grid(4)
    chk = cyclic_cover_oracle(integralize(grid_class(X, 4)), 2)
    assert chk.consistent
    assert chk.explicit.betti == [1, 2, 1]
    assert chk.explicit.torsion == [[], [], []]


SURFACES = {"torus": IntHomology([1, 2, 1], [[], [], []]),
            "klein": IntHomology([1, 1, 0], [[], [2], []])}


# the cyclic covers of a torus along dx are tori; along dy the Klein
# bottle's cover has monodromy reflection^p
@pytest.mark.parametrize("surface,n,p,cover", [
    ("torus", 8, 3, "torus"), ("torus", 8, 5, "torus"),
    ("torus", 12, 3, "torus"), ("torus", 12, 5, "torus"),
    ("klein", 8, 2, "torus"), ("klein", 8, 3, "klein")])
def test_cyclic_cover_on_grids(surface, n, p, cover):
    if surface == "torus":
        om = grid_class(torus_grid(n), n)
    else:
        om = grid_class(klein_grid(n), n, (0,), (1,))
    chk = cyclic_cover_oracle(integralize(om), p)
    assert chk.consistent
    assert chk.explicit == SURFACES[cover]


def rank_one_lifts():
    """Every rank-one corpus class on its document's space and, for an
    orbifold document, descended to the orbit space as validate takes
    it; then dx and dy on the grid torus and dy on the Klein grid at
    n = 3, 4."""
    for name in corpus_names():
        doc = resolve_document(name)
        qres = doc.action and quotient_complex(doc.action)
        for cname in doc.cocycle_names():
            lifts = [integralize(doc.cochain(cname))]
            if qres:
                lifts.append(integralize(descend_cochain(
                    qres, doc.cochain(cname))))
            yield from (lift for lift in lifts if lift.rank == 1)
    for n in (3, 4):
        yield integralize(grid_class(torus_grid(n), n))
        yield integralize(grid_class(torus_grid(n), n, (0,), (1,)))
        yield integralize(grid_class(klein_grid(n), n, (0,), (1,)))


def test_block_boundaries_are_the_explicit_cover_boundaries():
    # both are indexed cell by level, so the twisted boundary at T = the
    # p by p shift is the cover's own, entry for entry: on every
    # rank-one lift, on grids up to n = 16 and under gauge shifts, which
    # put exponents on tree edges too
    rng = random.Random("cover/gauge")
    lifts = list(rank_one_lifts())
    cases = [(lift, p) for lift in lifts for p in range(2, 8)]
    for n in (4, 8, 16):
        for om in (grid_class(torus_grid(n), n),
                   grid_class(klein_grid(n), n, (0,), (1,))):
            cases += [(integralize(om), p) for p in (2, 3)]
    cases += [(gauge_shifted(lift, rng), p) for lift in lifts
              for _ in range(3) for p in range(2, 8)]
    for lift, p in cases:
        X = lift.complex
        block = _block_substitution(X, twisted_complex(lift), p)
        cover = _explicit_cover(X, lift, p)
        for q in range(X.dim + 1):
            assert block[q] == cover.boundary_entries(q)
    assert len(cases) == 13 * 6 + 12 + 13 * 3 * 6


def test_explicit_cover_matches_full_elimination():
    # the cover pairs d_1 by its own spanning forest; eliminating every
    # boundary in full must give the same homology
    lifts = list(rank_one_lifts())
    for lift in lifts:
        for p in range(2, 8):
            assert (cyclic_cover_oracle(lift, p).explicit
                    == reference_explicit_cover_homology(lift.complex,
                                                         lift, p))
    assert len(lifts) == 13


def test_block_cover_matches_full_elimination():
    # the block boundaries eliminated in full give the homology the
    # oracle reports for the explicit cover
    lifts = [*rank_one_lifts(), novikov_numbers(genus_class(2)).lift]
    for lift in lifts:
        X, tc = lift.complex, twisted_complex(lift)
        for p in range(2, 8):
            chk = cyclic_cover_oracle(lift, p)
            assert chk.consistent
            assert (reference_block_substitution_homology(X, tc, p)
                    == chk.explicit)
    assert len(lifts) == 14


def negated_twisting(lift):
    """twisted_complex with every exponent negated, which is the
    twisting of the opposite class."""
    return twisted_complex(IntegralLift(
        lift.complex, lift.basis,
        {e: tuple(-x for x in v) for e, v in lift.exponents.items()},
        lift.forest))


@pytest.mark.parametrize("name, cname", [("klein", "dy"), ("torus7", "e1")])
def test_cover_oracle_sees_a_negated_twisting(monkeypatch, name, cname):
    # the covers of xi and -xi are isomorphic, so their homologies
    # agree; only the entry-for-entry comparison sees the sign, at
    # every p >= 3 (at p = 2, -e = e mod 2)
    lift = integralize(resolve_document(name).cochain(cname))
    X = lift.complex
    monkeypatch.setattr(twisted, "twisted_complex", negated_twisting)
    for p in range(2, 6):
        chk = cyclic_cover_oracle(lift, p)
        assert chk.consistent == (p == 2)
        assert (reference_block_substitution_homology(
                    X, negated_twisting(lift), p)
                == reference_explicit_cover_homology(X, lift, p)
                == chk.explicit)


def test_cover_oracle_refuses_a_lift_that_is_not_closed():
    # the twisted d o d check runs before the cover looks up faces, so
    # a bumped exponent stops with a ValidationError, not a KeyError
    lift = integralize(resolve_document("klein").cochain("dy"))
    exponents = dict(lift.exponents)
    edge = min(exponents)
    exponents[edge] = (exponents[edge][0] + 1,)
    bumped = IntegralLift(lift.complex, lift.basis, exponents, lift.forest)
    with pytest.raises(ValidationError,
                       match="twisted boundary squared is nonzero"):
        cyclic_cover_oracle(bumped, 3)


@pytest.mark.parametrize("case, want", [
    ("genus 2", [0, 2, 0]), ("genus 3", [0, 4, 0]), ("torus7 irr", [0, 0, 0]),
])
def test_integer_specializations_bound_the_betti_only_route(case, want):
    # T_i = t_i can only lose rank, so a specialization's Betti numbers
    # are never below the Novikov ones; at these five points they are
    # equal, and at (1, 1) they are the ordinary Betti numbers
    if case == "torus7 irr":
        om = resolve_document("torus7").cochain("irr")
    else:
        om = genus_class(int(case[-1]), rank_two=True)
    nv = novikov_numbers(om)
    assert (nv.route, nv.betti) == ("betti-only", want)
    for point in [(2, 3), (3, 5), (5, 7), (-1, 1), (1, 2)]:
        assert specialization_betti(nv.lift, point) == want
    ordinary = specialization_betti(nv.lift, (1, 1))
    assert ordinary == integer_homology(om.complex).betti \
        == [1, 2 - euler_characteristic(om.complex), 1]
    assert all(a >= b for a, b in zip(ordinary, want))


@pytest.mark.parametrize("g", [2, 3])
def test_genus_g_surfaces_have_2g_minus_2_novikov_cycles(g):
    # the first closed manifolds with nonzero Novikov Betti numbers: for
    # a class xi != 0 on a closed orientable surface b_0 = b_2 = 0, so
    # the Euler characteristic 2 - 2g gives b_1 = 2g - 2 (Farber,
    # Topology of Closed One-Forms, ch. 1)
    start = time.perf_counter()
    om = genus_class(g)
    X = om.complex
    assert euler_characteristic(X) == 2 - 2 * g
    assert integer_homology(X) == IntHomology([1, 2 * g, 1], [[], [], []])
    nv = novikov_numbers(om)
    assert nv.route == "rank-one"
    assert nv.betti == [0, 2 * g - 2, 0] and nv.torsion == [0, 0, 0]
    assert check_inequalities(nv, CriticalData([0, 2 * g - 2, 0])).holds
    assert cyclic_cover_oracle(nv.lift, 3).consistent
    assert time.perf_counter() - start < 2.0


def test_cyclic_cover_figure_eight():
    X = fig8()
    chk = cyclic_cover_oracle(integralize(fig8_class(X, 1, 0)), 2)
    assert chk.consistent
    assert chk.explicit.betti == [1, 3]


def test_cyclic_cover_guards():
    X = circle()
    lift = integralize(circle_dtheta(X))
    with pytest.raises(UnsupportedOperationError):
        cyclic_cover_oracle(lift, 1)
    with pytest.raises(UnsupportedOperationError):
        cyclic_cover_oracle(lift, 13)
    with pytest.raises(UnsupportedOperationError):
        cyclic_cover_oracle(integralize(RationalCochain1(X, {})), 2)


def test_cyclic_cover_random_gauge_stability():
    X = fig8()
    rng = random.Random(88)
    base = fig8_class(X, 1, 0)
    for _ in range(5):
        pot = {v: F(rng.randint(-8, 8), rng.randint(1, 5))
               for v in X.vertices}
        om = base.add(coboundary0(X, pot))
        chk = cyclic_cover_oracle(integralize(om), 3)
        assert chk.consistent
        assert chk.explicit.betti == [1, 4]


def test_result_guard_survives_optimized_mode():
    # klein is two dimensional, so its twisted boundaries compose and
    # the d o d guard runs; one exponent raised by 1 leaves the lift
    # open on the triangles of that edge, and under -O an assert
    # there would vanish
    script = "\n".join([
        "import sys",
        "import orbinov.twisted",
        "lift_of = orbinov.twisted.integralize",
        "def corrupted(cochain):",
        "    lift = lift_of(cochain)",
        "    edge = min(lift.exponents)",
        "    first, *rest = lift.exponents[edge]",
        "    lift.exponents[edge] = (first + 1, *rest)",
        "    return lift",
        "orbinov.twisted.integralize = corrupted",
        "from orbinov import cli",
        "sys.exit(cli.main(['novikov', 'klein', '--class', 'dy']))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "boundary squared is nonzero" in proc.stderr


def assert_lift_matches_h1(om):
    """The forest lift against the H_1 route: the same lattice basis,
    the same integrality verdict, and exponents that give back every
    off-tree period."""
    lift = integralize(om)
    h1 = H1Presentation(om.complex)
    ph = period_homomorphism(h1, om)
    assert lift.basis == gamma_basis(ph)
    assert is_integral(lift.basis) == is_integral(ph.free_periods())
    assert set(lift.exponents) <= set(h1.offtree)
    for e, per in zip(h1.offtree, ph.fundamental_periods):
        total = om.space.zero()
        for c, b in zip(lift.exponent(*e), lift.basis):
            total = tuple(t + c * x for t, x in zip(total, b))
        assert total == per
    return lift


def corpus_classes():
    """Every class of the bundled corpus, descended to the orbit space
    where the document has an action."""
    for name in corpus_names():
        doc = resolve_document(name)
        qres = quotient_complex(doc.action) if doc.action else None
        for cname in doc.cocycle_names():
            om = doc.cochain(cname)
            yield descend_cochain(qres, om) if qres else om


def test_lift_matches_h1_route_on_the_corpus():
    pairs = 0
    for om in corpus_classes():
        assert_lift_matches_h1(om)
        pairs += 1
    assert pairs == 15


def mixed_class(X, space, rows, parts):
    """Cochain whose coordinate i is the combination rows[i] of the
    rational cochains in parts."""
    values = {}
    for e in X.edges():
        vec = tuple(sum((c * p.value(*e)[0] for c, p in zip(row, parts)),
                        F(0)) for row in rows)
        if any(vec):
            values[e] = vec
    return RationalCochain1(X, values, space)


def test_three_torus_gives_fibred_zeros():
    # the first input of dimension 3: twisted boundaries in degree 3,
    # a d∘d check across three degrees, and a cover of a 3-manifold
    n = 3
    X = torus3_grid(n)
    assert [X.n_cells(q) for q in range(4)] == [27, 189, 324, 162]
    ih = integer_homology(X)
    assert ih.betti == [1, 3, 3, 1] and not any(ih.torsion)
    dx, dy = grid_class(X, n), grid_class(X, n, (0,), (1,))
    nv = novikov_numbers(dx)
    assert nv.route == "rank-one"
    assert nv.betti == [0, 0, 0, 0] and nv.torsion == [0, 0, 0, 0]
    assert cyclic_cover_oracle(nv.lift, 2).consistent
    nv = novikov_numbers(mixed_class(X, ALPHA, [[1, 0], [0, 1]], [dx, dy]))
    assert nv.route == "betti-only" and nv.rank == 2
    assert nv.betti == [0, 0, 0, 0] and nv.torsion is None


@pytest.mark.parametrize("surface", ["torus", "klein"])
@pytest.mark.parametrize("n", range(3, 9))
def test_lift_matches_h1_route_on_seeded_grids(surface, n):
    rng = random.Random(1000 * n + len(surface))
    if surface == "torus":
        X = torus_grid(n)
        parts = [grid_class(X, n), grid_class(X, n, (0,), (1,))]
    else:
        X = klein_grid(n)
        parts = [grid_class(X, n, (0,), (1,))]
    plain = PeriodSpace()
    symbolic = PeriodSpace(("alpha",), {"alpha": F(141421356, 10 ** 8)})

    def coeff():
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))

    ranks = set()
    verdicts = set()
    for trial in range(6):
        space = symbolic if trial % 2 else plain
        rows = [[coeff() for _ in parts] for _ in range(space.k)]
        om = mixed_class(X, space, rows, parts)
        pot = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(space.k)) for v in X.vertices}
        for cochain in (om, om.add(coboundary0(X, pot, space))):
            lift = assert_lift_matches_h1(cochain)
            ranks.add(lift.rank)
            verdicts.add(is_integral(lift.basis))
    assert ranks >= ({1, 2} if surface == "torus" else {1})
    assert verdicts == {True, False}


@pytest.mark.parametrize("surface", ["torus", "klein"])
def test_cover_oracle_and_fibred_zeros_on_seeded_grids(surface):
    # grids large enough for the pivot order to decide the fill: the
    # two cover routes must agree, and a class that fibres the surface
    # over the circle has zero Novikov homology
    rng = random.Random("cross-route/" + surface)
    symbolic = PeriodSpace(("alpha",), {"alpha": F(141421356, 10 ** 8)})
    for n in range(6, 11):
        if surface == "torus":
            X = torus_grid(n)
            parts = [grid_class(X, n), grid_class(X, n, (0,), (1,))]
            a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (3, 1)])
            rows = [[a, b]]
        else:
            X = klein_grid(n)
            parts = [grid_class(X, n, (0,), (1,))]
            rows = [[1]]
        scale = F(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))
        rows = [[scale * c for c in row] for row in rows]
        pot = {v: (F(rng.randint(-9, 9), rng.randint(1, 4)),)
               for v in X.vertices}
        om = mixed_class(X, PeriodSpace(), rows, parts).add(
            coboundary0(X, pot))
        lift = integralize(om)
        assert lift.rank == 1
        for p in (2, 3):
            assert cyclic_cover_oracle(lift, p).consistent
        classes = [(om, 1)]
        if surface == "torus":
            classes.append(
                (mixed_class(X, symbolic, [[1, 0], [0, 1]], parts), 2))
        for cochain, rank in classes:
            nv = novikov_numbers(cochain)
            assert nv.rank == rank and nv.betti == [0, 0, 0]
            assert nv.torsion == ([0, 0, 0] if rank == 1 else None)


def laurent_boundaries(lift):
    """Twisted boundaries built entry by entry as Laurent polynomials:
    the integer boundary with each first face replaced by a monomial."""
    X = lift.complex
    ws = WeightSystem(lift.basis)
    out = {}
    for q in range(1, X.dim + 1):
        entries = X.boundary_entries(q)
        idx = X.cell_index[q - 1]
        for j, cell in enumerate(X.cells[q]):
            entries[(idx[cell[1:]], j)] = LaurentPoly.monomial(
                ws.r, lift.exponent(cell[0], cell[1]), 1)
        out[q] = WeightedLaurentMatrix(ws, X.n_cells(q - 1), X.n_cells(q),
                                       entries)
    return out


def as_monomials(M):
    """{(row, col): (exponent, sign)} of a matrix of signed monomials."""
    out = {}
    for key, poly in M.entries.items():
        ((exp, sign),) = poly.terms.items()
        out[key] = (exp, sign)
    return out


def bumped(lift, rng):
    """The lift with one exponent coordinate of one triangle edge moved
    by 1, which opens the exponent cochain on that triangle."""
    X = lift.complex
    a, b, c = rng.choice(X.cells[2])
    edge = rng.choice([(a, b), (a, c), (b, c)])
    exps = dict(lift.exponents)
    vec = list(exps.get(edge, (0,) * lift.rank))
    vec[rng.randrange(lift.rank)] += rng.choice((-1, 1))
    exps[edge] = tuple(vec)
    return IntegralLift(X, lift.basis, exps, lift.forest)


def assert_monomial_build_matches(lift, rng):
    """The monomial build against the Laurent one, and the monomial
    d o d guard against sparse_product_is_zero on the Laurent entries,
    for the lift and for a bumped copy that both must refuse."""
    X = lift.complex
    want = laurent_boundaries(lift)
    tc = twisted_complex(lift)
    assert sorted(tc.monomials) == sorted(want)
    for q, M in want.items():
        got = tc.boundary(q)
        assert (got.nrows, got.ncols) == (M.nrows, M.ncols)
        assert list(got.entries.items()) == list(M.entries.items())
    if X.dim < 2:
        return
    bad = bumped(lift, rng)
    for boundary, closed in ((want, True), (laurent_boundaries(bad), False)):
        verdicts = []
        for q in range(1, X.dim):
            A, B = boundary[q], boundary[q + 1]
            verdict = sparse_product_is_zero(A.entries, B.entries)
            assert _monomial_product_is_zero(
                as_monomials(A), as_monomials(B)) == verdict
            verdicts.append(verdict)
        assert all(verdicts) == closed
    with pytest.raises(ValidationError,
                       match="twisted boundary squared is nonzero"):
        twisted_complex(bad)


def test_monomial_build_matches_laurent_build_on_the_corpus():
    rng = random.Random("monomials/corpus")
    lifts = 0
    for om in corpus_classes():
        lift = integralize(om)
        if lift.rank >= 1:
            assert_monomial_build_matches(lift, rng)
            lifts += 1
    assert lifts == 6


@pytest.mark.parametrize("surface", ["torus", "klein"])
def test_monomial_build_matches_laurent_build_on_seeded_grids(surface):
    rng = random.Random("monomials/" + surface)
    ranks = set()
    for n in range(3, 9):
        if surface == "torus":
            X = torus_grid(n)
            parts = [grid_class(X, n), grid_class(X, n, (0,), (1,))]
        else:
            X = klein_grid(n)
            parts = [grid_class(X, n, (0,), (1,))]
        for space in (PeriodSpace(), ALPHA):
            rows = [[F(rng.randint(1, 5), rng.randint(1, 4)) for _ in parts]
                    for _ in range(space.k)]
            pot = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 12))
                            for _ in range(space.k)) for v in X.vertices}
            om = mixed_class(X, space, rows, parts).add(
                coboundary0(X, pot, space))
            lift = integralize(om)
            ranks.add(lift.rank)
            assert_monomial_build_matches(lift, rng)
    assert ranks == ({1, 2} if surface == "torus" else {1})


def test_exact_orbit_constant_classes_give_integer_homology():
    # rank 0 must come out of the forest periods exactly, whatever the
    # potential's denominators; the numbers are then integer homology
    rng = random.Random("rank0/z2")
    for act in z2_grid_actions():
        X = act.complex
        res = quotient_complex(act)
        Y = res.complex
        ih = integer_homology(Y)
        rep = {v: min((act.apply_vertex(g, v) for g in act.group.elements),
                      key=X.vertex_index.__getitem__) for v in X.vertices}
        for space in (PeriodSpace(), ALPHA):
            val = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 12))
                            for _ in range(space.k))
                   for v in sorted(set(rep.values()))}
            om = coboundary0(X, {v: val[rep[v]] for v in X.vertices}, space)
            assert not om.is_zero()
            nv = novikov_numbers(descend_cochain(res, om))
            assert (nv.route, nv.rank) == ("integral", 0)
            assert nv.betti == list(ih.betti)
            assert nv.torsion == [len(t) for t in ih.torsion]


def rank_two_torus_class(rng, n, denominators):
    """Seeded class on torus_grid(n) with two independent symbolic
    directions, plus the coboundary of a seeded potential."""
    X = torus_grid(n)
    parts = [grid_class(X, n), grid_class(X, n, (0,), (1,))]
    rows = [[0, 0], [0, 0]]
    while rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
        rows = [[F(rng.randint(-5, 5), rng.choice(denominators))
                 for _ in parts] for _ in range(2)]
    pot = {v: tuple(F(rng.randint(-9, 9), rng.choice(denominators))
                    for _ in range(2)) for v in X.vertices}
    return mixed_class(X, ALPHA, rows, parts).add(
        coboundary0(X, pot, ALPHA))


@pytest.mark.parametrize("n", [4, 5, 8, 10])
def test_rank1_perturb_keeps_betti_only_numbers_on_grid_tori(n):
    # denominators 2^a 5^b and 14 digits make every rounded shadow
    # exact, so the stand-in is the shadow class itself
    rng = random.Random("perturb/%d" % n)
    for _ in range(2):
        om = rank_two_torus_class(rng, n, (1, 2, 4, 5))
        nv = novikov_numbers(om)
        assert (nv.route, nv.rank) == ("betti-only", 2)
        flat = rank1_perturb(om, precision=14)
        for e in om.complex.edges():
            assert flat.value(*e) == (ALPHA.shadow_value(om.value(*e)),)
        numbers = novikov_numbers(flat)
        assert (numbers.route, numbers.rank) == ("rank-one", 1)
        assert numbers.betti == nv.betti


def seeded_grid_classes(surface, seed):
    """Seeded classes on n x n torus or Klein grids, n = 3..8, each plus
    the coboundary of a seeded potential: rank one in plain rationals,
    and up to rank two in the symbol alpha."""
    rng = random.Random("%s/%s" % (seed, surface))
    for n in range(3, 9):
        if surface == "torus":
            X = torus_grid(n)
            parts = [grid_class(X, n), grid_class(X, n, (0,), (1,))]
        else:
            X = klein_grid(n)
            parts = [grid_class(X, n, (0,), (1,))]
        for space in (PeriodSpace(), ALPHA):
            rows = [[F(rng.choice((1, -1)) * rng.randint(1, 5),
                       rng.randint(1, 4)) for _ in parts]
                    for _ in range(space.k)]
            pot = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(space.k)) for v in X.vertices}
            yield mixed_class(X, space, rows, parts).add(
                coboundary0(X, pot, space))


DUAL = "dual forest"


@pytest.fixture
def reduced(monkeypatch):
    """Records, per twisted boundary that novikov_numbers reduces in
    degree order, the matrix handed to elimination and all the pivot
    pairs of that degree.  d_1 is handed to no elimination: it is
    recorded as None with the pairs read off the spanning forest.  The
    top boundary hands only the residual of its dual forest, and its
    pairs are the forest's, then the residual's."""
    seen = []
    inv, rank = orbinov.twisted.invariant_factors, \
        orbinov.twisted.fraction_field_rank
    forest = orbinov.twisted.forest_pairs
    dual = orbinov.twisted.dual_forest_reduction

    def forest_pairs(*args):
        out = forest(*args)
        seen.append((None, out))
        return out

    def dual_forest_reduction(*args):
        out = dual(*args)
        seen.append((DUAL, list(out[0])))
        return out

    def record(M, pairs):
        if seen and seen[-1][0] is DUAL:
            seen[-1] = (M, seen[-1][1] + pairs)
        else:
            seen.append((M, pairs))

    def invariant_factors(M):
        out = inv(M)
        record(M, out.pairs)
        return out

    def fraction_field_rank(M):
        out = rank(M)
        record(M, out[1])
        return out

    monkeypatch.setattr(orbinov.twisted, "invariant_factors",
                        invariant_factors)
    monkeypatch.setattr(orbinov.twisted, "fraction_field_rank",
                        fraction_field_rank)
    monkeypatch.setattr(orbinov.twisted, "forest_pairs", forest_pairs)
    monkeypatch.setattr(orbinov.twisted, "dual_forest_reduction",
                        dual_forest_reduction)
    return seen


def assert_matches_per_boundary(cochain):
    """Novikov numbers of the reduced complex against the reference
    that reduces every boundary on its own: the same betti and torsion
    numbers, and the same route."""
    nv = novikov_numbers(cochain)
    assert (nv.betti, nv.torsion, nv.route) == per_boundary_novikov(nv.lift)
    return nv


def test_reduced_complex_matches_per_boundary_reference_on_the_corpus():
    routes = [assert_matches_per_boundary(om).route
              for om in corpus_classes()]
    assert sorted(set(routes)) == ["betti-only", "integral", "rank-one"]
    assert len(routes) == 15


@pytest.mark.parametrize("surface", ["torus", "klein"])
def test_reduced_complex_matches_per_boundary_reference_on_seeded_grids(
        surface, reduced):
    ranks = set()
    dropped = 0
    for om in seeded_grid_classes(surface, "reduced"):
        del reduced[:]
        nv = assert_matches_per_boundary(om)
        ranks.add(nv.rank)
        full = twisted_complex(nv.lift).monomials
        (_, forest), (M, _) = reduced
        # the residual that reaches elimination keeps no row of d_2
        # that d_1's forest paired away
        assert {i for i, _ in M.entries}.isdisjoint(j for _, j in forest)
        dropped += len(M.entries) < len(full[2])
    assert ranks == ({1, 2} if surface == "torus" else {1})
    assert dropped == 12


def test_reduced_complex_matches_per_boundary_reference_on_the_three_torus(
        reduced):
    # the one input where rows paired away in d_2 feed a third boundary
    n = 3
    X = torus3_grid(n)
    dx, dy = grid_class(X, n), grid_class(X, n, (0,), (1,))
    for om in (dx, mixed_class(X, ALPHA, [[1, 0], [0, 1]], [dx, dy])):
        del reduced[:]
        full = twisted_complex(assert_matches_per_boundary(om).lift).monomials
        (d1, forest), *rest = reduced
        # d_1 goes to no elimination; the connected 3-torus pairs every
        # vertex: 26 tree edges and one edge where the class is nonzero
        assert d1 is None and len(forest) == X.n_cells(0)
        sizes = [len(M.entries) for M, _ in rest]
        assert all(sizes[q - 2] < len(full[q]) for q in (2, 3))


def reduced_ranks(cochain, reduced):
    """Novikov numbers of a class and the ranks m_j of its reduced free
    complex, m_j = n_j - |P_j| - |P_{j+1}| for the pivot pairs P_q of
    d_q; m is None on the integral route, which has no twisted
    boundary."""
    del reduced[:]
    nv = novikov_numbers(cochain)
    if nv.route == "integral":
        return nv, None
    X = cochain.complex
    P = [0] + [len(pairs) for _, pairs in reduced] + [0]
    return nv, [X.n_cells(j) - P[j] - P[j + 1] for j in range(X.dim + 1)]


def test_reduced_ranks_satisfy_the_morse_inequalities(reduced):
    # the reduced complex is a free complex with the Novikov homology,
    # so its ranks are critical counts the inequalities must accept;
    # every rank-one corpus class fibres, and there no unit survives
    fibred = 0
    for om in corpus_classes():
        nv, m = reduced_ranks(om, reduced)
        if nv.route == "rank-one":
            assert check_inequalities(nv, CriticalData(m)).holds
            assert nv.betti == nv.torsion == [0] * len(m)
            assert m == [0] * len(m)
            fibred += 1
    assert fibred == 5
    for surface in ("torus", "klein"):
        for om in seeded_grid_classes(surface, "morse"):
            nv, m = reduced_ranks(om, reduced)
            assert check_inequalities(nv, CriticalData(m)).holds


def gauge_shifted(lift, rng):
    """The lift plus the coboundary of a seeded integer potential f,
    f(v) - f(u) on each stored edge (u, v): the same class, with
    exponents on tree edges too."""
    X = lift.complex
    f = {v: [rng.randint(-3, 3) for _ in range(lift.rank)]
         for v in X.vertices}
    exps = {}
    for (u, v) in X.edges():
        e = lift.exponents.get((u, v), (0,) * lift.rank)
        vec = tuple(a + b - c for a, b, c in zip(e, f[v], f[u]))
        if any(vec):
            exps[(u, v)] = vec
    return IntegralLift(X, lift.basis, exps, lift.forest)


def assert_forest_degree_one_matches(lift, rng):
    """Novikov numbers with d_1 read off the spanning forest against
    the per-boundary reference, which eliminates d_1 itself, for the
    lift and three seeded gauge shifts of it; all four agree.  The
    pivot pairs match the walked reference, also with the exponents in
    reversed order: the lift from integralize, with no tree edge
    exponent, takes forest_pairs' shortcut and the shifts take the
    walk.  Returns the number of lifts checked."""
    X = lift.complex
    parent, _ = lift.forest
    lifts = [lift] + [gauge_shifted(lift, rng) for _ in range(3)]
    want = per_boundary_novikov(lift)
    for shifted in lifts:
        nv = _novikov_of_lift(shifted)
        assert (nv.betti, nv.torsion, nv.route) == want
        assert per_boundary_novikov(shifted) == want
        on_tree = any(shifted.exponents.get(X.orient(parent[v], v)[0])
                      for v in parent)
        assert on_tree == (shifted is not lift and lift.rank > 0)
        reordered = dict(reversed(shifted.exponents.items()))
        for exponents in (shifted.exponents, reordered):
            assert forest_pairs(X, lift.forest, exponents) == \
                forest_pairs_oracle(X, lift.forest, exponents)
    return len(lifts)


def test_forest_degree_one_matches_per_boundary_reference_under_gauge():
    rng = random.Random("forest/gauge")
    lifts = sum(assert_forest_degree_one_matches(integralize(om), rng)
                for om in corpus_classes())
    for surface in ("torus", "klein"):
        lifts += sum(assert_forest_degree_one_matches(integralize(om), rng)
                     for om in seeded_grid_classes(surface, "forest"))
    assert lifts == 156


def test_forest_degree_one_on_a_disconnected_complex():
    # two circles and an isolated vertex, the class zero on the second
    # circle: only the first component pivots again at its root
    X = build_complex([("a", "b"), ("b", "c"), ("a", "c"),
                       ("d", "e"), ("e", "f"), ("d", "f")],
                      vertices=list("abcdefg"))
    lift = integralize(RationalCochain1(X, {("a", "b"): F(1)}))
    rng = random.Random("forest/disconnected")
    assert assert_forest_degree_one_matches(lift, rng) == 4
    nv = _novikov_of_lift(lift)
    assert (nv.betti, nv.torsion) == ([2, 1], [0, 0])
    assert len(forest_pairs(X, lift.forest, lift.exponents)) == 5
    # over Z every root row vanishes: 7 vertices, 3 components
    assert len(forest_pairs(X, lift.forest)) == 4
    ncells = [X.n_cells(q) for q in range(2)]
    boundaries = [X.boundary_entries(q) for q in range(2)]
    assert integer_homology(X) == per_boundary_homology(ncells, boundaries) \
        == IntHomology([3, 2], [[], []])


def test_grid_torus_32_hands_only_d2_to_elimination(monkeypatch):
    # counts, not times: d_1 of the 32 x 32 torus pivots on its 1,023
    # tree edges and one edge around a dx cycle, and d_2's dual forest
    # on the other 2,048 edge rows pairs all 2,047 triangles but its
    # root, so the one Laurent matrix eliminated is d_2's 1 x 1
    # residual, the root against the one cotree edge left: +-(T - 1)
    n = 32
    X = torus_grid(n)
    handed, snf_calls = [], []
    inv = orbinov.twisted.invariant_factors
    snf = orbinov.complexes.smith_normal_form

    def invariant_factors(M):
        handed.append(M)
        return inv(M)

    def smith_normal_form(*args, **kwargs):
        snf_calls.append(args)
        return snf(*args, **kwargs)

    monkeypatch.setattr(orbinov.twisted, "invariant_factors",
                        invariant_factors)
    monkeypatch.setattr(orbinov.complexes, "smith_normal_form",
                        smith_normal_form)
    nv = novikov_numbers(grid_class(X, n))
    assert (nv.betti, nv.torsion) == ([0, 0, 0], [0, 0, 0])
    (M,) = handed
    assert (M.nrows, M.ncols) == (3 * n * n, 2 * n * n)
    ((_, col), poly), = M.entries.items()
    assert col == 0 and sorted(poly.terms.values()) == [-1, 1]
    assert not snf_calls
    assert integer_homology(X).betti == [1, 2, 1]
    assert len(snf_calls) == 1


def test_rank1_perturb_of_a_gauged_class_stays_closed():
    om = rank_two_torus_class(random.Random("perturb/open"), 4, (1, 3, 7))
    assert rank1_perturb(om, precision=6).complex is om.complex


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("surface", ["torus", "klein"])
def test_cover_oracle_on_grids_up_to_16(surface, n):
    # p sheets have p times the Euler characteristic of the base; the
    # dx covers of a torus are tori, and the dy covers of the Klein
    # bottle are tori at even p
    if surface == "torus":
        X = torus_grid(n)
        lift = integralize(grid_class(X, n))
    else:
        X = klein_grid(n)
        lift = integralize(grid_class(X, n, (0,), (1,)))
    for p in (2, 3):
        chk = cyclic_cover_oracle(lift, p)
        assert chk.consistent
        betti = chk.explicit.betti
        assert (sum((-1) ** q * b for q, b in enumerate(betti))
                == p * euler_characteristic(X))
        cover = "torus" if surface == "torus" or p % 2 == 0 else "klein"
        assert chk.explicit == SURFACES[cover]


@pytest.fixture
def tops(monkeypatch):
    """(entries, paired) of each top boundary that the package pairs
    along its dual forest, in call order."""
    seen = []
    dual = orbinov.complexes.dual_forest_reduction

    def recording(entries, paired=()):
        seen.append((entries, set(paired)))
        return dual(entries, paired)
    monkeypatch.setattr(orbinov.complexes, "dual_forest_reduction",
                        recording)
    monkeypatch.setattr(orbinov.twisted, "dual_forest_reduction", recording)
    return seen


def assert_top_matches_reference(tops, ncells, homology):
    """The top rank and torsion of integer homology over a complex with
    ncells cells against reference_top_reduction on the first top
    boundary recorded, which is used up."""
    entries, paired = tops.pop(0)
    top = len(ncells) - 1
    assert (ncells[top] - homology.betti[top], homology.torsion[top - 1]) \
        == reference_top_reduction(entries, paired)


def assert_novikov_top_matches_reference(cochain, tops):
    """Novikov numbers of a class on a complex of dimension >= 2: the
    top rank and torsion against reference_top_reduction on the top
    boundary recorded, and all numbers against the per-boundary
    reference.  Returns the numbers."""
    del tops[:]
    nv = novikov_numbers(cochain)
    X, top = cochain.complex, cochain.complex.dim
    (entries, paired), = tops
    rank, torsion = reference_top_reduction(
        entries, paired, WeightSystem(nv.lift.basis) if nv.rank else None)
    if nv.route == "integral":
        torsion = len(torsion)
    assert (X.n_cells(top) - nv.betti[top],
            nv.torsion and nv.torsion[top - 1]) == (rank, torsion)
    assert (nv.betti, nv.torsion, nv.route) == per_boundary_novikov(nv.lift)
    return nv


def test_top_reduction_matches_the_reference_on_the_corpus(tops):
    # 9 of the 15 classes live on surfaces; the other 6 have no d_2
    routes = [assert_novikov_top_matches_reference(om, tops).route
              for om in corpus_classes() if om.complex.dim >= 2]
    assert sorted(routes) == ["betti-only"] + ["integral"] * 5 \
        + ["rank-one"] * 3


@pytest.mark.parametrize("surface", ["torus", "klein"])
def test_top_reduction_matches_the_reference_on_seeded_grids(surface, tops):
    ranks = {assert_novikov_top_matches_reference(om, tops).rank
             for om in seeded_grid_classes(surface, "dual")}
    assert ranks == ({1, 2} if surface == "torus" else {1})


@pytest.mark.parametrize("g", [2, 3, 4])
def test_genus_g_rank_two_classes_go_betti_only(g, tops):
    # xi = A + alpha B on a closed orientable surface: b_0 = b_2 = 0 for
    # any nonzero class, so b_1 = -chi = 2g - 2 at rank two as at rank
    # one; the first nonzero answer of the betti-only route
    om = genus_class(g, rank_two=True)
    nv = assert_novikov_top_matches_reference(om, tops)
    assert (nv.route, nv.rank, nv.torsion) == ("betti-only", 2, None)
    assert nv.betti == [0, -euler_characteristic(om.complex), 0] \
        == [0, 2 * g - 2, 0]
    nv = assert_novikov_top_matches_reference(genus_class(g), tops)
    assert (nv.route, nv.betti) == ("rank-one", [0, 2 * g - 2, 0])


def test_top_reduction_matches_the_reference_on_the_three_torus(tops):
    # the top is d_3, and the rows it drops come from d_2's elimination
    n = 3
    X = torus3_grid(n)
    dx, dy = grid_class(X, n), grid_class(X, n, (0,), (1,))
    for om in (dx, mixed_class(X, ALPHA, [[1, 0], [0, 1]], [dx, dy])):
        assert_novikov_top_matches_reference(om, tops)
    del tops[:]
    assert_top_matches_reference(tops, [X.n_cells(q) for q in range(4)],
                                 integer_homology(X))


def test_top_reduction_matches_the_reference_on_both_cover_routes(tops):
    # 10 of the 13 rank-one lifts are on surfaces; each cover of one
    # reduces its top boundary once, the explicit cover's, which the
    # block route's equals entry for entry
    covers = 0
    for lift in rank_one_lifts():
        X = lift.complex
        for p in range(2, 8):
            del tops[:]
            chk = cyclic_cover_oracle(lift, p)
            ncells = [p * X.n_cells(q) for q in range(X.dim + 1)]
            if tops:
                assert_top_matches_reference(tops, ncells, chk.explicit)
                covers += 1
            assert not tops
    assert covers == 6 * 10


def random_two_complex(rng):
    """Seeded triangles on at most 8 vertices, which leave boundary
    edges and edges on three or more triangles, and up to three extra
    edges."""
    vertices = ["v%d" % i for i in range(rng.randint(3, 8))]
    triangles = list(combinations(vertices, 3))
    cells = rng.sample(triangles, rng.randint(1, min(12, len(triangles))))
    cells += [tuple(rng.sample(vertices, 2))
              for _ in range(rng.randint(0, 3))]
    return build_complex(cells, vertices=vertices)


def test_top_reduction_matches_the_reference_on_random_two_complexes(tops):
    rng = random.Random("dual/random")
    kinds = Counter()
    for _ in range(400):
        X = random_two_complex(rng)
        ncells = [X.n_cells(q) for q in range(3)]
        del tops[:]
        homology = integer_homology(X)
        assert homology == per_boundary_homology(
            ncells, [X.boundary_entries(q) for q in range(3)])
        assert_top_matches_reference(tops, ncells, homology)
        on = Counter(i for i, _ in X.boundary_entries(2))
        kinds["free"] += 1 in on.values()
        kinds["non-manifold"] += max(on.values()) >= 3
        kinds["closed"] += homology.betti[2] > 0
    assert min(kinds.values()) >= 40, kinds
    for X, want in ((rp2(), IntHomology([1, 0, 0], [[], [2], []])),
                    (klein_grid(6), SURFACES["klein"])):
        del tops[:]
        assert integer_homology(X) == want
        assert_top_matches_reference(
            tops, [X.n_cells(q) for q in range(3)], want)


def test_a_row_holding_a_two_stays_a_residual_row(tops):
    # d_1 = 0 and d_2 = [[2, 0], [1, -1]]: row 1 joins the two columns
    # of the dual graph, and row 0 is no free face; its 2 stays in the
    # residual and is the torsion of H_1
    d2 = {(0, 0): 2, (1, 0): 1, (1, 1): -1}
    homology = homology_of_matrices([1, 2, 2], [{}, {}, d2])
    assert homology == IntHomology([1, 0, 0], [[], [2], []])
    assert tops[0][0] == {key: ((), a) for key, a in d2.items()}
    assert dual_forest_reduction(*tops[0]) == ([(1, 1)], {(0, 0): {(): 2}})
    assert_top_matches_reference(tops, [1, 2, 2], homology)

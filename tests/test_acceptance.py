"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS or FAIL line (visible with -s, and on
failure) and enforces its own runtime budget where one is stated.
Oracles are independent of the code under test: rational row reduction
and face closure from tests/oracles.py, and sympy normal forms for
torsion claims.
"""

import random
import time
from fractions import Fraction

import importlib.resources as resources

from orbinov import (CriticalData, H1Presentation, SimplicialAction,
                     check_inequalities, coboundary0, cyclic_cover_oracle,
                     euler_characteristic, integer_homology, integralize,
                     novikov_numbers, period_homomorphism, quotient_complex,
                     smith_normal_form)
from orbinov.cochains import RationalCochain1, descend_cochain
from orbinov.documents import loads_document
from orbinov.laurent import LaurentPoly, WeightSystem
from orbinov.lmatrix import WeightedLaurentMatrix, invariant_factors
from orbinov.nerve import identity_failures, nerve_model
from orbinov.periods import GPath, gamma_basis, gpath_period, \
    hurewicz_class

from oracles import betti_oracle

CORPUS = ["circle", "rp2", "torus7", "klein", "hexagon_z2",
          "mirror_square", "pillowcase", "mirror_cylinder"]

# the structurally interesting cocycle of each example
CHOSEN = {"circle": "dtheta", "rp2": "zero", "torus7": "e1",
          "klein": "dy", "hexagon_z2": "dtheta",
          "mirror_square": "across", "pillowcase": "zero",
          "mirror_cylinder": "dx"}

RANK_ONE = [("circle", "dtheta"), ("hexagon_z2", "dtheta"),
            ("klein", "dy"), ("mirror_cylinder", "dx"),
            ("torus7", "e1")]

_CACHE = {}


def document(name):
    if name not in _CACHE:
        text = (resources.files("orbinov") / "corpus" / (name + ".json")) \
            .read_text(encoding="utf-8")
        _CACHE[name] = loads_document(text)
    return _CACHE[name]


def groupoid(name):
    """(action, quotient result) with a trivial action for orbit docs."""
    key = ("groupoid", name)
    if key not in _CACHE:
        doc = document(name)
        act = doc.action if doc.action is not None \
            else SimplicialAction.trivial(doc.space)
        _CACHE[key] = (act, quotient_complex(act))
    return _CACHE[key]


def orbit_cochain(name, cname):
    doc = document(name)
    om = doc.cochain(cname)
    if doc.action is None:
        return doc.space, om
    _, qres = groupoid(name)
    return qres.complex, descend_cochain(qres, om)


def all_cells(X):
    out = []
    for q in range(X.dim + 1):
        out.extend(X.cells[q])
    return out


def report(number, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d failed: %s" % (number, label)


def sympy_torsion(rows):
    """Degree q torsion of an integer boundary matrix, via sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as oracle_snf
    S = oracle_snf(Matrix(rows), domain=ZZ)
    diag = [abs(S[i, i]) for i in range(min(S.shape))]
    return sorted(d for d in diag if d > 1)


# ------------------------------------------------------------ criterion 1

def test_criterion_01_baseline_homology():
    start = time.monotonic()
    expected = {
        "circle": ([1, 1], [[], []]),
        "torus7": ([1, 2, 1], [[], [], []]),
        "klein": ([1, 1, 0], [[], [2], []]),
        "rp2": ([1, 0, 0], [[], [2], []]),
        "pillowcase": ([1, 0, 1], [[], [], []]),
    }
    ok = True
    for name, (betti, torsion) in expected.items():
        _, qres = groupoid(name)
        X = qres.complex
        ih = integer_homology(X)
        ok = ok and ih.betti == betti and ih.torsion == torsion
        ok = ok and betti_oracle(all_cells(X)) == betti
        if any(torsion):
            for q, tq in enumerate(torsion):
                if tq:
                    ok = ok and sympy_torsion(X.boundary_matrix(q + 1)) == tq
    elapsed = time.monotonic() - start
    report(1, "baseline homology regression with row reduction oracle "
              "(%.1fs)" % elapsed, ok and elapsed < 10)


# ------------------------------------------------------------ criterion 2

def test_criterion_02_zero_class_reduces_to_integer_homology():
    ok = True
    for name in CORPUS:
        X, zero = orbit_cochain(name, "zero")
        nums = novikov_numbers(zero)
        ih = integer_homology(X)
        ok = ok and nums.route == "integral"
        ok = ok and nums.betti == ih.betti
        ok = ok and nums.torsion == [len(t) for t in ih.torsion]
        # non vacuous: the same numbers from the independent oracle
        ok = ok and nums.betti == betti_oracle(all_cells(X))
    report(2, "zero class novikov numbers equal integer homology", ok)


# ------------------------------------------------------------ criterion 3

def test_criterion_03_circle_angle_class():
    doc = document("circle")
    nums = novikov_numbers(doc.cochain("dtheta"))
    ok = nums.betti == [0, 0] and nums.torsion == [0, 0]
    rep = check_inequalities(nums, doc.critical("flat"))
    ok = ok and rep.holds
    ok = ok and len(rep.rows) == 4  # both families, both degrees
    ok = ok and all(row.slack == 0 for row in rep.rows)
    report(3, "circle angle class vanishes and zero counts fit tightly",
           ok)


# ------------------------------------------------------------ criterion 4

def test_criterion_04_chain_identities():
    start = time.monotonic()
    ok = True
    for name in CORPUS:
        doc = document(name)
        _, qres = groupoid(name)
        lift = integralize(descend_cochain(qres, doc.cochain(CHOSEN[name])))
        model = nerve_model(qres, lift, depth=3)
        ok = ok and not identity_failures(model)
    elapsed = time.monotonic() - start
    report(4, "boundary identities on every unit cell per groupoid "
              "(%.1fs)" % elapsed, ok and elapsed < 30)


# ------------------------------------------------------------ criterion 5

def adjacency(X):
    nbrs = {v: [] for v in X.vertices}
    for (u, v) in (X.cells[1] if X.dim >= 1 else []):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def random_gloop(act, h1_up, nbrs, rng):
    group = act.group
    start = rng.choice(act.complex.vertices)
    segments, arrows = [], []
    cur, walk = start, [start]
    for _ in range(rng.randrange(3)):
        for _ in range(rng.randrange(4)):
            cur = rng.choice(nbrs[cur])
            walk.append(cur)
        g = rng.choice(group.elements)
        v = act.apply_vertex(group.inverse(g), cur)
        segments.append(walk)
        arrows.append((v, g))
        cur, walk = v, [v]
    for _ in range(rng.randrange(4)):
        cur = rng.choice(nbrs[cur])
        walk.append(cur)
    walk.extend(h1_up.tree_walk(cur, start)[1:])
    segments.append(walk)
    return GPath(act, segments, arrows)


def test_criterion_05_hurewicz_factorization():
    ok = True
    for i, name in enumerate(CORPUS):
        doc = document(name)
        act, qres = groupoid(name)
        om = doc.cochain(CHOSEN[name])
        down = descend_cochain(qres, om)
        h1 = H1Presentation(qres.complex)
        ph = period_homomorphism(h1, down)
        h1_up = H1Presentation(act.complex)
        nbrs = adjacency(act.complex)
        rng = random.Random(777 + i)
        for _ in range(50):
            gp = random_gloop(act, h1_up, nbrs, rng)
            cls = hurewicz_class(gp, qres, h1)
            ok = ok and ph.period_of_class(cls) == gpath_period(gp, om)
    report(5, "periods factor through the orbit space hurewicz map "
              "(50 loops per action)", ok)


# ------------------------------------------------------------ criterion 6

def test_criterion_06_cyclic_cover_oracle():
    start = time.monotonic()
    ok = True
    for name, cname in RANK_ONE:
        _, down = orbit_cochain(name, cname)
        lift = integralize(down)
        for p in (2, 3, 5):
            check = cyclic_cover_oracle(lift, p)
            ok = ok and check.consistent
    elapsed = time.monotonic() - start
    report(6, "finite cyclic covers agree for p in {2, 3, 5} "
              "(%.1fs)" % elapsed, ok and elapsed < 60)


# ------------------------------------------------------------ criterion 7

def test_criterion_07_scaling_and_gauge_invariance():
    start = time.monotonic()
    ok = True
    for name, cname in RANK_ONE:
        _, down = orbit_cochain(name, cname)
        base = novikov_numbers(down)
        for m in (2, 3, 7):
            scaled = novikov_numbers(down.scale(m))
            ok = ok and scaled.betti == base.betti
            ok = ok and scaled.torsion == base.torsion
    pairs = [(name, CHOSEN[name]) for name in CORPUS]
    pairs.append(("torus7", "irr"))
    for i, (name, cname) in enumerate(pairs):
        X, down = orbit_cochain(name, cname)
        base = novikov_numbers(down)
        rng = random.Random(4242 + i)
        for _ in range(20):
            f = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for v in X.vertices if rng.random() < 0.5}
            shifted = down.add(coboundary0(X, f, down.space))
            nums = novikov_numbers(shifted)
            ok = ok and nums.betti == base.betti
            ok = ok and nums.torsion == base.torsion
    elapsed = time.monotonic() - start
    report(7, "numbers invariant under positive scaling and gauge "
              "shifts (%.1fs)" % elapsed, ok and elapsed < 10)


# ------------------------------------------------------------ criterion 8

def test_criterion_08_euler_characteristic():
    ok = True
    for name in CORPUS:
        doc = document(name)
        for cname in doc.cocycle_names():
            X, down = orbit_cochain(name, cname)
            nums = novikov_numbers(down)
            alt = sum((-1) ** q * b for q, b in enumerate(nums.betti))
            ok = ok and alt == euler_characteristic(X)
    report(8, "alternating betti sum equals the euler characteristic "
              "for every class", ok)


# ------------------------------------------------------------ criterion 9

def test_criterion_09_rank_zero_factors_match_snf():
    ws0 = WeightSystem([])
    rng = random.Random(13579)
    ok = True
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        entries = {(i, j): LaurentPoly.const(0, c)
                   for i, row in enumerate(rows)
                   for j, c in enumerate(row)}
        inv = invariant_factors(
            WeightedLaurentMatrix(ws0, m, n, entries))
        snf = smith_normal_form(rows)
        expected = [d for d in snf.diagonal if d != 0]
        got = [abs(p.terms.get((), 0)) for p in inv.factors]
        ok = ok and got == expected
        ok = ok and inv.nonunit_count == sum(1 for d in expected if d > 1)
    report(9, "weight rank zero invariant factors match integer smith "
              "form on 200 random matrices", ok)


# ----------------------------------------------------------- criterion 10

def test_criterion_10_critical_data_verdicts():
    doc = document("pillowcase")
    _, down = orbit_cochain("pillowcase", "zero")
    nums = novikov_numbers(down)
    ok = nums.betti == [1, 0, 1]
    rep = check_inequalities(nums, CriticalData([0, 0, 0]))
    ok = ok and not rep.holds
    ok = ok and rep.violations()
    ok = ok and all(row.slack < 0 for row in rep.violations())
    ok = ok and all("VIOLATED" in repr(row) for row in rep.violations())
    rng = random.Random(606)
    for _ in range(10):
        counts = [rng.randint(0, 2) for _ in range(3)]
        rep2 = check_inequalities(nums, CriticalData(counts))
        ok = ok and isinstance(rep2.holds, bool)  # verdict, not a crash
    good = check_inequalities(nums, doc.critical("minimal"))
    ok = ok and good.holds and all(row.slack == 0 for row in good.rows)
    report(10, "undersized critical data is reported, the tight fit "
               "passes with zero slack", ok)

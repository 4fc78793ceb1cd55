import json
import math
import random
import re
import time
from fractions import Fraction
from importlib import resources

import pytest

from orbinov.actions import quotient_complex
from orbinov.cli import corpus_names, resolve_document
from orbinov.cochains import (PeriodSpace, RationalCochain1, coboundary0,
                              descend_cochain, forest_periods, is_exact,
                              is_invariant, subdivide_cochain)
from orbinov.complexes import (SdResult, barycentric_subdivision,
                               bfs_forest, build_complex)
from orbinov.documents import OrbifoldDocument, format_fraction
from orbinov.errors import DocumentError, ValidationError
from orbinov.twisted import integralize

import make_corpus
from families import (ALPHA, circle, circle_dtheta, grid_class,
                      hexagon_action, hexagon_dtheta, mirror_square_action,
                      torus_grid, torus_reflection, z2_grid_actions)
from oracles import first_open_triangle, forest_periods_oracle

F = Fraction


def test_period_space():
    sp = PeriodSpace(["alpha"], {"alpha": F(141421356, 10 ** 8)})
    assert sp.k == 2
    assert sp.vector(1) == (F(1), F(0))
    assert sp.vector(["1/3", 2]) == (F(1, 3), F(2))
    assert sp.shadow_value((F(1), F(2))) == 1 + 2 * F(141421356, 10 ** 8)
    assert sp.format((F(1, 3), F(2))) == "1/3 + 2*alpha"
    assert sp.format(sp.zero()) == "0"
    with pytest.raises(DocumentError):
        PeriodSpace(["a", "a"])
    with pytest.raises(DocumentError):
        PeriodSpace(["a"], {"b": 1})
    with pytest.raises(ValidationError):
        PeriodSpace(["a"]).shadow_value((F(0), F(1)))


def test_cochain_basics():
    om = circle_dtheta()
    assert om.value("a", "b") == (F(1, 3),)
    assert om.value("b", "a") == (F(-1, 3),)
    assert om.value("c", "c") == (F(0),)
    assert om.sum_along(["a", "b", "c", "a"]) == (F(1),)
    assert om.sum_along(["a", "a", "b"]) == (F(1, 3),)
    path = build_complex([("a", "b"), ("b", "c")])
    walker = RationalCochain1(path, {("a", "b"): 1})
    with pytest.raises(ValidationError):
        walker.value("a", "c")
    for u, v in (("a", "nope"), ("nope", "a")):
        with pytest.raises(DocumentError, match="unknown vertex"):
            walker.value(u, v)
    assert not om.is_zero()
    doubled = om.add(om)
    assert doubled.value("a", "b") == (F(2, 3),)
    assert om.scale(3).sum_along(["a", "b", "c", "a"]) == (F(3),)


def test_cochain_validation():
    X = build_complex([("a", "b", "c")])
    with pytest.raises(ValidationError):
        RationalCochain1(X, {("a", "b"): F(1)})   # not closed on the triangle
    RationalCochain1(X, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    with pytest.raises(DocumentError):
        RationalCochain1(X, {("a", "b"): 1, ("b", "a"): -1,
                             ("b", "c"): 1, ("a", "c"): 2})
    with pytest.raises(DocumentError):
        RationalCochain1(X, {("a", "a"): 1})
    with pytest.raises(DocumentError):
        RationalCochain1(X, {("a", "nope"): 1})
    Y = build_complex([("a", "b"), ("c", "d")])
    with pytest.raises(ValidationError):
        RationalCochain1(Y, {("a", "c"): 1})


def test_exactness():
    X = circle()
    df = coboundary0(X, {"b": F(1, 2)})
    f = is_exact(df)
    assert f is not None
    assert f["a"] == (F(0),) and f["b"] == (F(1, 2),)
    assert is_exact(circle_dtheta()) is None
    # exactness is linear: subtracting the coboundary of the found
    # potential kills the cochain
    back = coboundary0(X, {v: vec[0] for v, vec in f.items()})
    assert back == df


def test_invariance():
    act = hexagon_action()
    assert is_invariant(act, hexagon_dtheta(act))
    skew = coboundary0(act.complex, {"h1": F(1)})
    assert not is_invariant(act, skew)


def test_cochains_on_other_complexes_are_refused():
    act = hexagon_action()
    om = hexagon_dtheta(act)
    other = hexagon_dtheta(hexagon_action())
    with pytest.raises(DocumentError):
        om.add(other)
    symbolic = RationalCochain1(act.complex, {}, PeriodSpace(["alpha"]))
    with pytest.raises(DocumentError):
        om.add(symbolic)
    with pytest.raises(DocumentError):
        is_invariant(act, other)


def test_subdivision_preserves_sums_and_exactness():
    X = circle()
    om = circle_dtheta()
    sd = barycentric_subdivision(X)
    om2 = subdivide_cochain(sd, om)
    assert om2.value("(a)", "(a,b)") == (F(1, 6),)
    assert om2.value("(b)", "(a,b)") == (F(-1, 6),)
    loop = ["(a)", "(a,b)", "(b)", "(b,c)", "(c)", "(a,c)", "(a)"]
    assert om2.sum_along(loop) == (F(1),)

    rng = random.Random(3)
    tri = build_complex([("a", "b", "c"), ("b", "c", "d")])
    pot = {v: F(rng.randint(-6, 6), rng.randint(1, 4)) for v in tri.vertices}
    df = coboundary0(tri, pot)
    sd2 = barycentric_subdivision(tri)
    df2 = subdivide_cochain(sd2, df)
    f = is_exact(df2)
    assert f is not None
    # original vertices keep their potential differences
    for u in tri.vertices:
        for v in tri.vertices:
            du = f[("(%s)" % u)]
            dv = f[("(%s)" % v)]
            assert dv[0] - du[0] == pot[v] - pot[u]


def test_subdivision_refuses_edges_that_are_no_face_flag():
    sd = barycentric_subdivision(circle())
    # the barycenter of (a,b) read back as the vertex c: the edge from
    # (a) to it joins two vertices
    cell_of = dict(sd.cell_of, **{"(a,b)": ("c",)})
    bad = SdResult(sd.complex, sd.barycenter_of, cell_of)
    with pytest.raises(ValidationError, match="not a face flag"):
        subdivide_cochain(bad, circle_dtheta())


def test_descend_hexagon():
    act = hexagon_action()
    om = hexagon_dtheta(act)
    res = quotient_complex(act)
    om_y = descend_cochain(res, om)
    Y = res.complex
    assert Y.dim == 1 and len(Y.cells[1]) == 3
    total = F(0)
    for (u, v) in Y.cells[1]:
        val = om_y.value(u, v)[0]
        assert abs(val) == F(1, 6)
        total += abs(val)
    assert total == F(1, 2)
    loop = ["q0", "q1", "q2", "q0"]
    assert abs(om_y.sum_along(loop)[0]) == F(1, 2)


def test_descend_requires_invariance():
    act = hexagon_action()
    res = quotient_complex(act)
    bad = coboundary0(act.complex, {"h1": F(1)})
    with pytest.raises(ValidationError, match="not invariant, hence not basic"):
        descend_cochain(res, bad)
    # the mirror flips the edge (s0, s1), so the disagreement is found
    # on the subdivided complex
    act = mirror_square_action()
    res = quotient_complex(act)
    assert res.stages == 1
    bad = RationalCochain1(act.complex, {("s1", "s2"): F(1)})
    with pytest.raises(ValidationError, match="not invariant, hence not basic"):
        descend_cochain(res, bad)


def test_descent_refuses_exactly_the_non_invariant_cochains():
    # the descent's orbit agreement is the basic-class test; it must
    # agree with the group-element definition in both directions
    cases = []
    for name in corpus_names():
        doc = resolve_document(name)
        if doc.action is not None:
            cases.append((doc.action, [doc.cochain(c)
                                       for c in doc.cocycle_names()]))
    cases += [(act, []) for act in z2_grid_actions()]
    rng = random.Random(19)
    for act, classes in cases:
        X = act.complex
        res = quotient_complex(act)
        pot = {v: F(rng.randint(-4, 4), rng.randint(1, 3))
               for v in X.vertices}
        # summing a potential over each orbit makes it invariant
        averaged = {v: sum(pot[act.apply_vertex(g, v)]
                           for g in act.group.elements) for v in X.vertices}
        cochains = classes + [om.add(coboundary0(X, pot, om.space))
                              for om in classes]
        cochains += [coboundary0(X, pot), coboundary0(X, averaged)]
        verdicts = set()
        for om in cochains:
            invariant = is_invariant(act, om)
            verdicts.add(invariant)
            if invariant:
                assert descend_cochain(res, om).complex is res.complex
            else:
                with pytest.raises(ValidationError,
                                   match="not invariant, hence not basic"):
                    descend_cochain(res, om)
        assert verdicts == {True, False}, X


def test_descend_through_subdivision():
    act = mirror_square_action()
    values = {("s1", "s2"): F(1), ("s0", "s3"): F(1)}
    om = RationalCochain1(act.complex, values)
    assert is_invariant(act, om)
    res = quotient_complex(act)
    assert res.stages == 1
    om_y = descend_cochain(res, om)
    # the quotient is an interval, so everything is exact down there
    assert is_exact(om_y) is not None
    halves = sorted(abs(om_y.value(u, v)[0]) for (u, v) in res.complex.cells[1])
    assert halves == [F(0), F(0), F(1, 2), F(1, 2)]


def test_descend_pillowcase_zero_and_bump():
    act = torus_reflection(4)
    res = quotient_complex(act)
    zero = RationalCochain1(act.complex, {})
    z_y = descend_cochain(res, zero)
    assert z_y.is_zero()
    # an invariant coboundary descends to an exact cochain
    bump_pot = {"g1_1": F(1), "g3_3": F(1)}
    bump = coboundary0(act.complex, bump_pot)
    assert is_invariant(act, bump)
    b_y = descend_cochain(res, bump)
    assert is_exact(b_y) is not None


def gauged(rng, om):
    """om times a positive rational plus the coboundary of a seeded
    potential with denominators up to 12."""
    pot = {v: tuple(F(rng.randint(-9, 9), rng.randint(1, 12))
                    for _ in range(om.space.k)) for v in om.complex.vertices}
    scale = F(rng.randint(1, 9), rng.randint(1, 12))
    return om.scale(scale).add(coboundary0(om.complex, pot, om.space))


def over(D, table):
    """{key: integer numerator vector} divided by D, as Fractions."""
    return {key: tuple(F(n, D) for n in vec) for key, vec in table.items()}


def assert_kernels_match(om, rng):
    """Integer periods and closedness against the Fraction reference:
    equal periods and potential once divided by D, and after a seeded
    one-edge bump the same first open triangle, or none."""
    X = om.complex
    parent, order = bfs_forest(X)
    D, pot, periods = forest_periods(om, parent, order)
    f, oracle_periods = forest_periods_oracle(om, parent, order)
    assert over(D, pot) == f and over(D, periods) == oracle_periods
    assert is_exact(om) == (None if periods else f)
    if X.dim < 1:
        return
    values = dict(om.values)
    edge = rng.choice(X.cells[1])
    vec = list(values.get(edge, om.space.zero()))
    vec[rng.randrange(om.space.k)] += F(rng.choice((-1, 1)),
                                        rng.randint(1, 12))
    values[edge] = tuple(vec)
    tri = first_open_triangle(X, values, om.space.k)
    if tri is None:
        RationalCochain1(X, values, om.space)
    else:
        msg = "cochain is not closed on triangle %r" % (tri,)
        with pytest.raises(ValidationError, match=re.escape(msg)):
            RationalCochain1(X, values, om.space)


def test_integer_kernels_match_fractions_on_the_corpus():
    rng = random.Random("kernels/corpus")
    count = 0
    for name in corpus_names():
        doc = resolve_document(name)
        qres = quotient_complex(doc.action) if doc.action else None
        for cname in doc.cocycle_names():
            om = doc.cochain(cname)
            classes = [om, descend_cochain(qres, om)] if qres else [om]
            for cochain in classes:
                assert_kernels_match(cochain, rng)
                assert_kernels_match(gauged(rng, cochain), rng)
                count += 1
    assert count >= 15


@pytest.mark.parametrize("n", range(3, 9))
def test_integer_kernels_match_fractions_on_seeded_grids(n):
    rng = random.Random("kernels/grid/%d" % n)
    X = torus_grid(n)
    for space in (PeriodSpace(), ALPHA):
        for _ in range(3):
            a, b = ([rng.randint(-4, 4) for _ in range(space.k)]
                    for _ in range(2))
            om = grid_class(X, n, a, b, space)
            assert_kernels_match(om, rng)
            assert_kernels_match(gauged(rng, om), rng)


def test_integer_kernels_on_degenerate_complexes():
    rng = random.Random("kernels/degenerate")
    path = build_complex([("a", "b"), ("b", "c"), ("c", "d")])
    points = build_complex([("a",), ("b",)])
    surface = torus_grid(3)
    for space in (PeriodSpace(), ALPHA):
        for X in (circle(), path, points, surface):
            zero = RationalCochain1(X, {}, space)
            assert_kernels_match(zero, rng)
            assert is_exact(zero) == {v: space.zero() for v in X.vertices}
            if X.dim >= 1:
                assert_kernels_match(gauged(rng, zero), rng)
        loop = {("a", "b"): (F(1, 3),) * space.k, ("b", "c"): space.zero(),
                ("a", "c"): (F(-2, 7),) * space.k}
        assert_kernels_match(RationalCochain1(circle(), loop, space), rng)


def test_integer_kernels_with_200_prime_denominators():
    primes = [p for p in range(2, 1300)
              if all(p % d for d in range(2, p))][:200]
    X = torus_grid(15)
    gauge = {v: F(1, p) for v, p in zip(X.vertices, primes)}
    values = coboundary0(X, gauge).add(
        grid_class(X, 15, [1], [2], PeriodSpace())).values
    start = time.perf_counter()
    om = RationalCochain1(X, values)
    parent, order = bfs_forest(X)
    D, pot, periods = forest_periods(om, parent, order)
    lift = integralize(om)
    assert time.perf_counter() - start < 1.0
    f, oracle_periods = forest_periods_oracle(om, parent, order)
    assert over(D, pot) == f and over(D, periods) == oracle_periods
    assert periods and lift.rank == 1
    assert lift.exponents.keys() == oracle_periods.keys()
    for e, exps in lift.exponents.items():
        assert tuple(sum((c * b[i] for c, b in zip(exps, lift.basis)), F(0))
                     for i in range(om.space.k)) == oracle_periods[e]
    common = math.lcm(*(x.denominator for vec in values.values()
                        for x in vec))
    assert len(primes) == 200 and all(common % p == 0 for p in primes)
    assert D == common


@pytest.mark.parametrize("call, bad", [
    (lambda X, om: PeriodSpace().vector((0.1,)), "0.1"),
    (lambda X, om: PeriodSpace().vector(0.1), "0.1"),
    (lambda X, om: PeriodSpace().vector(True), "True"),
    (lambda X, om: PeriodSpace(["a"]).vector(["1/2", False]), "False"),
    (lambda X, om: PeriodSpace().vector("1/0"), "'1/0'"),
    (lambda X, om: om.scale(0.1), "0.1"),
    (lambda X, om: PeriodSpace(["a"], {"a": 1.5}), "1.5"),
    (lambda X, om: coboundary0(X, {"b": 0.1}), "0.1"),
    (lambda X, om: RationalCochain1(X, {("a", "b"): 0.5}), "0.5"),
], ids=["float_coordinate", "float", "bool", "bool_coordinate",
        "zero_denominator", "scale", "shadow", "potential", "value"])
def test_the_exact_api_refuses_floats_and_bools(call, bad):
    X = circle()
    with pytest.raises(DocumentError,
                       match="^%s is not an exact rational" % re.escape(bad)):
        call(X, circle_dtheta(X))


@pytest.fixture
def trusted_twins(monkeypatch):
    """Every cochain the trusted constructor builds is built again by
    the public one from the same arguments; values and numerators must
    agree.  Returns the trusted cochains in the order built."""
    built = []
    trusted = RationalCochain1._of.__func__

    def checked(cls, complex, values, space):
        om = trusted(cls, complex, values, space)
        twin = RationalCochain1(complex, values, space)
        assert (om.values, om.numerators) == (twin.values, twin.numerators)
        built.append(om)
        return om

    monkeypatch.setattr(RationalCochain1, "_of", classmethod(checked))
    return built


def assert_trusted_path_matches(data):
    """Parse document data and check each class against the public
    constructor on the document's raw entries, then descend it, so the
    trusted_twins fixture checks the descent and every subdivision
    stage.  Returns the number of subdivision stages run."""
    doc = OrbifoldDocument.from_dict(data)
    qres = quotient_complex(doc.action) if doc.action else None
    stages = 0
    for cname, spec in data["cocycles"].items():
        raw = {(u, v): value for u, v, value in spec.get("edges", [])}
        om = doc.cochain(cname)
        ref = RationalCochain1(doc.space, raw, doc.period_space(cname))
        assert (om.values, om.numerators) == (ref.values, ref.numerators)
        if qres is not None:
            descend_cochain(qres, om)
            stages += len(qres.subdivisions)
    return stages


def test_trusted_cochains_match_the_public_constructor_on_the_corpus(
        trusted_twins):
    stages = classes = 0
    for name in corpus_names():
        text = resources.files("orbinov").joinpath(
            "corpus", name + ".json").read_text(encoding="utf-8")
        data = json.loads(text)
        stages += assert_trusted_path_matches(data)
        classes += len(data["cocycles"])
    # 15 parsed classes, 7 of them descended, the 2 of mirror_square
    # through one subdivision stage each
    assert classes == 15 and stages == 2 and len(trusted_twins) == 24


def seeded_document(rng, X, om, action=None):
    """Document data carrying om as its class w, written with the
    make_corpus helpers: entries shuffled, each reversed and negated at
    random, explicit zeros on some edges, the Z/2 action when given."""
    entries = []
    for (u, v) in X.edges():
        vec = om.values.get((u, v))
        if vec is None:
            if rng.random() < 0.8:
                continue
            vec = om.space.zero()
        if rng.random() < 0.5:
            u, v, vec = v, u, tuple(-x for x in vec)
        entries.append([u, v, [format_fraction(x) for x in vec]])
    rng.shuffle(entries)
    shadows = {s: "1.41421356" for s in om.space.symbols}
    space = make_corpus.orbit_dict(X)
    data = {"name": "seeded", "description": "", "critical_data": {},
            "cocycles": {"w": make_corpus.cocycle_dict(
                entries, om.space.symbols, shadows)}}
    if action is None:
        data["orbit"] = space
    else:
        data["action"] = {"group": dict(make_corpus.Z2_GROUP),
                          "space": space,
                          "vertex_maps": {"m": dict(action.vertex_maps["m"])}}
    return data


def test_trusted_cochains_match_the_public_constructor_on_seeded_documents(
        trusted_twins):
    rng = random.Random("trusted/seeded")
    stages = documents = 0
    for act in z2_grid_actions():
        X, flip = act.complex, act.vertex_maps["m"]
        for space in (PeriodSpace(), ALPHA):
            pot = {}
            for v in X.vertices:
                pot[v] = pot.get(flip[v]) or tuple(
                    F(rng.randint(-9, 9), rng.randint(1, 12))
                    for _ in range(space.k))
            om = coboundary0(X, pot, space)
            stages += assert_trusted_path_matches(
                seeded_document(rng, X, om, act))
            documents += 1
    for n in range(3, 7):
        X = torus_grid(n)
        for space in (PeriodSpace(), ALPHA):
            a, b = ([rng.randint(-4, 4) for _ in range(space.k)]
                    for _ in range(2))
            om = gauged(rng, grid_class(X, n, a, b, space))
            assert_trusted_path_matches(seeded_document(rng, X, om))
            documents += 1
    assert documents == 18 and stages > 0

import random
from itertools import permutations, product

import pytest

from orbinov.actions import (FiniteGroup, SimplicialAction, is_regular,
                             lift_action, quotient_complex)
from orbinov.complexes import (barycentric_subdivision, build_complex,
                               euler_characteristic, integer_homology)
from orbinov.cli import corpus_names, resolve_document
from orbinov.errors import DocumentError, ValidationError

from test_tools import load_script

Z2 = FiniteGroup(["e", "m"], [["e", "m"], ["m", "e"]])


def cycle_complex(labels):
    edges = [(labels[i], labels[(i + 1) % len(labels)])
             for i in range(len(labels))]
    return build_complex(edges, vertices=labels)


def hexagon_action():
    labels = ["h%d" % i for i in range(6)]
    X = cycle_complex(labels)
    rot = {"h%d" % i: "h%d" % ((i + 3) % 6) for i in range(6)}
    return SimplicialAction(Z2, X, {"m": rot})


def mirror_square_action():
    labels = ["s%d" % i for i in range(4)]
    X = cycle_complex(labels)
    m = {"s0": "s1", "s1": "s0", "s2": "s3", "s3": "s2"}
    return SimplicialAction(Z2, X, {"m": m})


def antipodal_square_action():
    labels = ["s%d" % i for i in range(4)]
    X = cycle_complex(labels)
    a = {"s%d" % i: "s%d" % ((i + 2) % 4) for i in range(4)}
    return SimplicialAction(Z2, X, {"m": a})


def torus_grid(n):
    tris = []
    for x in range(n):
        for y in range(n):
            p = "g%d_%d" % (x, y)
            q = "g%d_%d" % ((x + 1) % n, y)
            r = "g%d_%d" % (x, (y + 1) % n)
            s = "g%d_%d" % ((x + 1) % n, (y + 1) % n)
            tris.append((p, q, s))
            tris.append((p, s, r))
    return build_complex(tris)


def torus3_grid(n):
    """Freudenthal triangulation of the 3-torus on an n^3 grid: each cube
    splits into six tetrahedra along its main diagonal, one for each
    order of the three unit steps."""
    tets = []
    for corner in product(range(n), repeat=3):
        for steps in permutations(range(3)):
            p = list(corner)
            cell = ["t%d_%d_%d" % tuple(p)]
            for axis in steps:
                p[axis] += 1
                cell.append("t%d_%d_%d" % tuple(c % n for c in p))
            tets.append(tuple(cell))
    return build_complex(tets)


def pillowcase_action():
    X = torus_grid(4)
    neg = {"g%d_%d" % (x, y): "g%d_%d" % ((-x) % 4, (-y) % 4)
           for x in range(4) for y in range(4)}
    return SimplicialAction(Z2, X, {"m": neg})


def test_group_validation():
    with pytest.raises(DocumentError):
        FiniteGroup(["e", "e"], [["e", "e"], ["e", "e"]])
    with pytest.raises(DocumentError):
        FiniteGroup(["e"], [["x"]])
    with pytest.raises(ValidationError):
        # left-identity only, not a group
        FiniteGroup(["a", "b"], [["a", "b"], ["a", "b"]])
    # Z/4 sanity
    z4 = FiniteGroup.cyclic(4)
    assert z4.identity == "g0"
    assert z4.inverse("g1") == "g3"
    assert z4.order == 4


def test_nonassociative_table_rejected():
    # commutative magma with identity that fails associativity
    els = ["e", "a", "b"]
    table = [["e", "a", "b"],
             ["a", "e", "a"],
             ["b", "a", "e"]]
    with pytest.raises(ValidationError):
        FiniteGroup(els, table)


def test_action_validation():
    labels = ["s%d" % i for i in range(4)]
    X = cycle_complex(labels)
    with pytest.raises(DocumentError):
        SimplicialAction(Z2, X, {})                     # missing map for m
    with pytest.raises(DocumentError):
        SimplicialAction(Z2, X, {"m": {v: "s0" for v in labels}})
    # a bijection that is not simplicial: swap two adjacent vertices only
    bad = {"s0": "s1", "s1": "s0", "s2": "s2", "s3": "s3"}
    with pytest.raises(ValidationError):
        SimplicialAction(Z2, X, {"m": bad})
    # involution failing the table: a 4-cycle is not of order 2
    four = {"s0": "s1", "s1": "s2", "s2": "s3", "s3": "s0"}
    with pytest.raises(ValidationError):
        SimplicialAction(Z2, X, {"m": four})


def test_identity_map_autofilled():
    act = hexagon_action()
    assert act.apply_vertex("e", "h2") == "h2"
    assert act.apply_vertex("m", "h2") == "h5"
    assert act.apply_tuple("m", ("h4", "h1")) == ("h1", "h4")
    assert act.apply_cell("m", ("h1", "h4")) == ("h1", "h4")


def test_regularity_judgments():
    assert is_regular(hexagon_action())
    assert not is_regular(mirror_square_action())
    # the antipodal square passes the weak orbit test but is irregular
    act = antipodal_square_action()
    for edge in act.complex.cells[1]:
        o0 = set(act.vertex_orbit(edge[0]))
        o1 = set(act.vertex_orbit(edge[1]))
        assert not (o0 & o1)
    assert not is_regular(act)
    assert is_regular(pillowcase_action())


def test_hexagon_quotient_is_circle():
    res = quotient_complex(hexagon_action())
    assert res.stages == 0 and not res.subdivided
    assert integer_homology(res.complex).betti == [1, 1]
    assert len(res.complex.vertices) == 3
    # projection constant on orbits
    act = res.action
    for g in act.group.elements:
        for v in act.complex.vertices:
            assert res.projection[act.apply_vertex(g, v)] == res.projection[v]


def test_mirror_square_quotient_is_interval():
    res = quotient_complex(mirror_square_action())
    assert res.subdivided and res.stages == 1
    H = integer_homology(res.complex)
    assert H.betti == [1, 0]
    assert euler_characteristic(res.complex) == 1


def test_antipodal_square_quotient_is_circle():
    res = quotient_complex(antipodal_square_action())
    assert res.subdivided
    assert integer_homology(res.complex).betti == [1, 1]


def test_pillowcase_quotient_is_sphere():
    res = quotient_complex(pillowcase_action())
    assert res.stages == 0
    Y = res.complex
    assert euler_characteristic(Y) == 2
    assert [len(layer) for layer in Y.cells] == [10, 24, 16]
    H = integer_homology(Y)
    assert H.betti == [1, 0, 1]
    assert H.torsion == [[], [], []]


def test_lifted_action_stays_regular():
    act = hexagon_action()
    sd = barycentric_subdivision(act.complex)
    lifted = lift_action(act, sd)
    assert is_regular(lifted)
    res = quotient_complex(lifted)
    assert integer_homology(res.complex).betti == [1, 1]


def test_projection_random_invariance():
    rng = random.Random(7)
    res = quotient_complex(pillowcase_action())
    act = res.action
    verts = act.complex.vertices
    for _ in range(100):
        v = rng.choice(verts)
        g = rng.choice(act.group.elements)
        assert res.projection[act.apply_vertex(g, v)] == res.projection[v]


def reference_is_regular(action):
    """The element-tuple form of the definition: every tuple of group
    elements whose targets span a simplex is realized by one element."""
    X = action.complex
    G = action.group.elements
    maps = action.vertex_maps
    key = X.vertex_index.__getitem__
    for q in range(1, X.dim + 1):
        for cell in X.cells[q]:
            for assign in product(G, repeat=q + 1):
                targets = [maps[g][v] for g, v in zip(assign, cell)]
                spanned = tuple(sorted(set(targets), key=key))
                if not X.has_cell(spanned):
                    continue
                if not any(all(maps[g][v] == t for v, t in zip(cell, targets))
                           for g in G):
                    return False
    return True


def z2_grid_actions():
    """Point reflections of grid tori, as the pillowcase is built, and
    mirrors of grids triangulated to make the reflection simplicial, as
    the mirror cylinder is built."""
    make_corpus = load_script("tools", "make_corpus.py")
    group = FiniteGroup(make_corpus.Z2_GROUP["elements"],
                        make_corpus.Z2_GROUP["table"])
    for n in (3, 4, 5):
        def label(x, y):
            return "g%d_%d" % (x % n, y % n)
        X = build_complex(make_corpus.torus_grid_cells(n, label))
        yield SimplicialAction(group, X, {"m": {
            label(x, y): label(-x, -y) for x in range(n) for y in range(n)}})
    for ni, nj in ((3, 4), (4, 6)):
        def label(i, j):
            return "c%d_%d" % (i % ni, j % nj)
        cells = []
        for i in range(ni):
            for j in range(nj):
                p, q = label(i, j), label(i + 1, j)
                r, s = label(i, j + 1), label(i + 1, j + 1)
                if j < nj // 2:
                    cells.extend([(p, q, s), (p, s, r)])
                else:
                    cells.extend([(p, q, r), (q, s, r)])
        X = build_complex(cells)
        yield SimplicialAction(group, X, {"m": {
            label(i, j): label(i, -j) for i in range(ni) for j in range(nj)}})


def rotations(n, k):
    """Z/k rotating an n-cycle by n/k steps, a group with more than two
    elements to realize a target tuple."""
    labels = ["h%d" % i for i in range(n)]
    group = FiniteGroup.cyclic(k)
    return SimplicialAction(group, cycle_complex(labels), {
        "g%d" % t: {"h%d" % i: "h%d" % ((i + t * n // k) % n)
                    for i in range(n)}
        for t in range(k)})


def test_regularity_matches_element_tuple_definition():
    actions = [resolve_document(name).action for name in corpus_names()]
    actions = [act for act in actions if act is not None]
    actions += list(z2_grid_actions())
    actions += [hexagon_action(), mirror_square_action(),
                antipodal_square_action(), pillowcase_action(),
                rotations(6, 3), rotations(6, 6), rotations(4, 4)]
    verdicts = []
    for act in actions:
        for stages in range(3):
            if stages:
                act = lift_action(act, barycentric_subdivision(act.complex))
            verdicts.append(is_regular(act))
            assert verdicts[-1] == reference_is_regular(act), act.complex
    # both verdicts occur, before and after subdivision
    assert True in verdicts and False in verdicts

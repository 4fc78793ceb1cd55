"""Nerve operators: pinned small cases and the four chain identities."""

import contextlib
import io
import json
import random
import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from orbinov import (DocumentError, FiniteGroup, LaurentPoly,
                     RationalCochain1, SimplicialAction,
                     UnsupportedOperationError, ValidationError, cli,
                     coboundary0, descend_cochain, integralize, nerve,
                     nerve_model, quotient_complex)
from orbinov.cli import corpus_names, resolve_document
from orbinov.nerve import identity_failures, unit_cells

from families import (Z2, cycle_complex, dihedral_hexagon_action,
                      grid_class, hexagon_action, hexagon_dtheta,
                      mirror_square_action, seeded_invariant_actions,
                      torus_grid, torus_reflection)
from oracles import (reference_boundary, reference_identity_failures,
                     reference_unit_failures)


def torus_shift_action():
    # free half-turn translation in the x direction; dx is basic
    X = torus_grid(4)
    shift = {"g%d_%d" % (x, y): "g%d_%d" % ((x + 2) % 4, y)
             for x in range(4) for y in range(4)}
    return SimplicialAction(Z2, X, {"m": shift})


def model_of(act, cochain, depth):
    qres = quotient_complex(act)
    lift = integralize(descend_cochain(qres, cochain))
    return nerve_model(qres, lift, depth=depth)


def hexagon_model(depth=4):
    act = hexagon_action()
    return model_of(act, hexagon_dtheta(act), depth)


def mirror_model(depth=4):
    act = mirror_square_action()
    values = {("s1", "s2"): 1, ("s0", "s3"): 1}
    return model_of(act, RationalCochain1(act.complex, values), depth)


def shift_model(depth=4):
    act = torus_shift_action()
    return model_of(act, grid_class(act.complex, 4), depth)


def pillow_model(depth=4):
    act = torus_reflection(4)
    bump = coboundary0(act.complex, {"g1_1": 1, "g3_3": 1})
    return model_of(act, bump, depth)


def test_cell_validation():
    model = hexagon_model()
    # any ordering of a simplex is allowed as an anchor
    assert model.cell(["h1", "h0"], ["m"]) == (("h1", "h0"), ("m",))
    with pytest.raises(DocumentError):
        model.cell((), ())
    with pytest.raises(DocumentError, match="unknown vertex"):
        model.cell(("zz", "h0"), ())
    with pytest.raises(DocumentError):
        model.cell(("h0", "h0"), ())
    with pytest.raises(ValidationError):
        model.cell(("h0", "h2"), ())
    with pytest.raises(DocumentError):
        model.cell(("h0", "h1"), ("nope",))
    with pytest.raises(ValidationError):
        model.cell(("h0",), ("m", "m", "m", "m", "m"))


def test_exponent_accessor():
    model = hexagon_model()
    e01 = model.exp("h0", "h1")
    assert model.exp("h1", "h0") == tuple(-x for x in e01)
    assert model.exp("h0", "h0") == (0,) * model.r
    with pytest.raises(ValidationError):
        model.exp("h0", "h2")


def test_hexagon_exponents_are_invariant_and_integral():
    model = hexagon_model()
    assert model.r == 1
    act = model.action
    total = [0]
    for i in range(6):
        u, v = "h%d" % i, "h%d" % ((i + 1) % 6)
        e = model.exp(u, v)
        assert e == model.exp(act.apply_vertex("m", u),
                              act.apply_vertex("m", v))
        total[0] += e[0]
    # one full turn upstairs covers the orbit circle twice
    assert abs(total[0]) == 2


def test_pinned_single_letter_boundary():
    # the word boundary of (sigma, (g)) is (sigma, ()) - (sigma.g^-1, ())
    model = hexagon_model()
    got = model.group_boundary(model.unit(("h0", "h1"), ("m",)))
    assert got == {(("h0", "h1"), (), (0,)): 1, (("h3", "h4"), (), (0,)): -1}


def test_two_letter_word_boundary():
    model = hexagon_model()
    got = model.group_boundary(model.unit(("h0", "h1"), ("m", "m")))
    assert got == {(("h0", "h1"), ("m",), (0,)): 1,
                   (("h0", "h1"), ("e",), (0,)): -1,
                   (("h3", "h4"), ("m",), (0,)): 1}


def test_identity_letters_are_kept():
    # the bar construction is unnormalized: e letters are ordinary cells
    model = hexagon_model()
    c = model.unit(("h0",), ("e", "e"))
    faces = model.group_boundary(c)
    # d0 and d2 produce ("e",); d1 composes ee = e; total is one cell
    assert faces == model.unit(("h0",), ("e",))
    assert not model.group_boundary(faces)


def test_face_boundary_twists_leading_edge():
    model = shift_model()
    assert model.r == 1
    tri = model.complex.cells[2][0]
    a, b, c = tri
    got = model.face_boundary(model.unit(tri, ()))
    # the leading face moves to the exponent of the first edge
    assert got == {((b, c), (), model.exp(a, b)): 1,
                   ((a, c), (), (0,)): -1,
                   ((a, b), (), (0,)): 1}
    # vertices have no faces
    assert not model.face_boundary(model.unit((a,), ("m",)))


def test_total_boundary_mixed_cell():
    model = shift_model()
    tri = model.complex.cells[2][0]
    c = model.unit(tri, ("m", "e"))
    dd = model.total_boundary(model.total_boundary(c))
    assert not dd


def test_rejects_foreign_and_non_invariant_cochains():
    act = torus_reflection(4)
    qres = quotient_complex(act)
    # a lift must live on the orbit space, not on some other complex
    with pytest.raises(DocumentError):
        nerve_model(qres, integralize(grid_class(torus_grid(4), 4)))
    # dx flips sign under the point reflection, so it is not basic
    with pytest.raises(ValidationError, match="not invariant"):
        model_of(act, grid_class(act.complex, 4), 4)


def test_corpus_exponents_are_functions_of_orbits():
    # the model reads its exponents through the projection and does
    # not re-check their invariance, so pin it on every corpus class
    ranks = []
    for name in corpus_names():
        doc = resolve_document(name)
        if doc.action is None:
            continue
        for cname in doc.cocycle_names():
            model = model_of(doc.action, doc.cochain(cname), 2)
            act = model.action
            for (u, v) in model.complex.edges():
                for g in act.group.elements:
                    moved = model.exp(act.apply_vertex(g, u),
                                      act.apply_vertex(g, v))
                    assert moved == model.exp(u, v), (name, cname, (u, v), g)
            ranks.append(model.r)
    assert 0 in ranks and max(ranks) >= 1


def test_exact_descends_to_rank_zero():
    model = pillow_model()
    assert model.r == 0
    assert model.exp(*model.complex.edges()[0]) == ()


def _random_unit(model, rng, max_word):
    X = model.complex
    q = rng.randrange(X.dim + 1)
    anchor = list(rng.choice(X.cells[q]))
    rng.shuffle(anchor)
    word = tuple(rng.choice(model.action.group.elements)
                 for _ in range(rng.randrange(max_word + 1)))
    return model.unit(anchor, word)


@pytest.mark.parametrize("make", [hexagon_model, mirror_model, shift_model,
                                  pillow_model])
def test_chain_identities_on_seeded_cells(make):
    model = make(depth=3)
    rng = random.Random(20260816)
    for _ in range(30):
        c = _random_unit(model, rng, max_word=3)
        assert not model.group_boundary(model.group_boundary(c))
        assert not model.face_boundary(model.face_boundary(c))
        fg = model.face_boundary(model.group_boundary(c))
        gf = model.group_boundary(model.face_boundary(c))
        assert fg == gf
        assert not model.total_boundary(model.total_boundary(c))


def _random_chain(model, rng):
    # signed units at small exponents; a cell drawn twice at one
    # exponent has its coefficients summed, and may cancel
    chain = {}
    for _ in range(rng.randrange(1, 5)):
        ((anchor, word, _),) = _random_unit(model, rng, max_word=3)
        exp = tuple(rng.randrange(-2, 3) for _ in range(model.r))
        _add_into(chain, {(anchor, word, exp): rng.choice((1, -1))}, 1)
    return chain


def _sign(degree):
    return -1 if degree % 2 else 1


def _add_into(out, chain, scale):
    # out += scale * chain on flat chains, dropping zeros
    for key, c in chain.items():
        total = out.get(key, 0) + scale * c
        if total:
            out[key] = total
        else:
            out.pop(key, None)


@pytest.mark.parametrize("make", [hexagon_model, mirror_model, shift_model,
                                  pillow_model])
def test_total_boundary_matches_its_definition(make):
    # the sum over cells of the bidegree-signed word and anchor
    # boundaries of that one cell
    model = make(depth=3)
    rng = random.Random(20261018)
    chains = [_random_chain(model, rng) for _ in range(20)]
    if model.complex.dim >= 2:
        # the first word face of the first cell and the last anchor
        # face of the second land on one key with opposite total signs;
        # g^-1 moves (u, v), so the last word face lands elsewhere
        u, v, w = model.complex.cells[2][0]
        group = model.action.group
        g = next(g for g in group.elements
                 if model.action.apply_tuple(group.inverse(g), (u, v))
                 != (u, v))
        e = (0,) * model.r
        chains.append({((u, v), (g,), e): 1, ((u, v, w), (), e): -1})
        assert ((u, v), (), e) not in model.total_boundary(chains[-1])
    for c in chains:
        want = {}
        for key, coeff in c.items():
            anchor, word, _ = key
            single = {key: coeff}
            _add_into(want, model.group_boundary(single),
                      _sign(len(anchor) - 1 + len(word)))
            _add_into(want, model.face_boundary(single),
                      _sign(len(anchor) - 1))
        assert model.total_boundary(c) == want


def _poly(terms):
    return LaurentPoly(1, {(e,): c for e, c in terms.items()})


# multi-term coefficients: 1 + T, T^2 - 3T^-1, 2 - T^-2, -T + T^3
MULTI_TERM = [_poly({0: 1, 1: 1}), _poly({2: 1, -1: -3}),
              _poly({0: 2, -2: -1}), _poly({1: -1, 3: 1})]


# the references below work on chains with LaurentPoly coefficients,
# {(anchor, word): poly}, and are compared after _flat


def _flat(laurent):
    return {(anchor, word, e): c
            for (anchor, word), poly in laurent.items()
            for e, c in poly.terms.items()}


def _reference_word_faces(model, cell, coeff):
    anchor, word = cell
    group = model.action.group
    n = len(word)
    if n == 0:
        return []
    out = [((anchor, word[1:]), coeff)]
    for k in range(1, n):
        merged = (word[:k - 1] + (group.mul(word[k - 1], word[k]),)
                  + word[k + 1:])
        out.append(((anchor, merged), coeff * (-1) ** k))
    moved = model.action.apply_tuple(group.inverse(word[-1]), anchor)
    out.append(((moved, word[:-1]), coeff * (-1) ** n))
    return out


def _reference_anchor_faces(model, cell, coeff):
    anchor, word = cell
    if len(anchor) == 1:
        return []
    twist = LaurentPoly.monomial(model.r, model.exp(anchor[0], anchor[1]))
    out = [((anchor[1:], word), coeff * twist)]
    for j in range(1, len(anchor)):
        out.append(((anchor[:j] + anchor[j + 1:], word), coeff * (-1) ** j))
    return out


def _reference_sum(r, pairs):
    out = {}
    for cell, coeff in pairs:
        total = out.get(cell, LaurentPoly(r)) + coeff
        if total:
            out[cell] = total
        else:
            out.pop(cell, None)
    return out


def _multi_term_chain(model, rng):
    terms = []
    for _ in range(rng.randrange(1, 5)):
        ((anchor, word, _),) = _random_unit(model, rng, max_word=3)
        terms.append(((anchor, word),
                      rng.choice(MULTI_TERM) * rng.choice((1, -1, 2))))
    return _reference_sum(model.r, terms)


@pytest.mark.parametrize("make", [hexagon_model, shift_model])
def test_multi_term_coefficients_match_laurent_reference(make):
    # each boundary against a cell-by-cell sum in LaurentPoly arithmetic
    model = make(depth=3)
    assert model.r == 1
    rng = random.Random(20261118)
    multi = 0
    for _ in range(25):
        laurent = _multi_term_chain(model, rng)
        multi += sum(p.n_terms() > 1 for p in laurent.values())
        word = [f for cell, p in laurent.items()
                for f in _reference_word_faces(model, cell, p)]
        anchor = [f for cell, p in laurent.items()
                  for f in _reference_anchor_faces(model, cell, p)]
        total = []
        for (a, w), p in laurent.items():
            total += _reference_word_faces(
                model, (a, w), p * _sign(len(a) - 1 + len(w)))
            total += _reference_anchor_faces(model, (a, w),
                                             p * _sign(len(a) - 1))
        c = _flat(laurent)
        assert model.group_boundary(c) == _flat(_reference_sum(1, word))
        assert model.face_boundary(c) == _flat(_reference_sum(1, anchor))
        assert model.total_boundary(c) == _flat(_reference_sum(1, total))
    assert multi > 25


COMMUTE = "boundaries do not commute"
TOTAL = "total differential squared is nonzero"
FACE = "face boundary squared is nonzero"


def _bump_first_exponent(model):
    # break closedness and invariance after the model is built
    first = sorted(model.exponents)[0]
    model.exponents[first] = tuple(e + 1 for e in model.exponents[first])
    return first


@pytest.mark.parametrize("make, want", [
    (hexagon_model, {COMMUTE: 8, TOTAL: 8}),
    (shift_model, {FACE: 18, COMMUTE: 18, TOTAL: 28}),
])
def test_sampler_catches_an_unclosed_exponent(make, want):
    # the bumped edge is neither closed nor invariant: F^2 fails on the
    # triangles through it, WF = FW where the last letter m moves an
    # anchor onto or off it, and D^2 wherever either fails
    model = make(depth=3)
    first = _bump_first_exponent(model)
    edges = {first, model.action.apply_cell("m", first)}
    expected = []
    for anchor, word in unit_cells(model):
        on = set(combinations(anchor, 2))
        face = len(anchor) == 3 and first in on
        commute = word[-1:] == ("m",) and bool(on & edges)
        for what, bad in ((FACE, face), (COMMUTE, commute),
                          (TOTAL, face or commute)):
            if bad:
                expected.append("cell %r: %s" % ((anchor, word), what))
    assert same_failures(model) == expected
    assert Counter(f.rsplit(": ", 1)[1] for f in expected) == want


def test_missing_edge_exponent_still_raises():
    model = hexagon_model(depth=3)
    (u, v) = sorted(model.exponents)[0]
    del model.exponents[(u, v)]
    with pytest.raises(ValidationError, match="no exponent for edge"):
        model.face_boundary(model.unit((u, v), ("m",)))
    with pytest.raises(ValidationError, match="no exponent for edge"):
        identity_failures(model)


def corpus_models(depth):
    """The nerve model of every corpus class, orbit documents under the
    trivial action as validate quotients them."""
    for name in corpus_names():
        doc = resolve_document(name)
        act = doc.action or SimplicialAction.trivial(doc.space)
        for cname in doc.cocycle_names():
            yield model_of(act, doc.cochain(cname), depth)


def same_failures(model):
    """identity_failures(model), once the per-unit reference, with its
    third face pass for D^2, has listed the same failures."""
    fails = identity_failures(model)
    assert fails == list(reference_unit_failures(model))
    return fails


def same_verdict(model):
    """same_failures(model), once the unfactorised reference has
    failed exactly when it does."""
    fails = same_failures(model)
    clean = next(reference_identity_failures(model), None) is None
    assert clean == (not fails)
    return fails


def test_identity_failures_match_the_reference_on_the_corpus():
    # depth 0 checks F^2 alone and depth 1 has no longer words
    runs = 0
    for depth in (0, 1, 2, 3):
        for model in corpus_models(depth):
            assert same_verdict(model) == []
            runs += 1
    assert runs == 60


def mirror_cylinder_model(depth=4):
    # mirror_model's class descends to rank zero, with nothing to bump
    doc = resolve_document("mirror_cylinder")
    return model_of(doc.action, doc.cochain("dx"), depth)


@pytest.mark.parametrize("make", [hexagon_model, shift_model,
                                  mirror_cylinder_model])
def test_identity_failures_match_the_reference_on_a_bumped_exponent(make):
    model = make(depth=3)
    _bump_first_exponent(model)
    assert same_verdict(model)


def test_identity_failures_match_the_reference_on_a_tampered_action():
    # a reflection in place of the half turn still squares to the
    # identity, but moves the exponents, so the boundaries stop commuting
    model = hexagon_model(depth=3)
    model.action.vertex_maps["m"] = {"h%d" % i: "h%d" % (-i % 6)
                                     for i in range(6)}
    assert any("do not commute" in f for f in same_verdict(model))
    assert any("do not commute" in f
               for f in reference_identity_failures(model))


def test_missing_edge_exponent_raises_as_in_the_reference():
    model = hexagon_model(depth=3)
    del model.exponents[sorted(model.exponents)[0]]
    with pytest.raises(ValidationError) as want:
        list(reference_identity_failures(model))
    with pytest.raises(ValidationError) as got:
        identity_failures(model)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValidationError) as per_unit:
        list(reference_unit_failures(model))
    assert str(per_unit.value) == str(want.value)
    assert str(got.value).startswith("no exponent for edge")


def test_nerve_identities_hold_for_non_abelian_groups():
    # word letters merge as mul(w_{k-1}, w_k); merging them in the
    # wrong order (here: the transposed table) only shows when some
    # letters do not commute, and then on some unit cell
    actions = [dihedral_hexagon_action(), *seeded_invariant_actions(0)]
    non_abelian = 0
    for act in actions:
        qres = quotient_complex(act)
        lift = integralize(descend_cochain(
            qres, RationalCochain1(act.complex, {})))
        group = act.group
        swapped = any(group.mul(g, h) != group.mul(h, g)
                      for g in group.elements for h in group.elements)
        check = same_verdict if act is actions[0] else same_failures
        assert check(nerve_model(qres, lift, 3)) == []
        group.table = [list(column) for column in zip(*group.table)]
        model = nerve_model(qres, lift, 3)
        fails = check(model)
        assert bool(fails) == swapped
        # a fixed anchor would hide the slip: each dimension's anchor of
        # the longer words is one that the fewest elements fix, and the
        # slip shows on each
        anchors = {len(a): a for a, w in unit_cells(model) if len(w) > 1}

        def fixed(a):
            return sum(model.action.apply_tuple(g, a) == a
                       for g in group.elements)
        for layer in model.complex.cells:
            assert fixed(anchors[len(layer[0])]) == min(map(fixed, layer))
        assert all(any(f.startswith("cell (%r, " % (a,)) for f in fails)
                   for a in anchors.values()) == swapped
        non_abelian += swapped
    assert (len(actions), non_abelian) == (9, 5)


def test_each_long_word_anchor_is_the_first_with_the_fewest_fixers():
    # fixers counted with apply_tuple, independently of unit_cells; in
    # four dihedral actions some reflection fixes each vertex, so their
    # vertex anchor comes from the fallback
    models = [model for depth in (2, 3, 4) for model in corpus_models(depth)]
    for act in [dihedral_hexagon_action(), *seeded_invariant_actions(0)]:
        qres = quotient_complex(act)
        models.append(nerve_model(qres, integralize(descend_cochain(
            qres, RationalCochain1(act.complex, {}))), 2))
    unfree = 0
    for model in models:
        act = model.action

        def fixed(a):
            return sum(act.apply_tuple(g, a) == a
                       for g in act.group.elements)
        anchors = {len(a): a for a, w in unit_cells(model) if len(w) == 2}
        for layer in model.complex.cells:
            counts = [fixed(a) for a in layer]
            assert anchors[len(layer[0])] == layer[counts.index(min(counts))]
            unfree += min(counts) > 1
    assert (len(models), unfree) == (54, 4)


def test_the_anchor_scan_stops_at_the_first_free_cell():
    # the half turn moves every cell, so the scan of each dimension
    # reads the vertex maps on its first cell only
    model = hexagon_model(depth=2)
    read = set()

    class Reading(dict):
        def __getitem__(self, v):
            read.add(v)
            return dict.__getitem__(self, v)
    act = model.action
    act.vertex_maps = {g: Reading(m) for g, m in act.vertex_maps.items()}
    anchors = {a for a, w in unit_cells(model) if len(w) == 2}
    assert anchors == {layer[0] for layer in model.complex.cells}
    assert read == {v for a in anchors for v in a}


def _both_faces_signed_by_total_degree(anchor, word):
    sign = -1 if (anchor + word) % 2 else 1
    return sign, sign


@pytest.mark.parametrize("make", [hexagon_model, mirror_cylinder_model])
def test_one_sign_on_both_faces_fails_the_total_where_wf_is_nonzero(
        make, monkeypatch):
    # with (-1)^(anchor+word) on both faces of a bidegree the middle
    # part of D^2 is WF + FW = 2 WF, so exactly the units with WF(c) != 0
    # fail, and only the total; WF(c) comes from the reference faces
    model = make(depth=3)
    expected = []
    for anchor, word in unit_cells(model):
        unit = {(anchor, word, (0,) * model.r): 1}
        if reference_boundary(model, reference_boundary(model, unit,
                                                        word=False),
                              anchor=False):
            expected.append("cell %r: %s" % ((anchor, word), TOTAL))
    monkeypatch.setattr(nerve, "_signs", _both_faces_signed_by_total_degree)
    assert identity_failures(model) == expected
    assert expected


def test_each_unit_makes_one_face_pass_per_nonempty_chain(monkeypatch):
    # one pass over c, one over W(c) unless it is empty (the empty word,
    # or a letter that fixes the anchor) and one over F(c) unless it is
    # empty (a vertex anchor); emptiness from the reference faces
    doc = resolve_document("hexagon_z2")
    model = model_of(doc.action, doc.cochain("dtheta"), 4)
    want = 0
    for anchor, word in unit_cells(model):
        unit = {(anchor, word, (0,) * model.r): 1}
        want += (1 + bool(reference_boundary(model, unit, anchor=False))
                 + bool(reference_boundary(model, unit, word=False)))
    calls = Counter()
    kernel = nerve.NerveModel._boundaries

    def counted(self, flat):
        calls["kernel"] += 1
        return kernel(self, flat)
    monkeypatch.setattr(nerve.NerveModel, "_boundaries", counted)
    assert identity_failures(model) == []
    assert calls["kernel"] == want == 122


def test_face_tables_match_the_reference_cell_by_cell():
    # the group, face and total boundary of each unit cell alone, in
    # every vertex order of its anchor, read from the model's tables,
    # against faces listed cell by cell; the D_3 hexagon merges letters
    # that do not commute
    act = dihedral_hexagon_action()
    qres = quotient_complex(act)
    lift = integralize(descend_cochain(qres, RationalCochain1(act.complex,
                                                              {})))
    models = [model for depth in range(5) for model in corpus_models(depth)]
    models.append(nerve_model(qres, lift, 3))
    keys = 0
    for model in models:
        units = list(unit_cells(model))
        cells, n = model.complex.cells, len(model.action.group.elements)
        m = min(3, model.depth)
        short = 1 + n * (m > 0)
        longer = sum(n ** k for k in range(2, m + 1))
        assert len(units) == sum(map(len, cells)) * short + len(cells) * longer
        assert nerve._unit_count(model) == len(units)
        for anchor, word in units:
            for order in permutations(anchor):
                unit = model.unit(order, word)
                assert model.group_boundary(unit) == reference_boundary(
                    model, unit, anchor=False)
                assert model.face_boundary(unit) == reference_boundary(
                    model, unit, word=False)
                assert model.total_boundary(unit) == reference_boundary(
                    model, unit)
                keys += 1
    assert keys > 2000


def test_a_negative_depth_is_refused_where_the_model_is_built():
    # a negative depth would leave the identity check no word to check
    act = hexagon_action()
    qres = quotient_complex(act)
    lift = integralize(descend_cochain(qres, hexagon_dtheta(act)))
    with pytest.raises(ValueError,
                       match="^depth must be nonnegative, got -1$"):
        nerve_model(qres, lift, -1)


@pytest.mark.parametrize("make, step, want", [
    (hexagon_model, 1, 48), (shift_model, 24, 258),
    (mirror_cylinder_model, 1, 1329)])
def test_each_bumped_exponent_fails_as_in_the_per_unit_reference(make, step,
                                                                 want):
    # D^2 read off the four second-level parts by bidegree lists the
    # same failures, in the same order, as a third face pass over D(c); of
    # the shift model's 288 edges every 24th is bumped, to keep it short
    total = 0
    for edge in sorted(make(depth=3).exponents)[::step]:
        model = make(depth=3)
        model.exponents[edge] = tuple(e + 1 for e in model.exponents[edge])
        total += len(same_failures(model))
    assert total == want


def test_flipping_the_anchor_face_sign_keeps_the_identities(monkeypatch):
    # D^2 = 0 holds under either anchor-face sign, so long as the total
    # and the signs of W(c) and F(c) in D(c) come from one rule; a sign
    # written out beside _signs would turn into false failures here
    model = hexagon_model(depth=3)
    unit = model.unit(("h0", "h1"), ("m",))
    before = model.total_boundary(unit)
    signs = nerve._signs
    monkeypatch.setattr(nerve, "_signs",
                        lambda anchor, word: (signs(anchor, word)[0],
                                              -signs(anchor, word)[1]))
    word = model.group_boundary(unit)
    assert model.total_boundary(unit) == {
        key: c if key in word else -c for key, c in before.items()}
    runs = 0
    for depth in (2, 3):
        for model in corpus_models(depth):
            assert identity_failures(model) == []
            runs += 1
    assert runs == 30


def rotation_action(n):
    """Z/n turning a cycle of 3n vertices by three steps per letter,
    freely; the orbit space is a triangle's boundary."""
    names = ["r%d" % k for k in range(n)]
    group = FiniteGroup(names, [[names[(a + b) % n] for b in range(n)]
                                for a in range(n)])
    labels = ["c%d" % i for i in range(3 * n)]
    maps = {names[k]: {"c%d" % i: "c%d" % ((i + 3 * k) % (3 * n))
                       for i in range(3 * n)} for k in range(n)}
    return SimplicialAction(group, cycle_complex(labels), maps)


def test_a_nerve_check_past_the_unit_cap_is_refused_at_once(tmp_path):
    # 360 cells with 61 short words and two anchors with 60^2 + 60^3
    # longer ones: 461,160 units, refused before any is built
    start = time.perf_counter()
    act = rotation_action(60)
    model = model_of(act, RationalCochain1(act.complex, {}), 4)
    assert nerve._unit_count(model) == 461160 > nerve.NERVE_UNIT_CAP
    with pytest.raises(UnsupportedOperationError,
                       match="^the nerve identity check needs 461160 unit "
                             "cells; it is capped at 200000$"):
        identity_failures(model)
    assert time.perf_counter() - start < 1.0
    # the same document through validate exits 3 with that message
    group = act.group
    doc = {"name": "rot60", "description": "",
           "action": {"group": {"elements": group.elements,
                                "table": group.table},
                      "space": {"vertices": act.complex.vertices,
                                "simplices": [list(e)
                                              for e in act.complex.edges()]},
                      "vertex_maps": act.vertex_maps},
           "cocycles": {"zero": {"edges": []}}, "critical_data": {}}
    path = tmp_path / "rot60.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert cli.main(["validate", str(path)]) == 3
    assert "461160 unit cells; it is capped at 200000" in err.getvalue()

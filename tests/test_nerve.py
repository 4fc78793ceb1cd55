"""Nerve operators: pinned small cases and the four chain identities."""

import random

import pytest

from orbinov import (DocumentError, LaurentPoly, LocalChain, RationalCochain1,
                     SimplicialAction, ValidationError, coboundary0,
                     descend_cochain, integralize, nerve_model,
                     quotient_complex)
from orbinov.nerve import NerveCell, random_chain

from test_actions import (Z2, hexagon_action, mirror_square_action,
                          pillowcase_action, torus_grid)
from test_cochains import hexagon_dtheta
from test_periods import grid_dx


def torus_shift_action():
    # free half-turn translation in the x direction; grid_dx is basic
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
    return model_of(act, grid_dx(act.complex, 4), depth)


def pillow_model(depth=4):
    act = pillowcase_action()
    bump = coboundary0(act.complex, {"g1_1": 1, "g3_3": 1})
    return model_of(act, bump, depth)


def test_local_chain_algebra():
    a = NerveCell(("h0", "h1"), ())
    b = NerveCell(("h1", "h2"), ("m",))
    one = LaurentPoly.const(1, 1)
    t = LaurentPoly.monomial(1, (1,))
    ch = LocalChain(1, [(a, 2), (b, t), (a, -2)])
    assert ch.terms == {b: t}
    assert (ch - ch) == LocalChain(1)
    assert not (ch - ch)
    assert ch.scale(3).terms == {b: t * 3}
    assert ch.scale(t).terms == {b: t * t}
    assert (ch + LocalChain(1, [(a, one)])).terms == {a: one, b: t}
    assert ch != LocalChain(1, [(a, 1)])


def test_cell_validation():
    model = hexagon_model()
    # any ordering of a simplex is allowed as an anchor
    model.cell(("h1", "h0"), ())
    with pytest.raises(DocumentError):
        model.cell((), ())
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
    want = model.unit(("h0", "h1"), ()) - model.unit(("h3", "h4"), ())
    assert got == want


def test_two_letter_word_boundary():
    model = hexagon_model()
    got = model.group_boundary(model.unit(("h0", "h1"), ("m", "m")))
    want = (model.unit(("h0", "h1"), ("m",))
            - model.unit(("h0", "h1"), ("e",))
            + model.unit(("h3", "h4"), ("m",)))
    assert got == want


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
    head = LaurentPoly.monomial(1, model.exp(a, b))
    got = model.face_boundary(model.unit(tri, ()))
    want = (LocalChain(1, [(NerveCell((b, c), ()), head)])
            - model.unit((a, c), ())
            + model.unit((a, b), ()))
    assert got == want
    # vertices have no faces
    assert not model.face_boundary(model.unit((a,), ("m",)))


def test_total_boundary_mixed_cell():
    model = shift_model()
    tri = model.complex.cells[2][0]
    c = model.unit(tri, ("m", "e"))
    dd = model.total_boundary(model.total_boundary(c))
    assert not dd


def test_rejects_foreign_and_non_invariant_cochains():
    act = pillowcase_action()
    qres = quotient_complex(act)
    # a lift must live on the orbit space, not on some other complex
    with pytest.raises(DocumentError):
        nerve_model(qres, integralize(grid_dx(torus_grid(4), 4)))
    # dx flips sign under the point reflection, so it is not basic
    with pytest.raises(ValidationError, match="not invariant"):
        model_of(act, grid_dx(act.complex, 4), 4)


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


@pytest.mark.parametrize("make", [hexagon_model, mirror_model, shift_model,
                                  pillow_model])
def test_total_boundary_matches_its_definition(make):
    # the sum over cells of the bidegree-signed word and anchor
    # boundaries of that one cell
    model = make(depth=3)
    rng = random.Random(20261018)
    for _ in range(20):
        c = random_chain(model, rng, max_word=3, max_cells=4)
        want = LocalChain(model.r)
        for cell, coeff in c.terms.items():
            single = LocalChain(model.r, {cell: coeff})
            s_group = -1 if (cell.q + cell.n) % 2 else 1
            s_face = -1 if cell.q % 2 else 1
            want = (want + model.group_boundary(single).scale(s_group)
                    + model.face_boundary(single).scale(s_face))
        assert model.total_boundary(c) == want

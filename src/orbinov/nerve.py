"""The action groupoid's nerve with local coefficients.

Cells are pairs (anchor, word): an ordered simplex of the space the
group acts on, together with a string of group elements.  Two
boundary operators act on chains of such cells.  The group direction
drops or composes word letters, with the last face relocating the
anchor by the inverse of the dropped letter.  The space direction is
the twisted simplicial boundary: dropping the anchor's first vertex
transports the coefficient by the monomial of the first edge.

Exponents come from the quotient: nerve_model takes the quotient of
the action and the integral lift of the class descended to the orbit
space (descend_cochain, then integralize, both done by the caller),
and pulls the lift's exponents back along the projection.  That makes
them invariant by construction, which is exactly what the mixed
commutation identity needs; invariance and closedness of the pulled
back exponents are still re-verified when the model is built.

The operators satisfy four identities: each boundary squares to zero,
they commute, and the total differential (with the bidegree sign
rule) squares to zero.  These are checked cell by cell in the test
harness; the module itself stays agnostic about truncation except for
refusing words longer than its depth.
"""

import random

from .errors import DocumentError, ValidationError
from .laurent import LaurentPoly

__all__ = ["NerveCell", "LocalChain", "NerveModel", "nerve_model",
           "random_chain", "identity_failures"]


class NerveCell:
    """An ordered anchor simplex with a word of group elements."""

    __slots__ = ("anchor", "word")

    def __init__(self, anchor, word):
        self.anchor = tuple(anchor)
        self.word = tuple(word)

    @property
    def q(self):
        return len(self.anchor) - 1

    @property
    def n(self):
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, NerveCell)
                and self.anchor == other.anchor and self.word == other.word)

    def __hash__(self):
        return hash((self.anchor, self.word))

    def __repr__(self):
        return "NerveCell(%r, %r)" % (self.anchor, self.word)


class LocalChain:
    """Finite formal sum of nerve cells with Laurent coefficients."""

    __slots__ = ("r", "terms")

    def __init__(self, r, terms=()):
        self.r = r
        clean = {}
        for cell, coeff in (terms.items() if isinstance(terms, dict)
                            else terms):
            if isinstance(coeff, int):
                coeff = LaurentPoly.const(r, coeff)
            if coeff:
                prev = clean.get(cell)
                total = coeff if prev is None else prev + coeff
                if total:
                    clean[cell] = total
                elif cell in clean:
                    del clean[cell]
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, LocalChain) and self.r == other.r
                and self.terms == other.terms)

    def __add__(self, other):
        assert self.r == other.r
        out = dict(self.terms)
        for cell, coeff in other.terms.items():
            prev = out.get(cell)
            total = coeff if prev is None else prev + coeff
            if total:
                out[cell] = total
            elif cell in out:
                del out[cell]
        return LocalChain(self.r, out)

    def __neg__(self):
        return LocalChain(self.r, {c: -p for c, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        if isinstance(poly, int):
            poly = LaurentPoly.const(self.r, poly)
        return LocalChain(self.r, {c: p * poly
                                   for c, p in self.terms.items()})

    def __repr__(self):
        return "LocalChain(%d cells)" % (len(self.terms),)


class NerveModel:
    """Boundary operators on the nerve of a regular action.

    Built by nerve_model; operates on the (possibly subdivided)
    complex that the regular action acts on.
    """

    __slots__ = ("action", "complex", "exponents", "r", "depth")

    def __init__(self, action, exponents, r, depth):
        self.action = action
        self.complex = action.complex
        self.exponents = exponents
        self.r = r
        self.depth = depth
        self._check_exponents()

    def _check_exponents(self):
        X = self.complex
        zero = (0,) * self.r
        for g in self.action.group.elements:
            for (u, v) in X.edges():
                gu, gv = (self.action.apply_vertex(g, u),
                          self.action.apply_vertex(g, v))
                if self.exp(gu, gv) != self.exp(u, v):
                    raise ValidationError(
                        "exponent cochain is not invariant on edge %r under %r"
                        % ((u, v), g))
        for tri in (X.cells[2] if X.dim >= 2 else []):
            a, b, c = tri
            total = tuple(x + y - z for x, y, z in
                          zip(self.exp(a, b), self.exp(b, c), self.exp(a, c)))
            if total != zero:
                raise ValidationError(
                    "exponent cochain is not closed on %r" % (tri,))

    def exp(self, u, v):
        """Exponent vector along the edge u -> v, antisymmetric."""
        if u == v:
            return (0,) * self.r
        if (u, v) in self.exponents:
            return self.exponents[(u, v)]
        if (v, u) in self.exponents:
            return tuple(-e for e in self.exponents[(v, u)])
        raise ValidationError("no exponent for edge %r" % ((u, v),))

    def cell(self, anchor, word):
        """Validated nerve cell on this model's complex and group."""
        anchor = tuple(anchor)
        if not anchor:
            raise DocumentError("empty anchor")
        if len(set(anchor)) != len(anchor):
            raise DocumentError("anchor %r repeats a vertex" % (anchor,))
        key = tuple(sorted(anchor, key=self.complex.vertex_index.get))
        if not self.complex.has_cell(key):
            raise ValidationError("anchor %r is not a simplex" % (anchor,))
        word = tuple(word)
        for g in word:
            if g not in self.action.group.index:
                raise DocumentError("unknown group element %r" % (g,))
        if len(word) > self.depth:
            raise ValidationError(
                "word of length %d exceeds truncation depth %d"
                % (len(word), self.depth))
        return NerveCell(anchor, word)

    def unit(self, anchor, word):
        return LocalChain(self.r, {self.cell(anchor, word): 1})

    def _word_faces(self, cell, coeff):
        """Signed word faces of one cell: drop, compose, or relocate."""
        word = cell.word
        n = len(word)
        if n == 0:
            return []
        group = self.action.group
        signed = (coeff, -coeff)
        out = [(NerveCell(cell.anchor, word[1:]), coeff)]
        for k in range(1, n):
            merged = (word[:k - 1] + (group.mul(word[k - 1], word[k]),)
                      + word[k + 1:])
            out.append((NerveCell(cell.anchor, merged), signed[k % 2]))
        moved = self.action.apply_tuple(group.inverse(word[-1]), cell.anchor)
        out.append((NerveCell(moved, word[:-1]), signed[n % 2]))
        return out

    def _anchor_faces(self, cell, coeff):
        """Signed anchor faces of one cell, the leading one twisted."""
        anchor = cell.anchor
        if len(anchor) == 1:
            return []
        head = LaurentPoly.monomial(self.r, self.exp(anchor[0], anchor[1]))
        signed = (coeff, -coeff)
        out = [(NerveCell(anchor[1:], cell.word), coeff * head)]
        for j in range(1, len(anchor)):
            out.append((NerveCell(anchor[:j] + anchor[j + 1:], cell.word),
                        signed[j % 2]))
        return out

    def group_boundary(self, chain):
        """Word-direction boundary: drop, compose, or relocate."""
        return LocalChain(self.r, [f for cell, coeff in chain.terms.items()
                                   for f in self._word_faces(cell, coeff)])

    def face_boundary(self, chain):
        """Anchor-direction boundary, twisted on the leading face."""
        return LocalChain(self.r, [f for cell, coeff in chain.terms.items()
                                   for f in self._anchor_faces(cell, coeff)])

    def total_boundary(self, chain):
        """Total differential with the bidegree sign rule: the word faces
        of a cell carry the sign (-1)^(q+n), its anchor faces (-1)^q."""
        out = []
        for cell, coeff in chain.terms.items():
            out.extend(self._word_faces(
                cell, -coeff if (cell.q + cell.n) % 2 else coeff))
            out.extend(self._anchor_faces(
                cell, -coeff if cell.q % 2 else coeff))
        return LocalChain(self.r, out)


def random_chain(model, rng, max_word=3, max_cells=3):
    """Small random chain for identity spot checks, rng driven.

    Anchors come from the model's complex in any vertex order, words
    from the full element list (identities included), coefficients are
    signed monomials with small exponents.
    """
    X = model.complex
    terms = []
    for _ in range(rng.randrange(1, max_cells + 1)):
        q = rng.randrange(X.dim + 1)
        anchor = list(rng.choice(X.cells[q]))
        rng.shuffle(anchor)
        word = tuple(rng.choice(model.action.group.elements)
                     for _ in range(rng.randrange(max_word + 1)))
        exp = tuple(rng.randrange(-2, 3) for _ in range(model.r))
        coeff = LaurentPoly.monomial(model.r, exp) * rng.choice((1, -1))
        terms.append((model.cell(anchor, word), coeff))
    return LocalChain(model.r, terms)


def identity_failures(model, seed, samples, max_word=3):
    """Check the four boundary identities on seeded random chains.

    Both operators must square to zero, they must commute, and the
    signed total differential must square to zero.  Returns failure
    descriptions; an empty list is a clean pass.
    """
    max_word = min(max_word, model.depth)
    rng = random.Random(seed)
    fails = []
    for i in range(samples):
        c = random_chain(model, rng, max_word=max_word)
        word, face = model.group_boundary(c), model.face_boundary(c)
        if model.group_boundary(word):
            fails.append("sample %d: word boundary squared is nonzero" % i)
        if model.face_boundary(face):
            fails.append("sample %d: face boundary squared is nonzero" % i)
        if model.face_boundary(word) != model.group_boundary(face):
            fails.append("sample %d: boundaries do not commute" % i)
        if model.total_boundary(model.total_boundary(c)):
            fails.append("sample %d: total differential squared is nonzero"
                         % i)
    return fails


def nerve_model(qres, lift, depth=4):
    """Nerve operators for a basic class, given by its integral lift.

    qres is the quotient of the action (regularized by quotient_complex
    when needed) and lift is an integral lift on the orbit space
    qres.complex.  The lift's exponents are pulled back along the
    projection to the regular action's complex, so they are invariant
    on the nose.
    """
    if lift.complex is not qres.complex:
        raise DocumentError("lift lives on a different complex than the "
                            "orbit space")
    proj = qres.projection
    exponents = {(u, v): lift.exponent(proj[u], proj[v])
                 for (u, v) in qres.action.complex.edges()}
    return NerveModel(qres.action, exponents, lift.rank, depth)

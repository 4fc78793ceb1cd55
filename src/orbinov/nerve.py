"""The action groupoid's nerve with local coefficients.

Cells are pairs (anchor, word): an ordered simplex of the space the
group acts on, together with a string of group elements.  Two
boundary operators act on chains of such cells.  The group direction
drops or composes word letters, with the last face relocating the
anchor by the inverse of the dropped letter.  The space direction is
the twisted simplicial boundary: dropping the anchor's first vertex
transports the coefficient by the monomial of the first edge.

Exponents come from the quotient: a model is built from the quotient
of the action and the integral lift of the class descended to the
orbit space (descend_cochain, then integralize, both done by the
caller), and reads the lift's exponents through the projection.  That
makes them functions of orbits, hence invariant by construction, which
is exactly what the mixed commutation identity needs; only their
closedness is re-verified when the model is built.

The operators satisfy four identities: each boundary squares to zero,
they commute, and the total differential (with the bidegree sign
rule) squares to zero.  identity_failures checks them on seeded random
chains; the module itself stays agnostic about truncation except for
refusing words longer than its depth.  The drawn cells are valid by
construction (stored simplices in a shuffled vertex order, words from
the element list), so the sampler checks only their word length.  One
face kernel gives the word part and the face part of a chain's
boundary in one traversal, and the total is their signed sum; a sample
makes one face pass per level, over c, W(c), F(c) and D(c).

A chain is a flat map {(anchor, word, exponent): int} without zero
entries: a chain with coefficients in the group ring of the period
lattice, spread over the monomials of each coefficient.  A face's
coefficient is its cell's coefficient, signed and shifted by an
exponent, so the operators never multiply polynomials.  Each model
keeps three face tables, filled as cells are met: the signed faces of
each word, the signed faces of each anchor (reading the exponent of
its first edge then), and each anchor moved by a group element.
"""

import random
from operator import add

from .errors import DocumentError, ValidationError

__all__ = ["NerveModel", "nerve_model", "random_chain", "identity_failures"]


class NerveModel:
    """Boundary operators on the nerve of a regular action.

    Built from a quotient qres and an integral lift on its orbit space
    qres.complex; operates on the (possibly subdivided) complex that
    the regular action qres.action acts on, whose edges take the
    lift's exponents of their orbit edges.
    """

    __slots__ = ("action", "complex", "exponents", "r", "depth",
                 "_word_faces", "_anchor_faces", "_moves")

    def __init__(self, qres, lift, depth):
        if lift.complex is not qres.complex:
            raise DocumentError("lift lives on a different complex than the "
                                "orbit space")
        proj = qres.projection
        self._word_faces, self._anchor_faces, self._moves = {}, {}, {}
        self.action = qres.action
        self.complex = qres.action.complex
        self.exponents = {(u, v): lift.exponent(proj[u], proj[v])
                          for (u, v) in self.complex.edges()}
        self.r = lift.rank
        self.depth = depth
        self._check_closed()

    def _check_closed(self):
        X = self.complex
        zero = (0,) * self.r
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
        key, sign = self.complex.orient(u, v)
        e = self.exponents.get(key)
        if e is None:
            raise ValidationError("no exponent for edge %r" % ((u, v),))
        return e if sign > 0 else tuple(-x for x in e)

    def cell(self, anchor, word):
        """Validated (anchor, word) pair on this model's complex and
        group; the anchor may list its simplex in any vertex order."""
        anchor = tuple(anchor)
        if not anchor:
            raise DocumentError("empty anchor")
        if not self.complex.normalize(anchor)[1]:
            raise DocumentError("anchor %r repeats a vertex" % (anchor,))
        word = tuple(word)
        for g in word:
            if g not in self.action.group.index:
                raise DocumentError("unknown group element %r" % (g,))
        if len(word) > self.depth:
            raise ValidationError(
                "word of length %d exceeds truncation depth %d"
                % (len(word), self.depth))
        return anchor, word

    def unit(self, anchor, word):
        """The chain of one cell with coefficient 1 at exponent 0."""
        return {(*self.cell(anchor, word), (0,) * self.r): 1}

    def _word_entry(self, word):
        """Word faces, stored in the table, as (face word, sign,
        element or None): the last face relocates the anchor by its
        element, the inverse of the dropped letter, and the others keep
        it.  () for the empty word."""
        n = len(word)
        entry = ()
        if n:
            group = self.action.group
            faces = [(word[1:], 1, None)]
            for k in range(1, n):
                merged = (word[:k - 1] + (group.mul(word[k - 1], word[k]),)
                          + word[k + 1:])
                faces.append((merged, (-1) ** k, None))
            faces.append((word[:-1], (-1) ** n, group.inverse(word[-1])))
            entry = tuple(faces)
        self._word_faces[word] = entry
        return entry

    def _anchor_entry(self, anchor):
        """Anchor faces, stored in the table, as (face anchor, exponent
        shift or None, sign); only the leading face is shifted, by the
        exponent of the first edge.  () for a vertex."""
        faces = ()
        if len(anchor) > 1:
            head = self.exp(anchor[0], anchor[1])
            faces = ((anchor[1:], head if any(head) else None, 1),
                     *((anchor[:j] + anchor[j + 1:], None, (-1) ** j)
                       for j in range(1, len(anchor))))
        self._anchor_faces[anchor] = faces
        return faces

    def _boundaries(self, flat):
        """The face kernel: one traversal of a flat chain that returns
        its word boundary and its face boundary.  Faces come from the
        model's tables; an empty entry is a vertex or the empty word, a
        missing one None."""
        words, anchors, moves = (self._word_faces, self._anchor_faces,
                                 self._moves)
        apply_tuple = self.action.apply_tuple
        word_part, face_part = {}, {}
        for (a, w, e), c in flat.items():
            entry = words.get(w)
            if entry is None:
                entry = self._word_entry(w)
            # word faces keep the exponent; only anchor faces shift it
            for word, sign, g in entry:
                if g is None:
                    key = (a, word, e)
                else:
                    moved = moves.get((g, a))
                    if moved is None:
                        moved = moves[(g, a)] = apply_tuple(g, a)
                    key = (moved, word, e)
                x = word_part.get(key, 0) + sign * c
                if x:
                    word_part[key] = x
                else:
                    del word_part[key]
            faces = anchors.get(a)
            if faces is None:
                faces = self._anchor_entry(a)
            for anchor, shift, sign in faces:
                key = (anchor, w,
                       e if shift is None else tuple(map(add, e, shift)))
                x = face_part.get(key, 0) + sign * c
                if x:
                    face_part[key] = x
                else:
                    del face_part[key]
        return word_part, face_part

    def group_boundary(self, chain):
        """Word-direction boundary: drop, compose, or relocate."""
        return self._boundaries(chain)[0]

    def face_boundary(self, chain):
        """Anchor-direction boundary, twisted on the leading face."""
        return self._boundaries(chain)[1]

    def total_boundary(self, chain):
        """Total differential, with the bidegree sign rule."""
        return _total(*self._boundaries(chain))


def _total(word, face):
    """Signed sum of a word and a face boundary, without the keys that
    cancel.  A face key's bidegree gives its cell's sign: (-1)^(len
    anchor + len word) on a word face, (-1)^(len anchor) on an anchor
    face."""
    total = {key: -c if (len(key[0]) + len(key[1])) % 2 else c
             for key, c in word.items()}
    for key, c in face.items():
        x = total.get(key, 0) + (-c if len(key[0]) % 2 else c)
        if x:
            total[key] = x
        else:
            del total[key]
    return total


def random_chain(model, rng, max_word=3, max_cells=3):
    """Small random chain for identity spot checks, rng driven.

    Anchors are stored cells of the model's complex in a shuffled
    vertex order, words come from the full element list (identities
    included), coefficients are signed monomials with small exponents;
    a cell drawn twice at one exponent has its coefficients summed.
    Every key is a valid cell by construction, so only the word length
    is checked against the model's depth.  The draws call
    rng._randbelow directly, in the order and with the bounds that
    randrange, choice and shuffle would, so the stream is theirs.
    """
    # _randbelow(0) never returns, where randrange raises
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1, got %d"
                         % (max_cells,))
    if max_word < 0:
        raise ValueError("max_word must be nonnegative, got %d"
                         % (max_word,))
    X = model.complex
    elements = model.action.group.elements
    n_elements, r = len(elements), model.r
    below = rng._randbelow
    chain = {}
    for _ in range(1 + below(max_cells)):
        cells = X.cells[below(X.dim + 1)]
        anchor = list(cells[below(len(cells))])
        for i in range(len(anchor) - 1, 0, -1):
            j = below(i + 1)
            anchor[i], anchor[j] = anchor[j], anchor[i]
        word = tuple([elements[below(n_elements)]
                      for _ in range(below(max_word + 1))])
        exp = tuple([below(5) - 2 for _ in range(r)])
        sign = -1 if below(2) else 1
        if len(word) > model.depth:
            raise ValidationError(
                "word of length %d exceeds truncation depth %d"
                % (len(word), model.depth))
        key = (tuple(anchor), word, exp)
        chain[key] = chain.get(key, 0) + sign
    return {key: c for key, c in chain.items() if c}


def identity_failures(model, seed, samples):
    """Check the four boundary identities on seeded random chains.

    Both operators must square to zero, they must commute, and the
    signed total differential must square to zero on the chains that
    random_chain draws, with words of at most min(3, depth) letters.
    The face kernel yields the word and face parts of a boundary, the
    total is their signed sum, and each sample makes one pass per
    level: over c, over W(c) and F(c), and over D(c) for DD(c).
    Returns failure descriptions; an empty list is a clean pass.
    """
    max_word = min(3, model.depth)
    rng = random.Random(seed)
    boundaries = model._boundaries
    fails = []
    for i in range(samples):
        word, face = boundaries(random_chain(model, rng, max_word, 3))
        word_word, face_word = boundaries(word)
        word_face, face_face = boundaries(face)
        if word_word:
            fails.append("sample %d: word boundary squared is nonzero" % i)
        if face_face:
            fails.append("sample %d: face boundary squared is nonzero" % i)
        if face_word != word_face:
            fails.append("sample %d: boundaries do not commute" % i)
        if _total(*boundaries(_total(word, face))):
            fails.append("sample %d: total differential squared is nonzero"
                         % i)
    return fails


def nerve_model(qres, lift, depth=4):
    """Nerve operators for a basic class, given by its integral lift.

    qres is the quotient of the action (regularized by quotient_complex
    when needed) and lift is an integral lift on the orbit space
    qres.complex; see NerveModel.
    """
    return NerveModel(qres, lift, depth)

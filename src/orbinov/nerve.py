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
rule) squares to zero.  identity_failures checks them on every cell
of a finite unit set, which is enough for every chain (see there); the
module itself stays agnostic about truncation except for refusing
words longer than its depth.  One face kernel gives the word part and
the face part of a chain's boundary in one traversal, and the total
is their signed sum; a unit makes one face pass over c and one over
each nonempty part, and D^2(c) is read off the four second-level
parts bidegree by bidegree.

A chain is a flat map {(anchor, word, exponent): int} without zero
entries: a chain with coefficients in the group ring of the period
lattice, spread over the monomials of each coefficient.  A face's
coefficient is its cell's coefficient, signed and shifted by an
exponent, so the operators never multiply polynomials.  Each model
keeps three face tables, filled as cells are met: the signed faces of
each word, the signed faces of each anchor (reading the exponent of
its first edge then), and each anchor moved by a group element.
"""

from itertools import product
from operator import add

from .errors import (DocumentError, UnsupportedOperationError,
                     ValidationError)

__all__ = ["NerveModel", "nerve_model", "unit_cells", "identity_failures",
           "NERVE_UNIT_CAP"]

# identity_failures checks every unit cell, 11-14 microseconds each on
# a 2-vCPU VM (Z/20 and Z/40 rotating a cycle), so the cap is 2.2-2.8 s
# of checking; larger checks are refused rather than attempted
NERVE_UNIT_CAP = 200_000


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
        if depth < 0:
            raise ValueError("depth must be nonnegative, got %d" % (depth,))
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


def _signs(anchor, word):
    """The bidegree signs of a face key with an anchor of the given
    length and a word of the given length in the total differential:
    (-1)^(anchor + word) on a word face, (-1)^anchor on an anchor
    face, as the pair (word sign, anchor sign)."""
    sign = -1 if anchor % 2 else 1
    return -sign if word % 2 else sign, sign


def _total(word, face):
    """Signed sum of a word and a face boundary, without the keys that
    cancel; each key takes its bidegree's sign from _signs."""
    total = {key: c * _signs(len(key[0]), len(key[1]))[0]
             for key, c in word.items()}
    for key, c in face.items():
        x = total.get(key, 0) + c * _signs(len(key[0]), len(key[1]))[1]
        if x:
            total[key] = x
        else:
            del total[key]
    return total


def unit_cells(model):
    """The (anchor, word) cells that identity_failures checks, anchors
    in stored vertex order, with m = min(3, depth): every stored cell
    with the empty word and, when m >= 1, with every one-letter word;
    and every word of length 2..m at one anchor per dimension, the
    first stored cell that the fewest group elements fix, so that a
    wrong relocation cannot cancel against itself; the scan stops at a
    cell that only the identity fixes.  That is
    sum_q |cells_q| * (1 + |G|) + (dim + 1) * sum_{n=2..m} |G|^n
    cells for depth >= 1, and sum_q |cells_q| at depth 0.
    """
    elements = model.action.group.elements
    maps = [model.action.vertex_maps[g] for g in elements]

    def fixers(a):
        return sum(all(image[v] == v for v in a) for image in maps)
    m = min(3, model.depth)
    short = [()] + ([(g,) for g in elements] if m else [])
    for cells in model.complex.cells:
        for anchor in cells:
            for word in short:
                yield anchor, word
    for cells in model.complex.cells:
        anchor = (next((a for a in cells if fixers(a) == 1), None)
                  or min(cells, key=fixers))
        for n in range(2, m + 1):
            for word in product(elements, repeat=n):
                yield anchor, word


def _unit_count(model):
    """The number of cells that unit_cells yields, from its formula."""
    n = len(model.action.group.elements)
    m = min(3, model.depth)
    cells = model.complex.cells
    return (sum(map(len, cells)) * (1 + n * (m > 0))
            + len(cells) * sum(n ** k for k in range(2, m + 1)))


def identity_failures(model):
    """Check the four boundary identities on every cell of unit_cells.

    Both operators must square to zero, they must commute, and the
    signed total differential must square to zero.  Each unit is one
    cell with coefficient 1 at exponent 0.  The operators are linear
    and a face only shifts its cell's exponent, so identities that hold
    on the units hold on every chain of their cells.  The total is the
    signed sum of the word direction W and the anchor direction F, the
    total complex of a double complex, so D^2 = 0 follows from W^2 = 0,
    F^2 = 0 and WF = FW, and each of these sees only part of a cell:

    - F^2 on (a, w) depends only on a: it is closedness on a's
      triangles, checked with the empty word.  exp is antisymmetric by
      construction, so closedness in stored vertex order implies
      closedness in every order.
    - WF = FW: only the last word face moves the anchor, so
      F(g.a) = g.F(a) is all that is at stake, checked with every
      one-letter word at every cell.
    - W^2 depends on the word and on how the group moves the anchor; G
      acts vertex by vertex, so the relocations of one anchor stand for
      those of every anchor and every vertex order.  It is checked with
      every longer word at one anchor per dimension.

    Each unit makes one face pass over c and one over each of W(c) and
    F(c) that is not empty.  D(c) = s W(c) + t F(c), with the signs s
    and t that _signs gives those faces, and D^2(c) splits by bidegree:
    WW(c) and FF(c) each lie in one that no other part reaches, and the
    middle one holds t sigma_w WF(c) + s sigma_f FW(c), with sigma_w
    and sigma_f the signs of that bidegree.  So D^2(c) = 0 exactly when
    WW(c) = 0, FF(c) = 0 and WF(c) = FW(c), or WF(c) = -FW(c) where
    t sigma_w = s sigma_f; the signs are read once per shape of cell.
    The unit count comes from the formula in unit_cells, and a check
    of more than NERVE_UNIT_CAP units is refused before any is built.
    Returns failure descriptions, each naming its cell; an empty list
    is a clean pass.
    """
    units = _unit_count(model)
    if units > NERVE_UNIT_CAP:
        raise UnsupportedOperationError(
            "the nerve identity check needs %d unit cells; it is capped "
            "at %d" % (units, NERVE_UNIT_CAP))
    boundaries = model._boundaries
    zero = (0,) * model.r
    same = {}
    fails = []
    for cell in unit_cells(model):
        shape = len(cell[0]), len(cell[1])
        if shape not in same:
            anchor, word = shape
            s, t = _signs(anchor, word - 1)[0], _signs(anchor - 1, word)[1]
            sigma_w, sigma_f = _signs(anchor - 1, word - 1)
            same[shape] = t * sigma_w == -s * sigma_f
        w, f = boundaries({(*cell, zero): 1})
        word_word, face_word = boundaries(w) if w else ({}, {})
        word_face, face_face = boundaries(f) if f else ({}, {})
        commute = face_word == word_face
        if word_word:
            fails.append("cell %r: word boundary squared is nonzero" % (cell,))
        if face_face:
            fails.append("cell %r: face boundary squared is nonzero" % (cell,))
        if not commute:
            fails.append("cell %r: boundaries do not commute" % (cell,))
        if (word_word or face_face or not (
                commute if same[shape] else
                word_face == {key: -c for key, c in face_word.items()})):
            fails.append("cell %r: total differential squared is nonzero"
                         % (cell,))
    return fails


def nerve_model(qres, lift, depth=4):
    """Nerve operators for a basic class, given by its integral lift.

    qres is the quotient of the action (regularized by quotient_complex
    when needed) and lift is an integral lift on the orbit space
    qres.complex; see NerveModel.
    """
    return NerveModel(qres, lift, depth)

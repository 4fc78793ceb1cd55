"""Finite groups acting simplicially on complexes, and their quotients.

The action is on the right: apply_vertex(g, v) is v.g, and
apply_vertex(mul(g, h), v) == apply_vertex(h, apply_vertex(g, v)).

A quotient by the raw action only yields a simplicial complex with the
expected identifications when the action is regular: whenever some
tuple of group elements moves the vertices of a simplex onto a vertex
set that again spans a simplex, a single group element must realize
that move.  Checking only "no two vertices of a simplex share an
orbit" is weaker and accepts actions whose naive quotients are wrong.
Regularity is decided on classes of cells with the same orbit set (see
is_regular), in the same pass that yields the orbit space.  Two
barycentric subdivisions always repair an irregular action.
"""

from .complexes import SimplicialComplex, barycentric_subdivision
from .errors import DocumentError, ValidationError

__all__ = ["FiniteGroup", "SimplicialAction", "is_regular",
           "QuotientResult", "quotient_complex"]


class FiniteGroup:
    """Multiplication-table group on string labels.

    >>> z2 = FiniteGroup(["e", "r"], [["e", "r"], ["r", "e"]])
    >>> z2.identity
    'e'
    >>> z2.mul("r", "r")
    'e'
    >>> z2.inverse("r")
    'r'
    """

    __slots__ = ("elements", "index", "table", "identity", "_inverse")

    def __init__(self, elements, table):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise DocumentError("duplicate group element label")
        if not self.elements:
            raise DocumentError("empty group")
        n = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(table) != n or any(len(row) != n for row in table):
            raise DocumentError("multiplication table must be %d x %d" % (n, n))
        for row in table:
            for g in row:
                if g not in self.index:
                    raise DocumentError("table entry %r is not an element" % (g,))
        self.table = [list(row) for row in table]
        # identity: two-sided
        ident = None
        for g in self.elements:
            if (all(self.mul(g, h) == h for h in self.elements)
                    and all(self.mul(h, g) == h for h in self.elements)):
                ident = g
                break
        if ident is None:
            raise ValidationError("group table has no identity")
        self.identity = ident
        self._inverse = {g: h for g in self.elements for h in self.elements
                         if self.mul(g, h) == ident == self.mul(h, g)}
        for g in self.elements:
            if g not in self._inverse:
                raise ValidationError("element %r has no inverse" % (g,))
        # exhaustive associativity; these groups are tiny
        for a in self.elements:
            for b in self.elements:
                ab = self.mul(a, b)
                for c in self.elements:
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        raise ValidationError(
                            "table is not associative at (%r, %r, %r)" % (a, b, c))

    def mul(self, g, h):
        return self.table[self.index[g]][self.index[h]]

    def inverse(self, g):
        return self._inverse[g]

    @property
    def order(self):
        return len(self.elements)

    @classmethod
    def cyclic(cls, n, prefix="g"):
        """Z/n with elements g0..g{n-1} (g0 the identity).

        >>> FiniteGroup.cyclic(3).mul("g1", "g2")
        'g0'
        """
        names = ["%s%d" % (prefix, i) for i in range(n)]
        table = [[names[(i + j) % n] for j in range(n)] for i in range(n)]
        return cls(names, table)


class SimplicialAction:
    """A finite group acting on a complex by simplicial automorphisms."""

    __slots__ = ("group", "complex", "vertex_maps")

    @classmethod
    def trivial(cls, X):
        """The one-element group acting on X."""
        return cls(FiniteGroup(["e"], [["e"]]), X, {})

    @classmethod
    def _of(cls, group, complex, vertex_maps):
        # trusted: vertex_maps holds a map for every element, and the
        # maps act by simplicial automorphisms, so nothing is checked
        action = cls.__new__(cls)
        action.group = group
        action.complex = complex
        action.vertex_maps = vertex_maps
        return action

    def __init__(self, group, complex, vertex_maps):
        self.group = group
        self.complex = complex
        maps = {g: dict(m) for g, m in vertex_maps.items()}
        for g in maps:
            if g not in group.index:
                raise DocumentError("vertex map for unknown element %r" % (g,))
        ident = group.identity
        maps.setdefault(ident, {v: v for v in complex.vertices})
        for g in group.elements:
            if g not in maps:
                raise DocumentError("missing vertex map for element %r" % (g,))
        vset = set(complex.vertices)
        for g, m in maps.items():
            if set(m) != vset or set(m.values()) != vset:
                raise DocumentError(
                    "vertex map for %r is not a bijection of the vertex set" % (g,))
        self.vertex_maps = maps
        for v in complex.vertices:
            if maps[ident][v] != v:
                raise ValidationError("identity element must act trivially")
        # hence every table pair and cell image with the identity holds
        others = [g for g in group.elements if g != ident]
        for g in others:
            for h in others:
                gh = group.mul(g, h)
                for v in complex.vertices:
                    if maps[h][maps[g][v]] != maps[gh][v]:
                        raise ValidationError(
                            "vertex maps break the table at (%r, %r)" % (g, h))
        key = complex.vertex_index.__getitem__
        ordered = [(g, maps[g].__getitem__) for g in others]
        for q in range(1, complex.dim + 1):
            index = complex.cell_index[q]
            for cell in complex.cells[q]:
                for g, image in ordered:
                    if tuple(sorted(map(image, cell), key=key)) not in index:
                        raise ValidationError(
                            "element %r does not map simplex %r to a simplex"
                            % (g, cell))

    def apply_vertex(self, g, v):
        return self.vertex_maps[g][v]

    def apply_tuple(self, g, vertices):
        """Entrywise image of an ordered vertex tuple (no re-sorting)."""
        m = self.vertex_maps[g]
        return tuple(m[v] for v in vertices)

    def apply_cell(self, g, cell):
        """Image of a stored cell, back in increasing vertex order."""
        m = self.vertex_maps[g]
        return tuple(sorted((m[v] for v in cell),
                            key=self.complex.vertex_index.__getitem__))

    def vertex_orbit(self, v):
        return sorted({self.vertex_maps[g][v] for g in self.group.elements},
                      key=self.complex.vertex_index.__getitem__)


def _orbit_classes(action):
    """The orbit-class pass behind is_regular and quotient_complex.

    Returns None when the action is irregular.  Otherwise returns
    (orbit_of, classes): orbit_of maps each vertex to its orbit id,
    numbered 0, 1, ... in order of first appearance in the vertex
    list, and classes[q - 1] maps each orbit-id set spanned by a q-cell
    (q >= 1) to one cell of that class.
    """
    X = action.complex
    maps = list(action.vertex_maps.values())
    orbit_of = {}
    count = 0
    for v in X.vertices:
        if v not in orbit_of:
            for m in maps:
                orbit_of[m[v]] = count
            count += 1
    orbit = orbit_of.__getitem__
    classes = []
    for q in range(1, X.dim + 1):
        members = {}
        for cell in X.cells[q]:
            key = frozenset(map(orbit, cell))
            if len(key) <= q:
                return None
            members.setdefault(key, []).append(cell)
        for cells in members.values():
            images = {frozenset(map(m.__getitem__, cells[0])) for m in maps}
            if len(images) != len(cells):
                return None
        classes.append({key: cells[0] for key, cells in members.items()})
    return orbit_of, classes


def is_regular(action):
    """Regularity of the action in the strong, quotient-safe sense.

    For every simplex (v_0..v_q) and every tuple (g_0..g_q) of group
    elements such that the set {v_i.g_i} spans a simplex, some single g
    must satisfy v_i.g = v_i.g_i for all i.  Quantifying over tuples
    with repeated target vertices is what catches actions that flip an
    edge setwise without fixing it pointwise.

    With pi mapping each vertex to its orbit, this holds exactly when
    (a) pi is injective on every cell of dimension q >= 1, and (b) each
    class of q-cells with the same orbit set is a single G-orbit, i.e.
    one cell of the class has as many distinct images as the class has
    cells.  Proof: if v_b = v_a.g share a cell, the target tuple that
    replaces v_b by v_a spans a face that no single element realizes,
    as it would send v_a and v_b to one vertex.  If pi is injective on
    s, each spanning target tuple has distinct entries, so it is the
    one q-cell t with pi(t) = pi(s), realized exactly when t is in s.G.
    """
    return _orbit_classes(action) is not None


class QuotientResult:
    """Orbit-space complex plus the data needed to move cochains around.

    complex: the orbit space.  action: the regular action that was
    actually divided out (equal to the input action when no
    subdivision was needed).  subdivisions: the chain of SdResult
    records applied to reach it (empty when none).  projection: vertex
    of action.complex -> orbit vertex label.
    """

    __slots__ = ("complex", "projection", "action", "subdivisions")

    def __init__(self, complex, projection, action, subdivisions):
        self.complex = complex
        self.projection = projection
        self.action = action
        self.subdivisions = subdivisions

    @property
    def stages(self):
        return len(self.subdivisions)

    @property
    def subdivided(self):
        return bool(self.subdivisions)


def lift_action(action, sd):
    """Transport an action along a barycentric subdivision of its space.

    The lift is an action by construction, each element permuting the
    barycenters as it permutes the cells, so it is not checked again.
    """
    lifted = {}
    for g in action.group.elements:
        m = {}
        for cell, label in sd.barycenter_of.items():
            m[label] = sd.barycenter_of[action.apply_cell(g, cell)]
        lifted[g] = m
    return SimplicialAction._of(action.group, sd.complex, lifted)


def quotient_complex(action):
    """Orbit space of a simplicial action.

    Irregular actions are barycentrically subdivided (at most twice,
    which always suffices) before dividing; the result records how
    many stages were applied.  Each stage runs one orbit-class pass,
    which tests regularity by the criterion of is_regular: pi injective
    on cells, and each class of cells with one orbit set a single
    orbit, since a spanning target tuple of a cell s is the cell t with
    pi(t) = pi(s) and is realized exactly when t is in s.G.  On a
    regular action the classes are the cells of the orbit space.
    Orbit vertices are labeled q0, q1, ... in order of their smallest
    representative.
    """
    subdivisions = []
    current = action
    found = _orbit_classes(current)
    while found is None:
        if len(subdivisions) >= 2:
            raise ValidationError(
                "action is still irregular after two subdivisions")
        sd = barycentric_subdivision(current.complex)
        current = lift_action(current, sd)
        subdivisions.append(sd)
        found = _orbit_classes(current)
    X = current.complex
    orbit_of, classes = found
    labels = ["q%d" % i for i in range(max(orbit_of.values()) + 1)]
    projection = {v: labels[orbit_of[v]] for v in X.vertices}
    # the classes are closed under faces: sorted, they are the layers
    # of the orbit space as build_complex would store them
    cells = [[(label,) for label in labels]]
    for layer in classes:
        for key, cell in layer.items():
            if len(key) != len(cell):
                raise ValidationError(
                    "regular action still collapsed simplex %r" % (cell,))
        cells.append([tuple(map(labels.__getitem__, ids))
                      for ids in sorted(map(sorted, layer))])
    Y = SimplicialComplex(labels, cells)
    return QuotientResult(Y, projection, current, subdivisions)

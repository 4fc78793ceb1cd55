"""First homology with explicit generators, period maps, and G-paths.

H_1 is presented through the cycle space of a spanning forest: a
closed walk gets integer coordinates on the off-tree edges, triangle
boundaries span the relation lattice, and Smith reduction of the
relation matrix converts off-tree coordinates into generator
multiplicities.  Periods of a closed cochain are linear in those
coordinates, so torsion generators are forced to have period zero.

Forest periods arrive as integer numerators over one denominator; the
period map turns them into Fractions, while the period lattice is
reduced on the numerators and only its basis comes back as Fractions.
"""

import math
from fractions import Fraction

from .cochains import forest_periods, vec_add, vec_scale
from .complexes import bfs_forest
from .errors import DocumentError, ValidationError
from .snf import row_lattice_basis, smith_normal_form

__all__ = ["H1Presentation", "PeriodHom", "period_homomorphism",
           "period_lattice", "gamma_basis", "is_integral", "GPath",
           "gpath_period", "hurewicz_class"]


class H1Presentation:
    """H_1(X; Z) with explicit generators and their orders.

    orders[i] is the order of generator i (0 means infinite); torsion
    generators come first.  generator_cycles[i] is an explicit 1-cycle
    for generator i, in off-tree coordinates: entry j counts the
    oriented uses of off-tree edge j, and the tree part is implied.
    parent and order are the spanning forest from bfs_forest, kept so
    that period maps on this presentation reuse it.
    """

    __slots__ = ("complex", "order", "parent", "offtree", "offtree_index",
                 "orders", "generator_cycles", "positions", "_S")

    def __init__(self, complex):
        self.complex = complex
        parent, order = bfs_forest(complex)
        self.order = order
        self.parent = parent
        self.offtree = [(u, v) for (u, v) in complex.edges()
                        if parent.get(v) != u and parent.get(u) != v]
        self.offtree_index = {e: i for i, e in enumerate(self.offtree)}
        n_ot, n_tri = len(self.offtree), complex.n_cells(2)
        # the relations are d_2's off-tree rows
        rel = [[0] * n_tri for _ in range(n_ot)]
        for (e, j), s in complex.boundary_entries(2).items():
            i = self.offtree_index.get(complex.cells[1][e])
            if i is not None:
                rel[i][j] = s
        snf = smith_normal_form(rel, shape=(n_ot, n_tri),
                                want_transforms=True)
        S, Si, _ = snf.transforms
        self._S = S
        diag = snf.diagonal + [0] * (n_ot - len(snf.diagonal))
        self.orders = []
        self.generator_cycles = []
        self.positions = []
        for i in range(n_ot):
            if diag[i] == 1:
                continue
            self.orders.append(diag[i])
            self.generator_cycles.append([Si[r][i] for r in range(n_ot)])
            self.positions.append(i)

    @property
    def torsion_orders(self):
        return [d for d in self.orders if d]

    @property
    def free_rank(self):
        return sum(1 for d in self.orders if d == 0)

    def tree_walk(self, u, v):
        """The walk from u to v inside the spanning forest."""
        up, vp = [u], [v]
        while up[-1] in self.parent:
            up.append(self.parent[up[-1]])
        while vp[-1] in self.parent:
            vp.append(self.parent[vp[-1]])
        if up[-1] != vp[-1]:
            raise ValidationError("%r and %r are in different components"
                                  % (u, v))
        while len(up) > 1 and len(vp) > 1 and up[-2] == vp[-2]:
            up.pop()
            vp.pop()
        return up + vp[-2::-1]

    def coords_of_walk(self, walk):
        """Off-tree coordinates of a closed walk (repeats allowed)."""
        if not walk:
            raise DocumentError("empty walk")
        if walk[0] != walk[-1]:
            raise ValidationError("walk from %r to %r is not closed"
                                  % (walk[0], walk[-1]))
        coords = [0] * len(self.offtree)
        for u, v in zip(walk, walk[1:]):
            if u == v:
                continue
            key, sign = self.complex.orient(u, v)
            idx = self.offtree_index.get(key)
            if idx is not None:
                coords[idx] += sign
        return coords

    def class_of_coords(self, coords):
        """Generator multiplicities of a cycle in off-tree coordinates.

        Torsion multiplicities are reduced into [0, order).
        """
        if len(coords) != len(self.offtree):
            raise ValidationError("cycle needs %d off-tree coordinates, got %d"
                                  % (len(self.offtree), len(coords)))
        out = []
        for pos, order in zip(self.positions, self.orders):
            y = sum(s * c for s, c in zip(self._S[pos], coords))
            out.append(y % order if order else y)
        return out

    def class_of_walk(self, walk):
        return self.class_of_coords(self.coords_of_walk(walk))

    def __repr__(self):
        return "H1Presentation(orders=%r)" % (self.orders,)


def _combination(space, coeffs, vectors):
    """The integer combination sum(c * v) in the value space."""
    total = space.zero()
    for c, v in zip(coeffs, vectors):
        if c:
            total = vec_add(total, vec_scale(Fraction(c), v))
    return total


class PeriodHom:
    """Periods of a closed cochain against an H_1 presentation."""

    __slots__ = ("h1", "space", "fundamental_periods", "generator_periods")

    def __init__(self, h1, space, fundamental_periods, generator_periods):
        self.h1 = h1
        self.space = space
        self.fundamental_periods = fundamental_periods
        self.generator_periods = generator_periods

    def free_periods(self):
        return [p for p, d in zip(self.generator_periods, self.h1.orders)
                if d == 0]

    def period_of_coords(self, coords):
        return _combination(self.space, coords, self.fundamental_periods)

    def period_of_class(self, multiplicities):
        if len(multiplicities) != len(self.h1.orders):
            raise ValidationError("class needs %d generator multiplicities, "
                                  "got %d" % (len(self.h1.orders),
                                              len(multiplicities)))
        return _combination(self.space, multiplicities,
                            self.generator_periods)

    def __repr__(self):
        return "PeriodHom(%d generators)" % (len(self.generator_periods),)


def period_homomorphism(h1, cochain):
    """Period map of a closed cochain on the presented complex.

    Torsion generators must come out with period zero; anything else
    means the inputs are inconsistent.
    """
    if cochain.complex is not h1.complex:
        raise DocumentError("cochain lives on a different complex")
    D, _, periods = forest_periods(cochain, h1.parent, h1.order)
    zero = (0,) * cochain.space.k
    fundamental = [tuple(Fraction(n, D) for n in periods.get(e, zero))
                   for e in h1.offtree]
    ph = PeriodHom(h1, cochain.space, fundamental, [])
    for cyc, order_ in zip(h1.generator_cycles, h1.orders):
        total = ph.period_of_coords(cyc)
        if order_ and any(total):
            raise ValidationError(
                "torsion generator has nonzero period %r" % (total,))
        ph.generator_periods.append(total)
    return ph


def period_lattice(vectors, D, k):
    """Z-basis of the lattice spanned by integer vectors of length k over
    a common denominator D, and each vector's integer coordinates in it.

    row_lattice_basis runs once on the numerators.  Its echelon is
    canonical and scales with its input, so any spanning set over any
    common denominator gives the same basis, returned as Fractions over
    D.  Each basis vector's leading entry sits left of the next one's,
    so back-substitution reads one floor quotient per vector; echelon
    form keeps any remainder, which raises ValidationError.

    >>> period_lattice([(2,), (3,)], 4, 1)
    ([(Fraction(1, 4),)], [(2,), (3,)])
    """
    rows = row_lattice_basis(vectors, k)
    leads = [next(i for i, x in enumerate(b) if x) for b in rows]
    coords = []
    for vec in vectors:
        rest = list(vec)
        coeffs = []
        for lead, b in zip(leads, rows):
            c = rest[lead] // b[lead]
            coeffs.append(c)
            rest = [x - c * y for x, y in zip(rest, b)]
        if any(rest):
            raise ValidationError("period %r/%d escaped the period lattice"
                                  % (vec, D))
        coords.append(tuple(coeffs))
    return [tuple(Fraction(x, D) for x in b) for b in rows], coords


def gamma_basis(ph):
    """Z-basis of the period lattice, as vectors in the value space.

    Every free generator period is re-checked to be an integer
    combination of the basis.
    """
    free = ph.free_periods()
    D = math.lcm(*(x.denominator for p in free for x in p))
    basis, _ = period_lattice([[int(x * D) for x in p] for p in free],
                              D, ph.space.k)
    return basis


def is_integral(basis):
    """Whether every vector has no symbol part and denominator one.

    >>> from fractions import Fraction as F
    >>> is_integral([(F(2), F(0))])
    True
    >>> is_integral([(F(1, 2), F(0))])
    False
    """
    return all(not any(b[1:]) and b[0].denominator == 1 for b in basis)


class GPath:
    """A path through the action groupoid: vertex walks joined by arrows.

    segments is a list of vertex walks (each nonempty; consecutive
    vertices equal or adjacent); arrows[i] = (v, g) sits between
    segment i and segment i+1, pointing from v.g (the end of segment
    i) to v (the start of segment i+1).
    """

    __slots__ = ("action", "segments", "arrows")

    def __init__(self, action, segments, arrows):
        self.action = action
        self.segments = [list(s) for s in segments]
        self.arrows = [tuple(a) for a in arrows]
        X = action.complex
        if not self.segments or any(not s for s in self.segments):
            raise DocumentError("every segment needs at least one vertex")
        if len(self.segments) != len(self.arrows) + 1:
            raise DocumentError("need exactly one arrow between segments")
        for seg in self.segments:
            for v in seg:
                if v not in X.vertex_index:
                    raise DocumentError("unknown vertex %r" % (v,))
            for u, v in zip(seg, seg[1:]):
                if u != v:
                    X.orient(u, v)
        for i, (v, g) in enumerate(self.arrows):
            if v not in X.vertex_index:
                raise DocumentError("unknown vertex %r" % (v,))
            if g not in action.group.index:
                raise DocumentError("unknown group element %r" % (g,))
            src = action.apply_vertex(g, v)
            if src != self.segments[i][-1]:
                raise ValidationError(
                    "arrow %d starts at %r but the walk is at %r"
                    % (i, src, self.segments[i][-1]))
            if v != self.segments[i + 1][0]:
                raise ValidationError(
                    "arrow %d ends at %r but the next walk starts at %r"
                    % (i, v, self.segments[i + 1][0]))

    @property
    def start(self):
        return self.segments[0][0]

    @property
    def end(self):
        return self.segments[-1][-1]

    def is_loop(self):
        return self.start == self.end

    def concat(self, other):
        if self.action is not other.action:
            raise DocumentError("paths of two different actions do not "
                                "compose")
        if self.end != other.start:
            raise ValidationError("paths do not compose: %r vs %r"
                                  % (self.end, other.start))
        segments = (self.segments[:-1]
                    + [self.segments[-1] + other.segments[0][1:]]
                    + other.segments[1:])
        return GPath(self.action, segments, self.arrows + other.arrows)

    def inverse(self):
        segments = [list(reversed(s)) for s in reversed(self.segments)]
        arrows = []
        for (v, g) in reversed(self.arrows):
            arrows.append((self.action.apply_vertex(g, v),
                           self.action.group.inverse(g)))
        return GPath(self.action, segments, arrows)


def gpath_period(gpath, cochain):
    """Sum of the cochain over a G-path; arrows contribute nothing.

    The cochain must live on the path's complex (and should be
    invariant for the number to be orbit-level meaningful).
    """
    if cochain.complex is not gpath.action.complex:
        raise DocumentError("cochain lives on a different complex")
    total = cochain.space.zero()
    for seg in gpath.segments:
        total = vec_add(total, cochain.sum_along(seg))
    return total


def _refine_walk(sd, walk):
    """Rewrite a walk of the source complex inside its subdivision."""
    out = [sd.barycenter_of[(walk[0],)]]
    for u, v in zip(walk, walk[1:]):
        if u == v:
            continue
        key = (u, v) if (u, v) in sd.barycenter_of else (v, u)
        out.append(sd.barycenter_of[key])
        out.append(sd.barycenter_of[(v,)])
    return out


def hurewicz_class(gpath, qres, h1):
    """Class in H_1 of the orbit space traced out by a closed G-path.

    The path lives on the complex the quotient was computed from; it
    must close up at least to the orbit level.  h1 is the presentation
    of the orbit space's H_1.
    """
    if h1.complex is not qres.complex:
        raise DocumentError("presentation is not for the orbit space")
    segments = gpath.segments
    arrows = list(gpath.arrows)
    for sd in qres.subdivisions:
        segments = [_refine_walk(sd, seg) for seg in segments]
        arrows = [(sd.barycenter_of[(v,)], g) for (v, g) in arrows]
    proj = qres.projection
    walk = []
    for i, seg in enumerate(segments):
        for v in seg:
            p = proj[v]
            if not walk or walk[-1] != p:
                walk.append(p)
        if i < len(arrows):
            # the arrow's two endpoints sit in one orbit
            v, g = arrows[i]
            src = qres.action.apply_vertex(g, v)
            if not proj[src] == proj[v] == walk[-1]:
                raise ValidationError("G-path arrow leaves its orbit")
    if walk[0] != walk[-1]:
        raise ValidationError("G-path does not close up in the orbit space")
    return h1.class_of_walk(walk)

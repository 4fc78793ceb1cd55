"""Finite simplicial complexes with exact integer homology.

Vertices are arbitrary sortable hashable labels (the corpus uses
strings).  Cells are stored as tuples in increasing vertex order; an
input tuple in any order contributes the orientation sign of the sort
permutation; SimplicialComplex.orient is the one place that maps an
oriented edge to its stored form and sign.

Homology goes up in degree, and each boundary first drops the rows
that the one below it paired away.  d_1 is never eliminated: a spanning
forest gives its pivots (forest_pairs).  Taken leaf first, the tree
edge (parent(v), v) pivots at row v on an entry that is a unit: +-1,
or +-T^e in a twisted complex.  What the tree leaves in each
component's root row is, per off-tree edge, a unit times T^p - 1, p
the period of the edge's fundamental cycle.  That vanishes when p = 0,
always so over Z, and is a unit of the localized ring otherwise; so
every nonzero invariant factor of d_1 is a unit and H_0 has no torsion
(q_0 = 0).  A top boundary of degree >= 2 is paired the same way on
its dual graph (dual_forest_reduction).  Middle degrees and what that
forest leaves lose their +-1 pivots to sparse elimination, as twisted
homology eliminates units (snf.eliminate_units), and the Smith normal
form of the small residual block gives the rest.
"""

from collections import deque
from itertools import permutations
from operator import add, mul, sub

from .errors import DocumentError, ValidationError
from .snf import eliminate_units, smith_normal_form

__all__ = ["SimplicialComplex", "build_complex", "sort_with_parity",
           "IntHomology", "integer_homology", "homology_of_matrices",
           "euler_characteristic", "SdResult", "barycentric_subdivision",
           "bfs_forest", "cycle_periods", "forest_pairs",
           "dual_forest_reduction"]


def sort_with_parity(vertices, key):
    """Sort a vertex tuple, returning (sorted_tuple, sign of permutation).

    sign is None when a vertex repeats (degenerate simplex).

    >>> sort_with_parity(("c", "a", "b"), key={"a": 0, "b": 1, "c": 2})
    (('a', 'b', 'c'), 1)
    >>> sort_with_parity(("b", "a"), key={"a": 0, "b": 1})
    (('a', 'b'), -1)
    """
    seq = list(vertices)
    if len(set(seq)) != len(seq):
        return tuple(sorted(seq, key=lambda v: key[v])), None
    sign = 1
    # insertion sort; fine at simplex sizes
    for i in range(1, len(seq)):
        j = i
        while j > 0 and key[seq[j - 1]] > key[seq[j]]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return tuple(seq), sign


class SimplicialComplex:
    __slots__ = ("vertices", "vertex_index", "cells", "cell_index", "dim")

    def __init__(self, vertices, cells):
        self.vertices = list(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.cells = cells                      # cells[q] = sorted cell list
        self.cell_index = [{c: i for i, c in enumerate(layer)}
                           for layer in cells]
        self.dim = len(cells) - 1

    def n_cells(self, q):
        return len(self.cells[q]) if 0 <= q <= self.dim else 0

    def has_cell(self, simplex):
        q = len(simplex) - 1
        if not (0 <= q <= self.dim):
            return False
        return tuple(simplex) in self.cell_index[q]

    def normalize(self, simplex):
        """Sorted form and orientation sign of a vertex tuple.

        Raises DocumentError on unknown vertices, ValidationError when
        the sorted tuple is not a cell.  Degenerate tuples get sign 0.
        """
        for v in simplex:
            if v not in self.vertex_index:
                raise DocumentError("unknown vertex %r" % (v,))
        cell, sign = sort_with_parity(simplex, self.vertex_index)
        if sign is None:
            return cell, 0
        if not self.has_cell(cell):
            raise ValidationError("%r is not a simplex of the complex"
                                  % (simplex,))
        return cell, sign

    def orient(self, u, v):
        """Stored form of the edge u -> v and its sign: +1 when u comes
        first in vertex order, -1 when reversed.

        Raises DocumentError on unknown vertices, ValidationError when
        no edge joins u and v (including u == v).

        >>> build_complex([("a", "b")]).orient("b", "a")
        (('a', 'b'), -1)
        """
        iu = self.vertex_index.get(u)
        iv = self.vertex_index.get(v)
        if iu is None or iv is None:
            raise DocumentError("unknown vertex %r"
                                % (u if iu is None else v,))
        key, sign = ((u, v), 1) if iu < iv else ((v, u), -1)
        if self.dim < 1 or key not in self.cell_index[1]:
            raise ValidationError("(%r, %r) is not an edge" % (u, v))
        return key, sign

    def boundary_entries(self, q):
        """Sparse boundary C_q -> C_{q-1} as {(row, col): sign}.

        Rows are indexed by (q-1)-cells, columns by q-cells, both in
        stored order; the face dropping vertex k has sign (-1)^k.
        Out-of-range q gives no entries.
        """
        if q <= 0 or q > self.dim:
            return {}
        idx = self.cell_index[q - 1]
        entries = {}
        for j, cell in enumerate(self.cells[q]):
            for drop in range(len(cell)):
                face = cell[:drop] + cell[drop + 1:]
                entries[(idx[face], j)] = -1 if drop % 2 else 1
        return entries

    def boundary_matrix(self, q):
        """Dense form of boundary_entries(q); out-of-range q gives the
        appropriately shaped zero matrix."""
        mat = [[0] * self.n_cells(q) for _ in range(self.n_cells(q - 1))]
        for (i, j), sign in self.boundary_entries(q).items():
            mat[i][j] = sign
        return mat

    def maximal_cells(self):
        """Cells that are no face of another cell, by dimension, then
        in stored order.  Each (q+1)-cell marks its q-faces once."""
        out = []
        for q, layer in enumerate(self.cells):
            covered = set()
            for cell in (self.cells[q + 1] if q < self.dim else ()):
                covered.update(cell[:k] + cell[k + 1:]
                               for k in range(len(cell)))
            out.extend(cell for cell in layer if cell not in covered)
        return out

    def edges(self):
        return self.cells[1] if self.dim >= 1 else []

    def __repr__(self):
        counts = [len(layer) for layer in self.cells]
        return "SimplicialComplex(%s cells by dim)" % (counts,)


def build_complex(simplices, vertices=None):
    """Build a complex from generating simplices, closing under faces.

    simplices: iterable of vertex tuples in any order (orientation is
    normalized away; storage order is increasing).  vertices fixes the
    vertex order and admits isolated vertices; when omitted it is the
    sorted set of vertices that occur.

    >>> X = build_complex([("a", "b", "c")])
    >>> [len(layer) for layer in X.cells]
    [3, 3, 1]
    >>> X.boundary_matrix(2)
    [[1], [-1], [1]]
    """
    gens = [tuple(s) for s in simplices]
    if vertices is None:
        seen = sorted({v for s in gens for v in s})
    else:
        seen = list(vertices)
        if len(set(seen)) != len(seen):
            raise DocumentError("duplicate vertex in vertex list")
    if not seen:
        raise DocumentError("empty complex: no vertices")
    # faces are closed and sorted as tuples of vertex indices
    index = {v: i for i, v in enumerate(seen)}.__getitem__
    layers = [set()]
    for s in gens:
        if not s:
            raise DocumentError("empty simplex")
        try:
            cell = tuple(sorted(map(index, s)))
        except KeyError as exc:
            raise DocumentError("unknown vertex %r in simplex %r"
                                % (exc.args[0], s)) from None
        if len(set(cell)) != len(cell):
            raise DocumentError("repeated vertex in simplex %r" % (s,))
        q = len(cell) - 1
        while len(layers) <= q:
            layers.append(set())
        layers[q].add(cell)
    for q in range(len(layers) - 1, 1, -1):
        layers[q - 1].update({cell[:drop] + cell[drop + 1:]
                              for cell in layers[q] for drop in range(q + 1)})
    label = seen.__getitem__
    cells = [[(v,) for v in seen]]
    cells += [[tuple(map(label, c)) for c in sorted(layer)]
              for layer in layers[1:]]
    return SimplicialComplex(seen, cells)


def euler_characteristic(X):
    """Alternating sum of cell counts.

    >>> euler_characteristic(build_complex([("a", "b", "c")]))
    1
    """
    return sum((-1) ** q * len(layer) for q, layer in enumerate(X.cells))


def bfs_forest(X):
    """Breadth-first spanning forest of the 1-skeleton.

    Returns (parent, order): parent[v] = previous vertex on the tree
    path, absent for the root of each component (its lowest vertex),
    and the visit order.  Deterministic: neighbors are taken in vertex
    order.
    """
    adj = {v: [] for v in X.vertices}
    for (u, v) in (X.cells[1] if X.dim >= 1 else []):
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort(key=X.vertex_index.__getitem__)
    return _bfs(adj)


def _bfs(adj):
    """Breadth-first spanning forest (parent, order) of the graph
    {vertex: neighbors}, each component rooted at its first vertex in
    adj's order and neighbors taken in list order."""
    parent = {}
    order = []
    seen = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    queue.append(w)
    return parent, order


def cycle_periods(X, values, forest, zero):
    """Potential and periods of integer edge vectors along a spanning
    forest.

    values maps stored edges to int tuples, absent ones zero; forest is
    (parent, order) from bfs_forest.  Returns (pot, periods): pot
    vanishes at the roots and agrees with values on the forest; periods
    maps each edge where values differ from the coboundary of pot to
    that difference, the period of the edge's fundamental cycle, so
    tree edges never appear.
    """
    parent, order = forest
    pot = {}
    for v in order:
        u = parent.get(v)
        pot[v] = (zero if u is None
                  else tuple(map(add, pot[u], values[(u, v)]))
                  if (u, v) in values
                  else tuple(map(sub, pot[u], values.get((v, u), zero))))
    periods = {}
    for (u, v) in X.edges():
        per = tuple(a - b + c for a, b, c in
                    zip(values.get((u, v), zero), pot[v], pot[u]))
        if any(per):
            periods[(u, v)] = per
    return pot, periods


def forest_pairs(X, forest, exponents=None):
    """Pivot pairs (vertex row, edge col) of d_1, read off a spanning
    forest (parent, order) as bfs_forest returns it.

    Leaf first, each tree edge (parent(v), v) pivots at row v.  Twisted
    by exponents (stored edge -> int tuple, absent ones zero, tree edges
    included), each component whose fundamental cycles have some
    period p != 0 pivots once more, at its root row and its first such
    edge in stored order, on the unit times T^p - 1 that the tree
    leaves there.  The pairs' count is the rank of d_1, and each
    pivot is a unit (see the module docstring).  When no tree edge
    carries an exponent, as in every lift that twisted.integralize
    makes, the potential along the forest vanishes and the periods are
    the nonzero exponents themselves; only a gauge-shifted lift needs
    the cycle_periods walk.

    >>> X = build_complex([("a", "b"), ("b", "c"), ("a", "c"),
    ...                    ("d", "e"), ("e", "f"), ("d", "f")])
    >>> forest = bfs_forest(X)
    >>> forest_pairs(X, forest)
    [(5, 4), (4, 3), (2, 1), (1, 0)]
    >>> forest_pairs(X, forest, {("a", "b"): (2,), ("b", "c"): (1,)})
    [(5, 4), (4, 3), (2, 1), (1, 0), (0, 2)]
    """
    parent, order = forest
    row, col = X.vertex_index, X.cell_index[1] if X.dim >= 1 else {}
    tree = {X.orient(parent[v], v)[0]: v
            for v in reversed(order) if v in parent}
    pairs = [(row[v], col[e]) for e, v in tree.items()]
    if exponents:
        root = {}
        for v in order:
            root[v] = root[parent[v]] if v in parent else v
        if tree.keys().isdisjoint(exponents):
            periods = [e for e, p in exponents.items() if any(p)]
        else:
            zero = (0,) * len(next(iter(exponents.values())))
            periods = cycle_periods(X, exponents, forest, zero)[1]
        done = set()
        for (u, v) in sorted(periods, key=col.__getitem__):
            if root[u] not in done:
                done.add(root[u])
                pairs.append((row[root[u]], col[(u, v)]))
    return pairs


def dual_forest_reduction(entries, paired=()):
    """(pivot pairs (row, col), residual) of a top boundary, read off a
    spanning forest of its dual graph (tree-cotree; Lewiner, Lopes and
    Tavares, Comput. Geom. 26, 2003).

    entries maps (row, col) to a signed monomial (exponent, coefficient),
    integers having exponent (); the rows in paired are dropped.  A row
    with two entries +-1 joins their columns, a free face (one such
    entry) joins its column to None, the outside, and other rows are
    residual.  Leaf first, each child t of the breadth-first forest,
    rooted at None first, pivots at its tree row e: a unit triangular
    block.  At each other root r, pot[r] = 1 and pot[t] = -pot[parent]
    d[e, parent] / d[e, t] make sum_t pot[t] d[., t] vanish on the tree
    rows, and its entries on the others are the residual {(row, r):
    {exponent: coefficient}}.  Only a top boundary may be so reduced.

    >>> dual_forest_reduction({(0, 0): ((1,), 1), (1, 0): ((0,), -1),
    ...                        (0, 1): ((0,), 1), (1, 1): ((0,), 1)})
    ([(1, 1)], {(0, 0): {(1,): 1, (0,): 1}})
    """
    rows, adj, edge = {}, {None: []}, {}
    for (i, j), a in entries.items():
        adj[j] = []
        if i not in paired:
            rows.setdefault(i, {})[j] = a
    for i, row in rows.items():
        if len(row) <= 2 and all(c in (1, -1) for _, c in row.values()):
            s, t = row if len(row) == 2 else (None, *row)
            adj[s].append(t)
            adj[t].append(s)
            edge[s, t] = edge[t, s] = i
    parent, order = _bfs(adj)
    zero = (0,) * len(next(iter(entries.values()), ((),))[0])
    root, pot = {}, dict.fromkeys(order, (zero, 1))
    for t in order:
        u = parent.get(t)
        root[t] = root[u] if t in parent else t
        if u is not None:
            (eu, cu), (et, ct) = rows[edge[u, t]][u], rows[edge[u, t]][t]
            pe, pc = pot[u]
            pot[t] = (tuple(map(sub, map(add, pe, eu), et)), -pc * cu * ct)
    pairs = [(edge[parent[t], t], t) for t in reversed(order) if t in parent]
    done = set(paired).union(i for i, _ in pairs)
    residual = {}
    for (i, t), (e, c) in entries.items():
        if i not in done and root[t] is not None:
            pe, pc = pot[t]
            terms = residual.setdefault((i, root[t]), {})
            e = tuple(map(add, pe, e))
            terms[e] = terms.get(e, 0) + pc * c
    return pairs, {key: clean for key, terms in residual.items()
                   if (clean := {e: c for e, c in terms.items() if c})}


class IntHomology:
    """Integer homology: betti[q] and torsion[q] (invariant factors > 1)."""

    __slots__ = ("betti", "torsion")

    def __init__(self, betti, torsion):
        self.betti = betti
        self.torsion = torsion

    def __repr__(self):
        return "IntHomology(betti=%r, torsion=%r)" % (self.betti, self.torsion)

    def __eq__(self, other):
        return (isinstance(other, IntHomology)
                and self.betti == other.betti
                and self.torsion == other.torsion)


def sparse_product_is_zero(A, B):
    """Whether the product of two sparse integer matrices
    {(row, col): int} vanishes; entries of any ring work as well."""
    by_row = {}
    for (k, j), b in B.items():
        by_row.setdefault(k, []).append((j, b))
    acc = {}
    for (i, k), a in A.items():
        for j, b in by_row.get(k, ()):
            key = (i, j)
            term = a * b
            prev = acc.get(key)
            acc[key] = term if prev is None else prev + term
    return all(not p for p in acc.values())


def homology_of_matrices(ncells, boundaries, degree_one_pairs=None):
    """Homology of a bounded chain complex of free Z-modules.

    ncells[q] is the rank in degree q; boundaries[q] maps degree q to
    q-1 as sparse entries {(row, col): int} (boundaries[0] is ignored).
    The composite of consecutive maps is checked to vanish.  Going up
    in degree, each boundary loses its +-1 pivots, which are their own
    inverses, and the Smith form of the residual gives the rest of the
    rank and the torsion.  A pivot (s, t) splits s and t off the complex
    with no homology, so the next boundary drops row t before its own
    elimination; ranks and torsion stay those of the full boundaries.
    A top boundary of degree >= 2 pairs along its dual forest first.
    degree_one_pairs, when given, are d_1's unit pivots read off a
    spanning forest (forest_pairs): d_1 is then not eliminated, its
    rank is their count, and H_0 has no torsion.
    """
    top = len(ncells) - 1
    for q in range(1, top):
        if not sparse_product_is_zero(boundaries[q], boundaries[q + 1]):
            raise ValidationError("boundary squared is nonzero in degree %d"
                                  % (q + 1,))
    ranks = [0] * (top + 2)
    torsion = [[] for _ in range(top + 1)]
    pairs = degree_one_pairs
    for q in range(1, top + 1):
        if not all(0 <= i < ncells[q - 1] and 0 <= j < ncells[q]
                   for i, j in boundaries[q]):
            raise ValidationError("boundary entry out of range in degree %d"
                                  % (q,))
        if q > 1 or pairs is None:
            paired = {j for _, j in pairs or ()}
            pairs, d = [], {key: a for key, a in boundaries[q].items()
                            if key[0] not in paired}
            if q == top > 1:
                pairs, d = dual_forest_reduction(
                    {key: ((), a) for key, a in d.items()})
                d = {key: terms[()] for key, terms in d.items()}
            more, residual, cols = eliminate_units(
                d, lambda a: 1 if a in (1, -1) else None, mul)
            pairs += more
            snf = smith_normal_form([[row.get(j, 0) for j in cols]
                                     for row in residual])
            ranks[q] = snf.rank
            torsion[q - 1] = snf.torsion()
        ranks[q] += len(pairs)
    betti = [ncells[q] - ranks[q] - ranks[q + 1] for q in range(top + 1)]
    if any(b < 0 for b in betti):
        raise ValidationError("negative betti number; ranks are inconsistent")
    return IntHomology(betti, torsion)


def integer_homology(X, forest=None):
    """Exact integer homology of a simplicial complex.

    d_1's pivots come from forest, a spanning forest as bfs_forest
    returns it, which is built when none is given.

    >>> H = integer_homology(build_complex([("a", "b"), ("b", "c"), ("a", "c")]))
    >>> H.betti
    [1, 1]
    >>> H.torsion
    [[], []]
    """
    if forest is None:
        forest = bfs_forest(X)
    ncells = [len(layer) for layer in X.cells]
    boundaries = [X.boundary_entries(q) for q in range(X.dim + 1)]
    return homology_of_matrices(ncells, boundaries,
                                forest_pairs(X, forest))


class SdResult:
    """Barycentric subdivision with the cell <-> barycenter dictionaries."""

    __slots__ = ("complex", "barycenter_of", "cell_of")

    def __init__(self, complex, barycenter_of, cell_of):
        self.complex = complex
        self.barycenter_of = barycenter_of
        self.cell_of = cell_of


def _bar_label(cell):
    return "(" + ",".join(str(v) for v in cell) + ")"


def barycentric_subdivision(X):
    """First barycentric subdivision.

    New vertices are barycenters of cells of X, labeled by the cell;
    simplices are flags of proper faces.  Vertex order of the new
    complex is (dimension, stored cell order), so original vertices
    come first.

    >>> sd = barycentric_subdivision(build_complex([("a", "b")]))
    >>> sd.complex.vertices
    ['(a)', '(b)', '(a,b)']
    >>> len(sd.complex.cells[1])
    2
    """
    barycenter_of = {}
    order = []
    for layer in X.cells:
        for cell in layer:
            label = _bar_label(cell)
            barycenter_of[cell] = label
            order.append(label)
    if len(set(order)) != len(order):
        # vertex labels containing commas can alias two cells
        raise DocumentError("barycenter label collision")
    cell_of = {lab: cell for cell, lab in barycenter_of.items()}
    simplices = []
    for cell in X.maximal_cells():
        for perm in permutations(cell):
            chain = []
            for k in range(1, len(perm) + 1):
                face = tuple(sorted(perm[:k], key=X.vertex_index.__getitem__))
                chain.append(barycenter_of[face])
            simplices.append(tuple(chain))
    return SdResult(build_complex(simplices, vertices=order),
                    barycenter_of, cell_of)

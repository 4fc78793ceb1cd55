"""Independent slow oracles for the test suite.

Everything here is written from scratch against the definitions, on
purpose not sharing code with the package: rational row reduction for
betti numbers, gcd-of-minors determinantal divisors for invariant
factors.  Keep these dumb and obviously correct.

The per-boundary references are one exception: they call the
package's reduction of a single matrix, but reduce every boundary on
its own with all its rows, so they check only the step that carries
pivot pairs from one degree to the next.  The quotient reference is
the second: it builds the orbit space with the package's build_complex,
from vertex orbits and the image of every cell.  The nerve reference
is the third: it checks the identities unfactorised, one operator at
a time, on every stored cell in every vertex order, with faces that
reference_word_faces and reference_anchor_faces list cell by cell from
the model's exponents, group and action.  The per-unit nerve reference
runs the package's own face kernel over the same unit cells, but
takes D^2 from a third face pass, where the package reads it off the
four second-level parts bidegree by bidegree.  The cover references
are the fourth: they eliminate every boundary of the explicit cyclic
cover, built from "v@level" labels, and every block boundary of the
twisted complex at T = the cyclic shift, with the package's
homology_of_matrices, d_1 included, where the package compares the two
boundaries entry for entry and takes the homology of its own cover
once, pairing d_1 by the cover's spanning forest.  The loader
references are the fifth: build_complex, the space, group and cocycle parsers and the
action checks as they were before the loader tested each entry's shape
in one expression, kept line for line so that every refusal can be
compared by exception class and text.  The top-boundary reference is
the sixth: it reduces a top boundary without the rows the degree below
paired away as the package did before the dual forest, handing all of
it to the package's elimination.  The specialization reference is the
seventh: it sets each twisting variable to an integer and ranks the
boundaries over Q with gauss_rank, a check of the betti-only route
that never calls fraction_field_rank.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import add, mul

from orbinov.actions import FiniteGroup, SimplicialAction
from orbinov.cochains import vec_neg
from orbinov.complexes import (IntHomology, SimplicialComplex, build_complex,
                               homology_of_matrices)
from orbinov.documents import (OrbifoldDocument, _check_keys, _expect,
                               _parse_critical, parse_fraction)
from orbinov.errors import DocumentError, ValidationError
from orbinov.laurent import LaurentPoly
from orbinov.lmatrix import (WeightedLaurentMatrix, fraction_field_rank,
                             invariant_factors)
from orbinov.nerve import unit_cells
from orbinov.snf import eliminate_units, smith_normal_form
from orbinov.twisted import twisted_complex


def gauss_rank(rows):
    """Rank over Q by straightforward elimination."""
    M = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(M)):
            if M[i][col]:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col] / M[rank][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def close_under_faces(simplices):
    """All faces of all input simplices, keyed by dimension."""
    layers = {}
    stack = [tuple(sorted(set(s))) for s in simplices]
    seen = set(stack)
    while stack:
        s = stack.pop()
        layers.setdefault(len(s) - 1, set()).add(s)
        if len(s) > 1:
            for i in range(len(s)):
                f = s[:i] + s[i + 1:]
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
    return {q: sorted(cells) for q, cells in layers.items()}


def boundary_matrix_oracle(layers, q):
    """Boundary of degree q as a dense list of rows."""
    rows = layers.get(q - 1, [])
    cols = layers.get(q, [])
    pos = {c: i for i, c in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for i in range(len(c)):
            face = c[:i] + c[i + 1:]
            mat[pos[face]][j] += (-1) ** i
    return mat


def betti_oracle(simplices):
    """Betti numbers of the complex generated by the given simplices."""
    layers = close_under_faces(simplices)
    top = max(layers)
    out = []
    for q in range(top + 1):
        n = len(layers.get(q, []))
        r_q = gauss_rank(boundary_matrix_oracle(layers, q)) if q >= 1 else 0
        r_q1 = gauss_rank(boundary_matrix_oracle(layers, q + 1))
        out.append(n - r_q - r_q1)
    return out


def int_det(rows):
    """Determinant of a square integer matrix, by Laplace expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def minor_gcd_invariant_factors(rows):
    """Nonzero invariant factors via determinantal divisors.

    d_i = Delta_i / Delta_{i-1} where Delta_i is the gcd of all i x i
    minors.  Exponential, fine for the small matrices the tests use.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for size in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, int_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def integer_kernel(rows, ncols):
    """Primitive integer vectors spanning the kernel over Q of an
    integer matrix, one per free column of its reduced echelon form."""
    M = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(M)) if M[i][col]),
                   None)
        if piv is None:
            continue
        r = len(pivots)
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][col] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(ncols)]
        for row, col in zip(M, pivots):
            v[col] = -row[free]
        scale = math.lcm(*(x.denominator for x in v))
        v = [int(x * scale) for x in v]
        g = math.gcd(*v)
        out.append([x // g for x in v])
    return out


def betti_of_matrices(ncells, boundaries):
    """Betti numbers straight from rank counting on given boundaries."""
    top = len(ncells) - 1
    ranks = [0] * (top + 2)
    for q in range(1, top + 1):
        ranks[q] = gauss_rank(boundaries[q])
    return [ncells[q] - ranks[q] - ranks[q + 1] for q in range(top + 1)]


def _edge_value(X, values, zero, u, v):
    """Value on u -> v of {stored edge: Fraction vector}, by a direct
    look at which orientation is stored."""
    if (u, v) in X.cell_index[1]:
        return values.get((u, v), zero)
    return tuple(-x for x in values.get((v, u), zero))


def forest_periods_oracle(cochain, parent, order):
    """Potential and off-forest periods in Fractions, one edge at a
    time: the reference for cochains.forest_periods."""
    X = cochain.complex
    zero = (Fraction(0),) * cochain.space.k
    f = {}
    for v in order:
        if v in parent:
            step = _edge_value(X, cochain.values, zero, parent[v], v)
            f[v] = tuple(a + b for a, b in zip(f[parent[v]], step))
        else:
            f[v] = zero
    periods = {}
    for (u, v) in (X.cells[1] if X.dim >= 1 else []):
        per = tuple(c - (b - a) for c, a, b
                    in zip(cochain.values.get((u, v), zero), f[u], f[v]))
        if any(per):
            periods[(u, v)] = per
    return f, periods


def forest_pairs_oracle(X, forest, exponents):
    """d_1's pivot pairs with every period walked along the spanning
    forest, one edge at a time: the reference for complexes.forest_pairs,
    which reads the periods off the exponents when no tree edge carries
    one."""
    parent, order = forest
    zero = (0,) * len(next(iter(exponents.values()), ()))
    f, root = {}, {}
    for v in order:
        if v in parent:
            step = _edge_value(X, exponents, zero, parent[v], v)
            f[v] = tuple(map(add, f[parent[v]], step))
            root[v] = root[parent[v]]
        else:
            f[v], root[v] = zero, v
    pairs = []
    for v in reversed(order):
        if v in parent:
            u = parent[v]
            edge = (u, v) if (u, v) in X.cell_index[1] else (v, u)
            pairs.append((X.vertex_index[v], X.cell_index[1][edge]))
    pivoted = set()
    for j, (u, v) in enumerate(X.cells[1] if X.dim >= 1 else []):
        per = tuple(c - (b - a) for c, a, b
                    in zip(exponents.get((u, v), zero), f[u], f[v]))
        if any(per) and root[u] not in pivoted:
            pivoted.add(root[u])
            pairs.append((X.vertex_index[root[u]], j))
    return pairs


def first_open_triangle(X, values, k):
    """First triangle in stored order on which values, a map
    {stored edge: Fraction vector}, do not sum to zero; None if closed."""
    zero = (Fraction(0),) * k
    for tri in (X.cells[2] if X.dim >= 2 else []):
        a, b, c = tri
        total = [x - y + z for x, y, z in zip(values.get((a, b), zero),
                                              values.get((a, c), zero),
                                              values.get((b, c), zero))]
        if any(total):
            return tri
    return None


def sparse_product_is_zero(A, B):
    """Whether the product of two sparse matrices {(row, col): entry}
    vanishes, entries of any ring: the reference for
    complexes.product_is_zero, which multiplies signed monomials."""
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


def per_boundary_homology(ncells, boundaries):
    """Integer homology with every boundary reduced on its own, all rows
    kept: the reference for complexes.homology_of_matrices."""
    top = len(ncells) - 1
    ranks = [0] * (top + 2)
    torsion = [[] for _ in range(top + 1)]
    for q in range(1, top + 1):
        pairs, residual, cols = eliminate_units(
            boundaries[q], lambda a: 1 if a in (1, -1) else None, mul)
        snf = smith_normal_form([[row.get(j, 0) for j in cols]
                                 for row in residual])
        ranks[q] = len(pairs) + snf.rank
        torsion[q - 1] = snf.torsion()
    return IntHomology([ncells[q] - ranks[q] - ranks[q + 1]
                        for q in range(top + 1)], torsion)


def per_boundary_novikov(lift):
    """(betti, torsion, route) of an integral lift with every twisted
    boundary reduced on its own, all rows kept: the reference for
    twisted.novikov_numbers."""
    X = lift.complex
    ncells = [X.n_cells(q) for q in range(X.dim + 1)]
    if lift.rank == 0:
        ih = per_boundary_homology(
            ncells, [X.boundary_entries(q) for q in range(X.dim + 1)])
        return ih.betti, [len(t) for t in ih.torsion], "integral"
    tc = twisted_complex(lift)
    rho = [0] * (X.dim + 2)
    torsion = [0] * (X.dim + 1)
    for q in range(1, X.dim + 1):
        if lift.rank == 1:
            inv = invariant_factors(tc.boundary(q))
            rho[q] = inv.rank
            torsion[q - 1] = inv.nonunit_count
        else:
            rho[q] = fraction_field_rank(tc.boundary(q))[0]
    betti = [ncells[q] - rho[q] - rho[q + 1] for q in range(X.dim + 1)]
    if lift.rank == 1:
        return betti, torsion, "rank-one"
    return betti, None, "betti-only"


def reference_top_reduction(entries, paired, ws=None):
    """(rank, torsion) of a top boundary {(row, col): (exponent,
    coefficient)} without the rows in paired, reduced as every
    boundary was before the top one paired along its dual forest:
    eliminate_units on all of it, then the Smith form of the residual
    over the integers (ws None, exponents ()), torsion the invariant
    factors > 1.  Over the weighted Laurent ring of ws it is
    invariant_factors at rank one, torsion the count of non-unit
    factors, and fraction_field_rank at higher rank, torsion None."""
    kept = {key: a for key, a in entries.items() if key[0] not in paired}
    if ws is None:
        pairs, residual, cols = eliminate_units(
            {key: c for key, (_, c) in kept.items()},
            lambda a: 1 if a in (1, -1) else None, mul)
        snf = smith_normal_form([[row.get(j, 0) for j in cols]
                                 for row in residual])
        return len(pairs) + snf.rank, snf.torsion()
    M = WeightedLaurentMatrix(
        ws, 1 + max((i for i, _ in entries), default=-1),
        1 + max((j for _, j in entries), default=-1),
        {key: LaurentPoly.monomial(ws.r, e, c) for key, (e, c) in kept.items()})
    if ws.r == 1:
        inv = invariant_factors(M)
        return inv.rank, inv.nonunit_count
    return fraction_field_rank(M)[0], None


def reference_is_regular(action):
    """The element-tuple form of the definition: every tuple of group
    elements (g_0, ..., g_q) whose targets v_0.g_0, ..., v_q.g_q span a
    simplex is realized by one element.  Only the targets enter, so the
    loop runs over the product of the vertices' orbits: the same
    definition, without the tuples that repeat a target tuple."""
    X = action.complex
    G = action.group.elements
    maps = action.vertex_maps
    key = X.vertex_index.__getitem__
    orbit = {v: list(dict.fromkeys(maps[g][v] for g in G))
             for v in X.vertices}
    for q in range(1, X.dim + 1):
        for cell in X.cells[q]:
            for targets in product(*(orbit[v] for v in cell)):
                spanned = tuple(sorted(set(targets), key=key))
                if not X.has_cell(spanned):
                    continue
                if not any(all(maps[g][v] == t for v, t in zip(cell, targets))
                           for g in G):
                    return False
    return True


def reference_quotient(action):
    """(orbit space, projection) of an action that is regular by the
    element-tuple definition: vertex orbits labeled q0, q1, ... by
    smallest representative, and every cell projected.  The reference
    for actions.quotient_complex once it has subdivided."""
    X = action.complex
    orbit_of = {}
    orbits = []
    for v in X.vertices:
        if v in orbit_of:
            continue
        orbit = action.vertex_orbit(v)
        orbits.append(orbit)
        for w in orbit:
            orbit_of[w] = len(orbits) - 1
    labels = ["q%d" % i for i in range(len(orbits))]
    projection = {v: labels[orbit_of[v]] for v in X.vertices}
    simplices = set()
    for q in range(1, X.dim + 1):
        for cell in X.cells[q]:
            image = tuple(sorted({projection[v] for v in cell}))
            if len(image) != len(cell):
                raise AssertionError("collapsed simplex %r" % (cell,))
            simplices.add(image)
    return build_complex(sorted(simplices), vertices=labels), projection


def reference_identity_failures(model):
    """The nerve identities checked unfactorised, one operator at a
    time: every stored cell in every vertex order with every word of
    at most min(3, depth) letters, each unit through model.unit, eight
    boundary passes per unit.  Yields a description of each failure,
    naming its cell, as it is found.  The reference for
    nerve.identity_failures, which checks a factorised unit set in
    stored vertex order and makes at most three face passes per
    unit."""
    elements = model.action.group.elements
    words = [w for n in range(min(3, model.depth) + 1)
             for w in product(elements, repeat=n)]
    for cells in model.complex.cells:
        for cell in cells:
            for anchor in permutations(cell):
                for w in words:
                    c = model.unit(anchor, w)
                    word = reference_boundary(model, c, anchor=False)
                    face = reference_boundary(model, c, word=False)
                    name = "cell %r: " % ((anchor, w),)
                    if reference_boundary(model, word, anchor=False):
                        yield name + "word boundary squared is nonzero"
                    if reference_boundary(model, face, word=False):
                        yield name + "face boundary squared is nonzero"
                    if (reference_boundary(model, word, word=False)
                            != reference_boundary(model, face, anchor=False)):
                        yield name + "boundaries do not commute"
                    if reference_boundary(model, reference_boundary(model, c)):
                        yield name + "total differential squared is nonzero"


def reference_unit_failures(model):
    """The per-unit loop of nerve.identity_failures as it was before
    D^2 came from the four second-level parts: over the same unit
    cells, with the model's face kernel, D^2(c) from a third face pass
    over D(c), and the bidegree signs written out in _reference_total.
    Yields each failure as found."""
    boundaries = model._boundaries
    zero = (0,) * model.r
    for cell in unit_cells(model):
        w, f = boundaries({(*cell, zero): 1})
        word_word, face_word = boundaries(w)
        word_face, face_face = boundaries(f)
        for bad, what in ((word_word, "word boundary squared is nonzero"),
                          (face_face, "face boundary squared is nonzero"),
                          (face_word != word_face,
                           "boundaries do not commute"),
                          (_reference_total(*boundaries(
                              _reference_total(w, f))),
                           "total differential squared is nonzero")):
            if bad:
                yield "cell %r: %s" % (cell, what)


def _reference_total(word, face):
    total = {key: -c if (len(key[0]) + len(key[1])) % 2 else c
             for key, c in word.items()}
    for key, c in face.items():
        x = total.get(key, 0) + (-c if len(key[0]) % 2 else c)
        if x:
            total[key] = x
        else:
            del total[key]
    return total


def reference_boundary(model, flat, word=True, anchor=True):
    """Word faces, anchor faces, or both with the bidegree sign rule:
    the word faces of a cell carry (-1)^(q+n), its anchor faces
    (-1)^q."""
    total = word and anchor
    out = {}
    for (a, w, e), c in flat.items():
        if word:
            _reference_add_faces(
                out, reference_word_faces(model, a, w), e,
                -c if total and (len(a) + len(w)) % 2 == 0 else c)
        if anchor:
            _reference_add_faces(out, reference_anchor_faces(model, a, w),
                                 e, -c if total and len(a) % 2 == 0 else c)
    return out


def reference_word_faces(model, anchor, word):
    """Word faces of one cell as (anchor, word, None, sign): the last
    relocates the anchor by the inverse of the dropped letter."""
    n = len(word)
    group = model.action.group
    if not n:
        return []
    faces = [(anchor, word[1:], None, 1)]
    for k in range(1, n):
        merged = (word[:k - 1] + (group.mul(word[k - 1], word[k]),)
                  + word[k + 1:])
        faces.append((anchor, merged, None, (-1) ** k))
    moved = model.action.apply_tuple(group.inverse(word[-1]), anchor)
    faces.append((moved, word[:-1], None, (-1) ** n))
    return faces


def reference_anchor_faces(model, anchor, word):
    """Anchor faces of one cell as (anchor, word, exponent shift or
    None, sign); only the leading face is shifted, by the exponent of
    the first edge."""
    if len(anchor) == 1:
        return []
    head = model.exp(anchor[0], anchor[1])
    faces = [(anchor[1:], word, head if any(head) else None, 1)]
    for j in range(1, len(anchor)):
        faces.append((anchor[:j] + anchor[j + 1:], word, None, (-1) ** j))
    return faces


def _reference_add_faces(out, faces, exp, coeff):
    for anchor, word, shift, sign in faces:
        key = (anchor, word,
               exp if shift is None else tuple(map(add, exp, shift)))
        total = out.get(key, 0) + sign * coeff
        if total:
            out[key] = total
        else:
            del out[key]


def reference_explicit_cover_homology(X, lift, p):
    """Integer homology of the degree p cyclic cover of a rank one
    lift, built as a complex with vertices (v, level), every boundary
    eliminated in full: the route twisted.cyclic_cover_oracle took
    before the cover paired d_1 by its own spanning forest."""
    def label(v, level):
        return "%s@%d" % (v, level)

    simplices = []
    all_cells = [cell for q in range(X.dim + 1) for cell in X.cells[q]]
    for cell in all_cells:
        v0 = cell[0]
        offsets = [0]
        for v in cell[1:]:
            offsets.append(lift.exponent(v0, v)[0])
        for level in range(p):
            simplices.append(tuple(label(v, (level + off) % p)
                                   for v, off in zip(cell, offsets)))
    cover = build_complex(simplices)
    if any(cover.n_cells(q) != p * X.n_cells(q) for q in range(X.dim + 1)):
        raise ValidationError("cover has collapsed cells")
    return homology_of_matrices(
        [cover.n_cells(q) for q in range(X.dim + 1)],
        [cover.boundary_entries(q) for q in range(X.dim + 1)])


def reference_block_substitution_homology(X, tc, p):
    """Integer homology of the degree p cyclic cover of a rank one
    twisted complex tc on X, from the p by p cyclic shift substituted
    for the twisting variable, every block boundary eliminated in full:
    the route twisted.cyclic_cover_oracle took before the block d_1 was
    paired by its own graph's spanning forest."""
    ncells = [X.n_cells(q) * p for q in range(X.dim + 1)]
    boundaries = [{}]
    for q in range(1, X.dim + 1):
        entries = {}
        for (i, j), ((e,), c) in tc.monomials[q].items():
            for level in range(p):
                key = (i * p + (level + e) % p, j * p + level)
                entries[key] = entries.get(key, 0) + c
        boundaries.append({key: c for key, c in entries.items() if c})
    return homology_of_matrices(ncells, boundaries)


def specialization_betti(lift, point):
    """Betti numbers over Q of the lift's twisted complex with each
    twisting variable T_i set to the nonzero integer point[i]: the face
    dropping a cell's first vertex gets the product of the t_i to the
    exponents of the first edge, face k > 0 gets (-1)^k, and gauss_rank
    ranks each boundary.  A rank can only drop under specialization, so
    these are never below the Novikov Betti numbers, and at (1, ..., 1)
    they are the ordinary ones."""
    X = lift.complex
    ranks = [0] * (X.dim + 2)
    for q in range(1, X.dim + 1):
        index = {c: i for i, c in enumerate(X.cells[q - 1])}
        rows = [[Fraction(0)] * X.n_cells(q) for _ in X.cells[q - 1]]
        for j, cell in enumerate(X.cells[q]):
            head = Fraction(1)
            for t, e in zip(point, lift.exponent(cell[0], cell[1])):
                head *= Fraction(t) ** e
            for k in range(q + 1):
                rows[index[cell[:k] + cell[k + 1:]]][j] = \
                    head if k == 0 else (-1) ** k
        ranks[q] = gauss_rank(rows)
    return [X.n_cells(q) - ranks[q] - ranks[q + 1] for q in range(X.dim + 1)]


def reference_build_complex(simplices, vertices=None):
    """build_complex with per-vertex membership tests and a key
    function per cell."""
    gens = [tuple(s) for s in simplices]
    if vertices is None:
        seen = sorted({v for s in gens for v in s})
    else:
        seen = list(vertices)
        if len(set(seen)) != len(seen):
            raise DocumentError("duplicate vertex in vertex list")
    if not seen:
        raise DocumentError("empty complex: no vertices")
    index = {v: i for i, v in enumerate(seen)}
    layers = [set((v,) for v in seen)]
    for s in gens:
        if not s:
            raise DocumentError("empty simplex")
        for v in s:
            if v not in index:
                raise DocumentError("unknown vertex %r in simplex %r" % (v, s))
        if len(set(s)) != len(s):
            raise DocumentError("repeated vertex in simplex %r" % (s,))
        cell = tuple(sorted(s, key=index.__getitem__))
        q = len(cell) - 1
        while len(layers) <= q:
            layers.append(set())
        layers[q].add(cell)
    for q in range(len(layers) - 1, 1, -1):
        for cell in layers[q]:
            for drop in range(len(cell)):
                layers[q - 1].add(cell[:drop] + cell[drop + 1:])
    cells = [sorted(layer, key=lambda c: tuple(map(index.__getitem__, c)))
             for layer in layers]
    return SimplicialComplex(seen, cells)


def reference_parse_space(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("vertices", "simplices"), where)
    if "vertices" not in obj or "simplices" not in obj:
        raise DocumentError("%s: needs vertices and simplices" % (where,))
    vertices = _expect(obj["vertices"], list, where + ".vertices", "a list")
    for v in vertices:
        _expect(v, str, where + ".vertices", "vertex names")
    simplices = _expect(obj["simplices"], list, where + ".simplices",
                        "a list")
    cells = []
    for i, cell in enumerate(simplices):
        spot = "%s.simplices[%d]" % (where, i)
        _expect(cell, list, spot, "a list")
        for v in cell:
            _expect(v, str, spot, "vertex names")
        cells.append(tuple(cell))
    return reference_build_complex(cells, vertices=vertices)


def reference_action(group, complex, vertex_maps):
    """SimplicialAction with the table and image checks run on every
    element, the identity included."""
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
    for v in complex.vertices:
        if maps[ident][v] != v:
            raise ValidationError("identity element must act trivially")
    for g in group.elements:
        for h in group.elements:
            gh = group.mul(g, h)
            for v in complex.vertices:
                if maps[h][maps[g][v]] != maps[gh][v]:
                    raise ValidationError(
                        "vertex maps break the table at (%r, %r)" % (g, h))
    key = complex.vertex_index.__getitem__
    ordered = [(g, maps[g].__getitem__) for g in group.elements]
    for q in range(1, complex.dim + 1):
        index = complex.cell_index[q]
        for cell in complex.cells[q]:
            for g, image in ordered:
                if tuple(sorted(map(image, cell), key=key)) not in index:
                    raise ValidationError(
                        "element %r does not map simplex %r to a simplex"
                        % (g, cell))
    return SimplicialAction._of(group, complex, maps)


def _reference_parse_group(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("elements", "table"), where)
    if "elements" not in obj or "table" not in obj:
        raise DocumentError("%s: needs elements and table" % (where,))
    elements = _expect(obj["elements"], list, where + ".elements", "a list")
    for g in elements:
        _expect(g, str, where + ".elements", "element names")
    table = _expect(obj["table"], list, where + ".table", "a list")
    for i, row in enumerate(table):
        spot = "%s.table[%d]" % (where, i)
        for g in _expect(row, list, spot, "a list"):
            _expect(g, str, spot, "element names")
    return FiniteGroup(elements, table)


def _reference_parse_action(obj, where):
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("group", "space", "vertex_maps"), where)
    for field in ("group", "space", "vertex_maps"):
        if field not in obj:
            raise DocumentError("%s: needs %s" % (where, field))
    group = _reference_parse_group(obj["group"], where + ".group")
    space = reference_parse_space(obj["space"], where + ".space")
    raw = _expect(obj["vertex_maps"], dict, where + ".vertex_maps",
                  "an object")
    maps = {}
    for g, table in raw.items():
        spot = "%s.vertex_maps.%s" % (where, g)
        for image in _expect(table, dict, spot, "an object").values():
            _expect(image, str, spot, "vertex names")
        maps[g] = dict(table)
    return reference_action(group, space, maps)


def reference_parse_cocycle(obj, X, where):
    """The cocycle parser with a field path per entry and one
    parse_fraction per coordinate."""
    _expect(obj, dict, where, "an object")
    _check_keys(obj, ("symbols", "shadows", "edges"), where)
    symbols = _expect(obj.get("symbols", []), list, where + ".symbols",
                      "a list")
    for s in symbols:
        _expect(s, str, where + ".symbols", "symbol names")
    if len(set(symbols)) != len(symbols):
        raise DocumentError("%s.symbols: repeated symbol" % (where,))
    shadows = _expect(obj.get("shadows", {}), dict, where + ".shadows",
                      "an object")
    for sym, dec in shadows.items():
        spot = "%s.shadows.%s" % (where, sym)
        if sym not in symbols:
            raise DocumentError("%s: not a declared symbol" % (spot,))
        if not isinstance(dec, str) or not re.match(r"-?[0-9]+(\.[0-9]+)?\Z",
                                                    dec):
            raise DocumentError("%s: expected a decimal string, got %r"
                                % (spot, dec))
    k = 1 + len(symbols)
    edges = _expect(obj.get("edges", []), list, where + ".edges", "a list")
    values = {}
    for i, entry in enumerate(edges):
        spot = "%s.edges[%d]" % (where, i)
        _expect(entry, list, spot, "a [u, v, value] triple")
        if len(entry) != 3:
            raise DocumentError("%s: expected a [u, v, value] triple"
                                % (spot,))
        u, v, value = entry
        _expect(u, str, spot, "vertex names")
        _expect(v, str, spot, "vertex names")
        try:
            key, sign = X.orient(u, v)
        except (DocumentError, ValidationError) as exc:
            raise DocumentError("%s: %s" % (spot, exc)) from None
        if key in values:
            raise DocumentError("%s: edge assigned twice" % (spot,))
        if isinstance(value, str):
            value = [value]
        _expect(value, list, spot, "a list of p/q strings")
        if len(value) != k:
            raise DocumentError(
                "%s: value needs %d coordinates (1 + symbols), got %d"
                % (spot, k, len(value)))
        vec = tuple(parse_fraction(x, spot) for x in value)
        values[key] = vec if sign > 0 else vec_neg(vec)
    return {"symbols": list(symbols),
            "shadows": {s: shadows[s] for s in symbols if s in shadows},
            "values": values}


def reference_document(data):
    """OrbifoldDocument.from_dict through the references above."""
    _expect(data, dict, "document", "an object")
    _check_keys(data, ("name", "description", "action", "orbit",
                       "cocycles", "critical_data"), "document")
    name = _expect(data.get("name", ""), str, "name", "a string")
    description = _expect(data.get("description", ""), str,
                          "description", "a string")
    if ("action" in data) == ("orbit" in data):
        raise DocumentError(
            "document: exactly one of action and orbit is required")
    if "action" in data:
        action = _reference_parse_action(data["action"], "action")
        space = action.complex
    else:
        action = None
        space = reference_parse_space(data["orbit"], "orbit")
    raw_cocycles = _expect(data.get("cocycles", {}), dict, "cocycles",
                           "an object")
    cocycle_specs = {
        cname: reference_parse_cocycle(spec, space, "cocycles.%s" % (cname,))
        for cname, spec in raw_cocycles.items()}
    raw_critical = _expect(data.get("critical_data", {}), dict,
                           "critical_data", "an object")
    critical_blocks = {
        bname: _parse_critical(spec, "critical_data.%s" % (bname,))
        for bname, spec in raw_critical.items()}
    return OrbifoldDocument(name, description, action, space,
                            cocycle_specs, critical_blocks)

"""Generated inputs for the tests and the corpus generator.

Plain functions: each takes sizes, and a seed where it draws, and
returns a complex, a group, an action or a cochain.  The answers these
inputs must give stay in the tests that assert them.

Grid vertices are named by their coordinates: g<x>_<y> on the square
grids, c<i>_<j> on the mirror grid, t<x>_<y>_<z> on the 3-torus and
s<k>_<x>_<y> on torus k of a genus-g surface, so that grid_class reads
each edge's steps off its labels.
"""

import random
from fractions import Fraction
from itertools import permutations, product

from orbinov.actions import FiniteGroup, SimplicialAction
from orbinov.cochains import PeriodSpace, RationalCochain1
from orbinov.complexes import build_complex

F = Fraction

Z2 = FiniteGroup(["e", "m"], [["e", "m"], ["m", "e"]])

ALPHA = PeriodSpace(("alpha",), {"alpha": F(141421356, 10 ** 8)})

RP2_TRIANGLES = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                 (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]


# ---------------------------------------------------------------- small

def circle():
    return build_complex([("a", "b"), ("b", "c"), ("a", "c")])


def circle_dtheta(X=None):
    """The angle class of circle(): period 1, a third on each edge."""
    X = X if X is not None else circle()
    return RationalCochain1(X, {("a", "b"): F(1, 3), ("b", "c"): F(1, 3),
                                ("a", "c"): F(-1, 3)})


def rp2():
    """The six-vertex projective plane."""
    return build_complex([tuple("v%d" % v for v in t) for t in RP2_TRIANGLES])


def cycle_complex(labels):
    edges = [(labels[i], labels[(i + 1) % len(labels)])
             for i in range(len(labels))]
    return build_complex(edges, vertices=labels)


def hexagon_action():
    """Z/2 turning the hexagon h0..h5 by half a turn, freely."""
    labels = ["h%d" % i for i in range(6)]
    rot = {"h%d" % i: "h%d" % ((i + 3) % 6) for i in range(6)}
    return SimplicialAction(Z2, cycle_complex(labels), {"m": rot})


def hexagon_dtheta(act):
    """The angle class of the hexagon: a sixth on each edge."""
    values = {("h%d" % i, "h%d" % (i + 1)): F(1, 6) for i in range(5)}
    values[("h0", "h5")] = F(-1, 6)
    return RationalCochain1(act.complex, values)


def mirror_square_action():
    """Z/2 reflecting the square s0..s3 across a diagonal."""
    labels = ["s%d" % i for i in range(4)]
    m = {"s0": "s1", "s1": "s0", "s2": "s3", "s3": "s2"}
    return SimplicialAction(Z2, cycle_complex(labels), {"m": m})


# ---------------------------------------------------------------- grids

def _refuse_small(*sizes):
    # two vertices per circle close up to the boundary of a tetrahedron
    for n in sizes:
        if n < 3:
            raise ValueError("grid size %d: a grid circle needs at least "
                             "3 vertices" % n)


def torus_grid_cells(n, label):
    """The two triangles (p, q, s) and (p, s, r) of each square of an
    n x n grid, with label(x, y) naming the corners (x, y up to n)."""
    cells = []
    for x in range(n):
        for y in range(n):
            p = label(x, y)
            q = label(x + 1, y)
            r = label(x, y + 1)
            s = label(x + 1, y + 1)
            cells.append((p, q, s))
            cells.append((p, s, r))
    return cells


def _torus_label(n):
    def label(x, y):
        return "g%d_%d" % (x % n, y % n)
    return label


def torus_grid(n):
    _refuse_small(n)
    return build_complex(torus_grid_cells(n, _torus_label(n)))


def torus_reflection(n):
    """Z/2 acting on torus_grid(n) by the point reflection (x, y) ->
    (-x, -y); at n = 4 the orbit space is the pillowcase sphere."""
    label = _torus_label(n)
    return SimplicialAction(Z2, torus_grid(n), {"m": {
        label(x, y): label(-x, -y) for x in range(n) for y in range(n)}})


def klein_grid(n):
    """n x n grid with a flipped vertical gluing: a Klein bottle whose
    y direction reverses the x circle."""
    _refuse_small(n)

    def label(x, y):
        if y < n:
            return "g%d_%d" % (x % n, y)
        return "g%d_%d" % ((-x) % n, 0)
    return build_complex(torus_grid_cells(n, label))


def mirror_grid(ni, nj):
    """Z/2 reflecting an ni x nj grid torus, (i, j) -> (i, -j).  The
    lower half of the squares is cut along one diagonal and the upper
    half along the other, so the reflection is simplicial; nj is even."""
    _refuse_small(ni, nj)

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
    return SimplicialAction(Z2, build_complex(cells), {"m": {
        label(i, j): label(i, -j) for i in range(ni) for j in range(nj)}})


def z2_grid_actions():
    """Point reflections of grid tori, as the pillowcase is built, and
    mirrors of grids, as the mirror cylinder is built."""
    for n in (3, 4, 5):
        yield torus_reflection(n)
    for ni, nj in ((3, 4), (4, 6)):
        yield mirror_grid(ni, nj)


def torus3_grid(n):
    """Freudenthal triangulation of the 3-torus on an n^3 grid: each cube
    splits into six tetrahedra along its main diagonal, one for each
    order of the three unit steps."""
    _refuse_small(n)
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


def _coordinates(v):
    return tuple(map(int, v[1:].split("_")))


def grid_class(X, n, a=(1,), b=(0,), space=None):
    """a dx + b dy on a grid with n vertices per circle: each edge's
    step in the first coordinate times a/n plus its step in the second
    times b/n, steps read mod n off the labels.  a and b hold one
    coefficient per coordinate of space, the rationals by default; dx
    is grid_class(X, n) and dy grid_class(X, n, (0,), (1,)).  Every
    such class is closed on torus_grid(n) and torus3_grid(n); on
    klein_grid(n) dy is, and on the complex of mirror_grid(n, nj) dx."""
    values = {}
    for (u, v) in X.cells[1]:
        (xu, yu), (xv, yv) = (_coordinates(w)[:2] for w in (u, v))
        dx = (xv - xu + 1) % n - 1
        dy = (yv - yu + 1) % n - 1
        vec = tuple(F(dx * p + dy * q, n) for p, q in zip(a, b))
        if any(vec):
            values[(u, v)] = vec
    return RationalCochain1(X, values, space)


def genus_class(g, rank_two=False):
    """A closed class on a closed orientable surface of genus g.

    The surface is g copies of torus_grid(3), s<k>_<x>_<y>, in a chain:
    torus k loses the triangle (0, 0), (1, 0), (1, 1) and torus k + 1
    the triangle (2, 1), (0, 1), (0, 2), and a triangulated annulus
    joins the two boundary circles.  The class A is dx on torus 0 and
    the coboundary of x/3 on every other edge.  The two agree on torus
    0's removed triangle, which does not wrap in x, so A is closed.
    With rank_two the class is A + alpha B in ALPHA's space, B the same
    construction in y: the removed triangle does not wrap in y either.
    """
    def piece(k):
        def label(x, y):
            return "s%d_%d_%d" % (k, x % 3, y % 3)
        return label

    cells = []
    for k in range(g):
        cells += torus_grid_cells(3, piece(k))
    for k in range(g - 1):
        a = [piece(k)(x, y) for x, y in ((0, 0), (1, 0), (1, 1))]
        b = [piece(k + 1)(x, y) for x, y in ((2, 1), (0, 1), (0, 2))]
        for hole in (a, b):
            cells.remove(tuple(hole))
        for i in range(3):
            j = (i + 1) % 3
            cells += [(a[i], a[j], b[i]), (a[j], b[j], b[i])]
    X = build_complex(cells)
    values = {}
    for (u, v) in X.cells[1]:
        (ku, *pu), (kv, *pv) = (_coordinates(w) for w in (u, v))
        steps = [b - a for a, b in zip(pu, pv)][:2 if rank_two else 1]
        if ku == kv == 0:
            steps = [(step + 1) % 3 - 1 for step in steps]
        if any(steps):
            values[(u, v)] = tuple(F(step, 3) for step in steps)
    return RationalCochain1(X, values, ALPHA if rank_two else None)


# ---------------------------------------------------------------- groups

def affine_group(k, reflections):
    """Z/k, or D_k when reflections, as the maps i -> s*i + a of Z/k,
    named r<a> for s = 1 and s<a> for s = -1.  Returns the group and
    each element's (s, a); mul(g, h) applies g first."""
    pairs = [(s, a) for s in ((1, -1) if reflections else (1,))
             for a in range(k)]
    name = {(s, a): ("r%d" if s == 1 else "s%d") % a for s, a in pairs}
    table = [[name[(s * t, (t * a + b) % k)] for t, b in pairs]
             for s, a in pairs]
    return (FiniteGroup([name[p] for p in pairs], table),
            {name[p]: p for p in pairs})


def dihedral_hexagon_action():
    """D_3 acting on a hexagon: rotations by two steps and reflections
    i -> -i + 2a, a non-abelian group."""
    group, affine = affine_group(3, True)
    labels = ["h%d" % i for i in range(6)]
    return SimplicialAction(group, cycle_complex(labels), {
        g: {"h%d" % i: "h%d" % ((s * i + 2 * a) % 6) for i in range(6)}
        for g, (s, a) in affine.items()})


def seeded_invariant_actions(seed):
    """Z/k and D_k, k = 3..6, each acting on the closure of the orbits
    of a few random simplices.  The vertices are three rings p<i>_<j> on
    which the group acts as i -> s*i + a, and a fixed cone point c."""
    rng = random.Random(seed)
    for k in range(3, 7):
        for reflections in (False, True):
            group, affine = affine_group(k, reflections)

            def move(g, v):
                if v == "c":
                    return v
                i, j = map(int, v[1:].split("_"))
                s, a = affine[g]
                return "p%d_%d" % ((s * i + a) % k, j)
            pool = ["c"] + ["p%d_%d" % (i, j)
                            for i in range(k) for j in range(3)]
            picks = [rng.sample(pool, rng.choice((2, 3)))
                     for _ in range(rng.choice((1, 2)))]
            X = build_complex({tuple(move(g, v) for v in cell)
                               for cell in picks for g in affine})
            yield SimplicialAction(group, X, {
                g: {v: move(g, v) for v in X.vertices} for g in affine})

"""Regenerate the bundled corpus documents.

Builds each example, verifies its advertised properties (homology,
ranks, novikov numbers, inequality slacks, round-trips, and the full
validate command), and only then writes canonical JSON into
src/orbinov/corpus/.  Run from the repository root:

    python3 tools/make_corpus.py
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

from families import (Z2, circle_dtheta, grid_class, hexagon_action,
                      hexagon_dtheta, klein_grid, mirror_grid,
                      mirror_square_action, rp2, torus_grid_cells,
                      torus_reflection)
from orbinov import (H1Presentation, check_inequalities, integer_homology,
                     integralize, novikov_numbers, quotient_complex)
from orbinov.cli import main as cli_main
from orbinov.cochains import RationalCochain1, descend_cochain
from orbinov.complexes import build_complex
from orbinov.documents import OrbifoldDocument, format_fraction, \
    loads_document
from orbinov.snf import row_lattice_basis

OUT_DIR = os.path.join(HERE, "..", "src", "orbinov", "corpus")

# Z/2 as document data; the benchmark's documents import it, and
# torus_grid_cells, from here
Z2_GROUP = {"elements": Z2.elements, "table": Z2.table}


def solve_cocycle(X, targets):
    """Closed rational edge values with prescribed free-generator periods.

    targets[i] is the requested period of the i-th free H_1 generator.
    Unknowns are one rational per edge; equations are closedness on
    every triangle plus the period of every free generator, written
    through fundamental cycles of the off-tree edges.
    """
    edges = X.cells[1]
    index = {e: i for i, e in enumerate(edges)}
    rows, rhs = [], []
    for (a, b, c) in (X.cells[2] if X.dim >= 2 else []):
        row = [0] * len(edges)
        row[index[(a, b)]] += 1
        row[index[(b, c)]] += 1
        row[index[(a, c)]] -= 1
        rows.append(row)
        rhs.append(0)
    h1 = H1Presentation(X)
    free = [(cyc, t) for cyc, order, t in
            zip(h1.generator_cycles, h1.orders,
                iter_targets(targets, h1.orders)) if order == 0]
    for cyc, target in free:
        row = [0] * len(edges)
        for j, mult in enumerate(cyc):
            if not mult:
                continue
            u, v = h1.offtree[j]
            walk = [u, v] + h1.tree_walk(v, u)[1:]
            for a, b in zip(walk, walk[1:]):
                if a == b:
                    continue
                e, sign = X.orient(a, b)
                row[index[e]] += sign * mult
        rows.append(row)
        rhs.append(target)
    # the Hermite echelon of the denominator-cleared system has the
    # pivot columns of any echelon form, so back-substitution with every
    # non-pivot edge zero gives the one solution of that shape
    n = len(edges)
    aug = [[x * t.denominator for x in row] + [t.numerator]
           for row, t in zip(rows, map(Fraction, rhs))]
    sol = [Fraction(0)] * n
    for erow in reversed(row_lattice_basis(aug, n + 1)):
        lead = next(j for j, x in enumerate(erow) if x)
        expect(lead < n, "period targets are not realizable")
        known = sum(erow[j] * sol[j] for j in range(lead + 1, n))
        sol[lead] = Fraction(erow[n] - known) / erow[lead]
    return {e: sol[i] for e, i in index.items() if sol[i]}


def iter_targets(targets, orders):
    it = iter(targets)
    return [next(it) if order == 0 else None for order in orders]


def merge_coordinates(X, per_coordinate):
    """Zip k separate rational cocycles into one vector-valued edge list."""
    k = len(per_coordinate)
    edges = sorted(set().union(*[set(d) for d in per_coordinate]),
                   key=lambda e: (X.vertex_index[e[0]],
                                  X.vertex_index[e[1]]))
    out = []
    for e in edges:
        vec = [d.get(e, Fraction(0)) for d in per_coordinate]
        out.append([e[0], e[1], [format_fraction(x) for x in vec]])
    return out


def edges_entry(om):
    """The document edge list of a cochain."""
    return [[u, v, [format_fraction(x) for x in vec]]
            for (u, v), vec in om.values.items()]


def cocycle_dict(edges, symbols=(), shadows=None):
    return {"symbols": list(symbols), "shadows": dict(shadows or {}),
            "edges": edges}


def orbit_dict(X):
    doc = OrbifoldDocument("", "", None, X, {}, {})
    return doc._space_dict(X)


def action_dict(act):
    doc = OrbifoldDocument("", "", act, act.complex, {}, {})
    return doc.to_dict()["action"]


def expect(cond, what):
    if not cond:
        raise AssertionError("corpus verification failed: %s" % (what,))


def verify_inequalities(numbers, critical, want_slacks=None, want_holds=True):
    report = check_inequalities(numbers, critical)
    expect(report.holds == want_holds,
           "verdict %r, wanted %r" % (report.holds, want_holds))
    if want_slacks is not None:
        expect(all(row.slack == s for row, s in
                   zip(report.rows, want_slacks)),
               "slacks %r != %r" % ([r.slack for r in report.rows],
                                    want_slacks))
    return report


def rank_of(om):
    return integralize(om).rank


# ---------------------------------------------------------------- circle

def make_circle():
    dtheta = circle_dtheta()
    X = dtheta.complex
    data = {
        "name": "circle",
        "description": "Triangle model of the circle with the discrete "
                       "angle class: total period 1, no critical points.",
        "orbit": orbit_dict(X),
        "cocycles": {
            "dtheta": cocycle_dict(edges_entry(dtheta)),
            "zero": cocycle_dict([]),
        },
        "critical_data": {
            "flat": {"counts": [0, 0],
                     "provenance": "a closed form with no zeroes"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    ih = integer_homology(doc.space)
    expect(ih.betti == [1, 1] and ih.torsion == [[], []], "circle homology")
    om = doc.cochain("dtheta")
    expect(rank_of(om) == 1, "circle rank")
    nums = novikov_numbers(om)
    expect(nums.betti == [0, 0] and nums.torsion == [0, 0],
           "circle novikov")
    verify_inequalities(nums, doc.critical("flat"), want_slacks=[0] * 4)
    return doc


# ---------------------------------------------------------------- rp2

def make_rp2():
    X = rp2()
    data = {
        "name": "rp2",
        "description": "Six vertex triangulation of the real projective "
                       "plane; order two torsion in degree one.",
        "orbit": orbit_dict(X),
        "cocycles": {"zero": cocycle_dict([])},
        "critical_data": {
            "minimal": {"counts": [1, 1, 1],
                        "provenance": "perfect Morse vector for the "
                                      "projective plane"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    ih = integer_homology(doc.space)
    expect(ih.betti == [1, 0, 0] and ih.torsion == [[], [2], []],
           "rp2 homology")
    nums = novikov_numbers(doc.cochain("zero"))
    expect(nums.betti == [1, 0, 0] and nums.torsion == [0, 1, 0],
           "rp2 novikov at zero")
    verify_inequalities(nums, doc.critical("minimal"),
                        want_slacks=[0] * 6)
    return doc


# ---------------------------------------------------------------- torus7

def make_torus7():
    names = ["v%d" % i for i in range(7)]
    cells = []
    for i in range(7):
        cells.append(tuple("v%d" % ((i + d) % 7) for d in (0, 1, 3)))
        cells.append(tuple("v%d" % ((i + d) % 7) for d in (0, 2, 3)))
    X = build_complex(cells, vertices=names)
    e1_values = solve_cocycle(X, [1, 0])
    irr0 = solve_cocycle(X, [1, 0])
    irr1 = solve_cocycle(X, [0, 1])
    data = {
        "name": "torus7",
        "description": "Seven vertex torus (complete graph on seven "
                       "vertices); one lattice class and one class with "
                       "an irrational direction.",
        "orbit": orbit_dict(X),
        "cocycles": {
            "zero": cocycle_dict([]),
            "e1": cocycle_dict(edges_entry(RationalCochain1(X, e1_values))),
            "irr": cocycle_dict(merge_coordinates(X, [irr0, irr1]),
                                symbols=["alpha"],
                                shadows={"alpha": "1.41421356"}),
        },
        "critical_data": {
            "flat": {"counts": [0, 0, 0],
                     "provenance": "a closed form with no zeroes"},
            "height": {"counts": [1, 2, 1],
                       "provenance": "standard height on the torus"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    ih = integer_homology(doc.space)
    expect(ih.betti == [1, 2, 1] and all(t == [] for t in ih.torsion),
           "torus7 homology")
    nums0 = novikov_numbers(doc.cochain("zero"))
    expect(nums0.betti == [1, 2, 1] and nums0.torsion == [0, 0, 0],
           "torus7 novikov at zero")
    verify_inequalities(nums0, doc.critical("height"),
                        want_slacks=[0] * 6)
    om1 = doc.cochain("e1")
    expect(rank_of(om1) == 1, "torus7 e1 rank")
    nums1 = novikov_numbers(om1)
    expect(nums1.betti == [0, 0, 0] and nums1.torsion == [0, 0, 0],
           "torus7 e1 novikov")
    verify_inequalities(nums1, doc.critical("flat"), want_slacks=[0] * 6)
    om2 = doc.cochain("irr")
    expect(rank_of(om2) == 2, "torus7 irr rank")
    nums2 = novikov_numbers(om2)
    expect(nums2.betti == [0, 0, 0] and nums2.torsion is None,
           "torus7 irr novikov")
    return doc


# ---------------------------------------------------------------- klein

def make_klein():
    X = klein_grid(4)
    data = {
        "name": "klein",
        "description": "Sixteen vertex Klein bottle built from a grid "
                       "with a flipped vertical gluing; the base circle "
                       "class has nowhere vanishing representatives.",
        "orbit": orbit_dict(X),
        "cocycles": {
            "zero": cocycle_dict([]),
            "dy": cocycle_dict(edges_entry(grid_class(X, 4, (0,), (1,)))),
        },
        "critical_data": {
            "flat": {"counts": [0, 0, 0],
                     "provenance": "a closed form with no zeroes"},
            "height": {"counts": [1, 2, 1],
                       "provenance": "minimal Morse vector for the "
                                     "Klein bottle"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    ih = integer_homology(doc.space)
    expect(ih.betti == [1, 1, 0] and ih.torsion == [[], [2], []],
           "klein homology")
    nums0 = novikov_numbers(doc.cochain("zero"))
    expect(nums0.betti == [1, 1, 0] and nums0.torsion == [0, 1, 0],
           "klein novikov at zero")
    verify_inequalities(nums0, doc.critical("height"),
                        want_slacks=[0] * 6)
    om = doc.cochain("dy")
    expect(rank_of(om) == 1, "klein dy rank")
    nums = novikov_numbers(om)
    expect(nums.betti == [0, 0, 0] and nums.torsion == [0, 0, 0],
           "klein dy novikov")
    verify_inequalities(nums, doc.critical("flat"), want_slacks=[0] * 6)
    return doc


# ---------------------------------------------------------------- hexagon

def make_hexagon():
    act = hexagon_action()
    data = {
        "name": "hexagon_z2",
        "description": "Hexagonal circle with the free half turn; the "
                       "angle class descends to the quotient circle.",
        "action": action_dict(act),
        "cocycles": {
            "dtheta": cocycle_dict(edges_entry(hexagon_dtheta(act))),
            "zero": cocycle_dict([]),
        },
        "critical_data": {
            "flat": {"counts": [0, 0],
                     "provenance": "a closed form with no zeroes"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    qres = quotient_complex(doc.action)
    expect(qres.stages == 0, "hexagon quotient needs no subdivision")
    ih = integer_homology(qres.complex)
    expect(ih.betti == [1, 1], "hexagon orbit homology")
    om = descend_cochain(qres, doc.cochain("dtheta"))
    expect(rank_of(om) == 1, "hexagon dtheta rank")
    nums = novikov_numbers(om)
    expect(nums.betti == [0, 0] and nums.torsion == [0, 0],
           "hexagon dtheta novikov")
    verify_inequalities(nums, doc.critical("flat"), want_slacks=[0] * 4)
    return doc


# ---------------------------------------------------------------- mirror square

def make_mirror_square():
    act = mirror_square_action()
    across = RationalCochain1(act.complex, {("s1", "s2"): 1, ("s0", "s3"): 1})
    data = {
        "name": "mirror_square",
        "description": "Square circle reflected across a diagonal; the "
                       "orbit space is a mirrored interval.",
        "action": action_dict(act),
        "cocycles": {
            "across": cocycle_dict(edges_entry(across)),
            "zero": cocycle_dict([]),
        },
        "critical_data": {
            "min": {"counts": [1, 0],
                    "provenance": "single minimum on the quotient "
                                  "interval"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    qres = quotient_complex(doc.action)
    expect(qres.stages == 1, "mirror square needs one subdivision")
    ih = integer_homology(qres.complex)
    expect(ih.betti == [1, 0], "mirror square orbit homology")
    om = descend_cochain(qres, doc.cochain("across"))
    expect(rank_of(om) == 0, "across descends to an exact cochain")
    nums = novikov_numbers(om)
    expect(nums.betti == [1, 0] and nums.torsion == [0, 0],
           "mirror square novikov")
    verify_inequalities(nums, doc.critical("min"), want_slacks=[0] * 4)
    return doc


# ---------------------------------------------------------------- pillowcase

def make_pillowcase():
    data = {
        "name": "pillowcase",
        "description": "Grid torus modulo the point reflection; the "
                       "orbit space is a sphere with four cone points.",
        "action": action_dict(torus_reflection(4)),
        "cocycles": {"zero": cocycle_dict([])},
        "critical_data": {
            "minimal": {"counts": [1, 0, 1],
                        "provenance": "one minimum and one maximum on "
                                      "the quotient sphere"},
            "bump": {"counts": [2, 1, 2],
                     "provenance": "non minimal counts with cancelling "
                                   "pairs"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    qres = quotient_complex(doc.action)
    ih = integer_homology(qres.complex)
    expect(ih.betti == [1, 0, 1] and all(t == [] for t in ih.torsion),
           "pillowcase orbit homology")
    om = descend_cochain(qres, doc.cochain("zero"))
    nums = novikov_numbers(om)
    expect(nums.betti == [1, 0, 1] and nums.torsion == [0, 0, 0],
           "pillowcase novikov at zero")
    verify_inequalities(nums, doc.critical("minimal"),
                        want_slacks=[0] * 6)
    verify_inequalities(nums, doc.critical("bump"))
    return doc


# ---------------------------------------------------------------- mirror cylinder

def make_mirror_cylinder():
    act = mirror_grid(6, 4)
    data = {
        "name": "mirror_cylinder",
        "description": "Product of a free circle with a reflected "
                       "circle; the orbit space is a cylinder and the "
                       "free direction gives a nowhere vanishing class.",
        "action": action_dict(act),
        "cocycles": {
            "dx": cocycle_dict(edges_entry(grid_class(act.complex, 6))),
            "zero": cocycle_dict([]),
        },
        "critical_data": {
            "flat": {"counts": [0, 0, 0],
                     "provenance": "a closed form with no zeroes"},
        },
    }
    doc = OrbifoldDocument.from_dict(data)
    qres = quotient_complex(doc.action)
    ih = integer_homology(qres.complex)
    expect(ih.betti == [1, 1, 0] and all(t == [] for t in ih.torsion),
           "mirror cylinder orbit homology")
    om = descend_cochain(qres, doc.cochain("dx"))
    expect(rank_of(om) == 1, "mirror cylinder dx rank")
    nums = novikov_numbers(om)
    expect(nums.betti == [0, 0, 0] and nums.torsion == [0, 0, 0],
           "mirror cylinder dx novikov")
    verify_inequalities(nums, doc.critical("flat"), want_slacks=[0] * 6)
    return doc


MAKERS = [make_circle, make_rp2, make_torus7, make_klein, make_hexagon,
          make_mirror_square, make_pillowcase, make_mirror_cylinder]


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    paths = []
    for make in MAKERS:
        doc = make()
        text = doc.serialize()
        again = loads_document(text)
        expect(again.serialize() == text, "%s round-trip" % (doc.name,))
        path = os.path.join(OUT_DIR, doc.name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
        print("wrote %s" % (path,))
    for path in paths:
        code = cli_main(["validate", path])
        expect(code == 0, "validate %s exited %d" % (path, code))
    print("all %d documents verified" % (len(paths),))


if __name__ == "__main__":
    main()

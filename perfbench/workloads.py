"""Seeded input documents and reference answers for the benchmark.

A workload is a cycle of analyses.  Each analysis is one `orbinov`
command on a document that this module writes to disk, together with
the answer the command must give.  The seed chooses positive
scalings, gauge shifts, sampling seeds and the order of the oracle
calls; the complexes, the classes up to scaling and gauge, and the
cover degrees are fixed per workload, so the cost of a cycle hardly
depends on the seed and runs with different seeds measure the same
work.

Reference answers come from theory: a fibred class has vanishing
Novikov homology and an exact class has the integer homology of the
orbit space.  In every case the alternating Betti sum must equal the
Euler characteristic that `orbinov homology` counts from the cells of
the orbit space.
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _sub in ("src", "tools"):
    _path = os.path.join(ROOT, _sub)
    if _path not in sys.path:
        sys.path.insert(0, _path)

from make_corpus import (  # noqa: E402
    Z2_GROUP, cocycle_dict, merge_coordinates, orbit_dict, torus_grid_cells)
from orbinov import cli  # noqa: E402
from orbinov.cochains import (PeriodSpace, RationalCochain1,  # noqa: E402
                              coboundary0)
from orbinov.complexes import build_complex  # noqa: E402
from orbinov.documents import OrbifoldDocument  # noqa: E402

CORPUS_DIR = os.path.join(ROOT, "src", "orbinov", "corpus")

# integer homology of each orbit space: (betti, torsion counts)
TORUS = ([1, 2, 1], [0, 0, 0])
KLEIN = ([1, 1, 0], [0, 1, 0])
SPHERE = ([1, 0, 1], [0, 0, 0])
CYLINDER = ([1, 1, 0], [0, 0, 0])
CORPUS_HOMOLOGY = {
    "circle": ([1, 1], [0, 0]),
    "rp2": ([1, 0, 0], [0, 1, 0]),
    "torus7": TORUS,
    "klein": KLEIN,
    "hexagon_z2": ([1, 1], [0, 0]),
    "mirror_square": ([1, 0], [0, 0]),
    "pillowcase": SPHERE,
    "mirror_cylinder": CYLINDER,
}
# corpus classes whose period lattice has rank one (the cover oracle
# runs on exactly these; every other class is skipped)
CORPUS_RANK_ONE = {"circle": ["dtheta"], "hexagon_z2": ["dtheta"],
                   "klein": ["dy"], "mirror_cylinder": ["dx"],
                   "torus7": ["e1"]}
SHADOW = {"alpha": "1.41421356"}


class Analysis:
    """One CLI call, the answer it must give, and what it ran on."""

    __slots__ = ("argv", "expect", "info")

    def __init__(self, argv, expect, info):
        self.argv = argv
        self.expect = expect
        self.info = info


# ------------------------------------------------------------ complexes

def _wrap(d, n):
    # a grid edge moves by -1, 0 or 1 in each coordinate
    return (d + 1) % n - 1


def grid_torus(n):
    """n x n grid torus and the (dx, dy) displacement of each edge."""
    def label(x, y):
        return "g%d_%d" % (x % n, y % n)

    vertices = [label(x, y) for x in range(n) for y in range(n)]
    X = build_complex(torus_grid_cells(n, label), vertices=vertices)
    xy = {label(x, y): (x, y) for x in range(n) for y in range(n)}

    def disp(u, v):
        return (_wrap(xy[v][0] - xy[u][0], n), _wrap(xy[v][1] - xy[u][1], n))
    return X, disp, label


def grid_klein(n):
    """n x n grid with a flipped vertical gluing, and dy per edge."""
    def label(x, y):
        if y < n:
            return "g%d_%d" % (x % n, y)
        return "g%d_%d" % ((-x) % n, 0)

    vertices = [label(x, y) for x in range(n) for y in range(n)]
    X = build_complex(torus_grid_cells(n, label), vertices=vertices)
    ys = {label(x, y): y for x in range(n) for y in range(n)}

    def disp(u, v):
        return (0, _wrap(ys[v] - ys[u], n))
    return X, disp


def mirror_grid(ni, nj):
    """ni x nj grid torus triangulated so that (i, j) -> (i, -j) is
    simplicial; nj is even.  Returns the complex, the reflection and
    the displacement in the free direction i."""
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
    vertices = [label(i, j) for i in range(ni) for j in range(nj)]
    X = build_complex(cells, vertices=vertices)
    flip = {label(i, j): label(i, -j) for i in range(ni) for j in range(nj)}
    xs = {label(i, j): i for i in range(ni) for j in range(nj)}

    def disp(u, v):
        return (_wrap(xs[v] - xs[u], ni),)
    return X, flip, disp


# ------------------------------------------------------------ cochains

def linear_class(X, disp, coeffs):
    """Closed cochain sum_i coeffs[i] * (coordinate i of disp), with one
    vector slot per entry of coeffs (slot 0 rational, then symbols)."""
    values = {}
    for (u, v) in X.edges():
        d = disp(u, v)
        vec = tuple(sum((Fraction(c) * x for c, x in zip(row, d)),
                        Fraction(0)) for row in coeffs)
        if any(vec):
            values[(u, v)] = vec
    return values


def potential(rng, X, orbit_of=None):
    """Seeded rational vertex function, constant on orbits if given."""
    reps = sorted({orbit_of[v] if orbit_of else v for v in X.vertices},
                  key=X.vertex_index.__getitem__)
    f = {rep: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for rep in reps
         if rng.random() < 0.5}
    return {v: f.get(orbit_of[v] if orbit_of else v, Fraction(0))
            for v in X.vertices}


def gauge_and_scale(rng, X, values, k, orbit_of=None):
    """Positive multiple of a class plus a seeded coboundary."""
    om = RationalCochain1(X, values, space=_space(k))
    c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
    df = coboundary0(X, potential(rng, X, orbit_of), om.space)
    return om.scale(c).add(df)


def _space(k):
    symbols = ["alpha"][:k - 1]
    return PeriodSpace(symbols, {s: Fraction(SHADOW[s]) for s in symbols})


def cocycle_spec(X, cochain):
    k = cochain.space.k
    coords = [{e: vec[i] for e, vec in cochain.values.items()}
              for i in range(k)]
    symbols = list(cochain.space.symbols)
    return cocycle_dict(merge_coordinates(X, coords), symbols,
                        {s: SHADOW[s] for s in symbols})


def orbits(X, vertex_map):
    """Representative (lowest vertex) of each Z/2 orbit."""
    key = X.vertex_index.__getitem__
    return {v: min(v, vertex_map[v], key=key) for v in X.vertices}


# ------------------------------------------------------------ documents

def orbit_doc(name, X, cocycles, counts):
    return {"name": name, "description": "benchmark input",
            "orbit": orbit_dict(X), "cocycles": cocycles,
            "critical_data": {"bound": {"counts": counts}}}


def z2_doc(name, X, vertex_map, cocycles, counts):
    return {"name": name, "description": "benchmark input",
            "action": {"group": dict(Z2_GROUP), "space": orbit_dict(X),
                       "vertex_maps": {"m": vertex_map}},
            "cocycles": cocycles,
            "critical_data": {"bound": {"counts": counts}}}


def corpus_dict(name):
    with open(os.path.join(CORPUS_DIR, name + ".json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def cell_counts(doc):
    space = doc.space
    return [space.n_cells(q) for q in range(space.dim + 1)]


class Writer:
    """Writes canonical documents into one directory."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def write(self, data):
        doc = OrbifoldDocument.from_dict(data)
        for cname in doc.cocycle_names():
            doc.cochain(cname)      # closedness is checked here
        path = os.path.join(self.directory, doc.name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc.serialize())
        return path, doc


def orbit_euler(path):
    """Euler characteristic of the orbit space, counted from its cells
    by `orbinov homology` and independent of any Novikov computation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["homology", path, "--json"])
    return json.loads(out.getvalue())["euler"]


def novikov(path, doc, cname, homology, rank, info):
    """Analysis of one class; homology is the expected (betti, torsion
    counts) and rank the lattice rank."""
    betti, torsion = homology
    route = {0: "integral", 1: "rank-one"}.get(rank, "betti-only")
    expect = {"exit": 3 if rank >= 2 else 0, "betti": betti,
              "torsion": None if rank >= 2 else torsion,
              "route": route, "rank": rank, "euler": orbit_euler(path)}
    info = dict(info, doc=doc.name, cls=cname, cells=cell_counts(doc),
                rank=rank, route=route)
    return Analysis(["novikov", path, "--class", cname, "--json"],
                    expect, info)


def vanishing(top):
    return ([0] * (top + 1), [0] * (top + 1))


def morse_counts(homology):
    """Critical counts of a perfect Morse function: every bound is tight."""
    betti, torsion = homology
    return [b + t + (torsion[q - 1] if q else 0)
            for q, (b, t) in enumerate(zip(betti, torsion))]


def corpus_source(name):
    """A corpus document as raw data, its complex and its Z/2 orbits."""
    data = corpus_dict(name)
    doc = OrbifoldDocument.from_dict(data)
    orbit_of = None
    if doc.action is not None:
        orbit_of = orbits(doc.space, doc.action.vertex_maps["m"])
    return data, doc, orbit_of


def derived(writer, data, name, cocycles, counts):
    """Write a corpus document under a new name with new classes."""
    data = dict(data, name=name, cocycles=cocycles,
                critical_data={"bound": {"counts": counts}})
    return writer.write(data)


# ------------------------------------------------------------ workloads

def fibred_classes(rng, writer):
    """Fibred rank-one classes with gauge shifts and positive scalings.

    Grids stop at n = 4: one n = 5 analysis takes about 1.2 s, and a run
    must hold at least 100 analyses.
    """
    out = []
    grids = [("torus", 3, [1, 0]), ("torus", 3, [0, 1]), ("torus", 3, [1, 1]),
             ("klein", 3, [0, 1]), ("torus", 4, [1, 0]), ("klein", 4, [0, 1])]
    for i, (family, n, row) in enumerate(grids):
        if family == "torus":
            X, disp, _ = grid_torus(n)
        else:
            X, disp = grid_klein(n)
        om = gauge_and_scale(rng, X, linear_class(X, disp, [row]), 1)
        path, doc = writer.write(orbit_doc(
            "r1_%s%d_%d" % (family, n, i), X, {"fib": cocycle_spec(X, om)},
            [0, 0, 0]))
        out.append(novikov(path, doc, "fib", vanishing(2), 1,
                           {"family": family, "n": n}))
    for name, cnames in sorted(CORPUS_RANK_ONE.items()):
        data, doc, orbit_of = corpus_source(name)
        om = gauge_and_scale(rng, doc.space, doc.cochain(cnames[0]).values,
                             1, orbit_of)
        zeros = vanishing(doc.space.dim)
        path, doc = derived(writer, data, "r1_" + name,
                            {"fib": cocycle_spec(doc.space, om)}, zeros[0])
        out.append(novikov(path, doc, "fib", zeros, 1,
                           {"family": "corpus", "n": None}))
    return out


def rank_two_classes(rng, writer):
    """Rank-two classes a dx + c dy + b alpha dy: betti-only, exit 3.

    The coefficients are fixed per grid, because they set the exponents
    of the twisted complex and with them its cost; the seed picks the
    positive scaling and the gauge shift.
    """
    out = []
    grids = [(3, [[1, 0], [0, 1]]), (3, [[2, 1], [0, -1]]),
             (4, [[1, 0], [0, 1]])]
    for i, (n, coeffs) in enumerate(grids):
        X, disp, _ = grid_torus(n)
        om = gauge_and_scale(rng, X, linear_class(X, disp, coeffs), 2)
        path, doc = writer.write(orbit_doc(
            "r2_torus%d_%d" % (n, i), X, {"mix": cocycle_spec(X, om)},
            [0, 0, 0]))
        out.append(novikov(path, doc, "mix", vanishing(2), 2,
                           {"family": "torus", "n": n}))
    data, doc, _ = corpus_source("torus7")
    om = gauge_and_scale(rng, doc.space, doc.cochain("irr").values, 2)
    path, doc = derived(writer, data, "r2_torus7",
                        {"irr": cocycle_spec(doc.space, om)}, [0, 0, 0])
    out.append(novikov(path, doc, "irr", vanishing(2), 2,
                       {"family": "corpus", "n": None}))
    return out


def twisted(rng, writer):
    """Rank-one and rank-two classes, whose Novikov numbers come from
    the twisted Laurent complex.

    The rank-two classes guard the betti-only fallback: a gain on rank
    one that costs rank two shows in the same run.  Of the 15 analyses
    the median falls among the four 3 x 3 rank-one grids and the 90th
    percentile among the two 4 x 4 rank-one grids and the corpus klein,
    each a cluster of like cost.
    """
    return fibred_classes(rng, writer) + rank_two_classes(rng, writer)


def exact_classes(rng, X, orbit_of, count):
    """The zero class and `count` seeded invariant coboundaries."""
    cocycles = {"zero": cocycle_dict([])}
    for j in range(count):
        f = potential(rng, X, orbit_of)
        cocycles["exact%d" % j] = cocycle_spec(X, coboundary0(X, f))
    return cocycles


def integral(rng, writer):
    """Zero and exact classes on Z/2 orbifolds; several per document.

    The corpus documents and the 8 x 8 grid take one exact class each
    and the 6 x 6 mirrored grid three, so that the median of a cycle
    falls among the 4 x 4 grids and the 90th percentile in the upper part
    of the 6 x 6 grids, each inside a cluster of like cost.  The host's
    slow spells reach every run, so a percentile high in a cluster moves
    less from run to run than one low in it.
    """
    out = []
    for n in (4, 6, 8):
        X, _, label = grid_torus(n)
        flip = {label(x, y): label(-x, -y)
                for x in range(n) for y in range(n)}
        cocycles = exact_classes(rng, X, orbits(X, flip), 1 if n == 8 else 2)
        path, doc = writer.write(z2_doc("z2_point%d" % n, X, flip, cocycles,
                                        morse_counts(SPHERE)))
        out.extend(novikov(path, doc, cname, SPHERE, 0,
                           {"family": "z2_point", "n": n})
                   for cname in sorted(cocycles))
    for n in (4, 6):
        X, flip, _ = mirror_grid(n, n)
        cocycles = exact_classes(rng, X, orbits(X, flip), 3 if n == 6 else 2)
        path, doc = writer.write(z2_doc("z2_mirror%d" % n, X, flip,
                                        cocycles, morse_counts(CYLINDER)))
        out.extend(novikov(path, doc, cname, CYLINDER, 0,
                           {"family": "z2_mirror", "n": n})
                   for cname in sorted(cocycles))
    for name, homology in sorted(CORPUS_HOMOLOGY.items()):
        data, doc, orbit_of = corpus_source(name)
        cocycles = exact_classes(rng, doc.space, orbit_of, 1)
        path, doc = derived(writer, data, "int_" + name, cocycles,
                            morse_counts(homology))
        out.extend(novikov(path, doc, cname, homology, 0,
                           {"family": "corpus", "n": None})
                   for cname in sorted(cocycles))
    return out


def _fibred_and_zero(rng, writer, name, X, disp, row, flip=None):
    """Document with one fibred rank-one class and the zero class."""
    orbit_of = orbits(X, flip) if flip else None
    om = gauge_and_scale(rng, X, linear_class(X, disp, [row]), 1, orbit_of)
    cocycles = {"fib": cocycle_spec(X, om), "zero": cocycle_dict([])}
    if flip:
        data = z2_doc(name, X, flip, cocycles, [0, 0, 0])
    else:
        data = orbit_doc(name, X, cocycles, [0, 0, 0])
    path, doc = writer.write(data)
    return path, doc, 1


MIDDLE_ORACLE = ("orc_hexagon_z2", 5)


def oracle(rng, writer):
    """validate --cyclic p on the corpus and on small generated grids.

    Every document is validated at every degree p in 2..7 once per
    cycle, in a seeded order with seeded sampling seeds: cover cost grows
    steeply with p, so a seeded p per document would make the cost of a
    cycle depend on the seed.  The corpus klein and mirror_cylinder take
    1-2 s per call at p = 7 and are replaced by smaller generated grids
    of the same kind, so that a run holds at least 100 analyses.  The
    call of median cost runs twice, which makes the cycle length odd and
    puts the median of a run on that call.
    """
    targets = []
    for name in ("circle", "hexagon_z2", "mirror_square", "pillowcase",
                 "rp2", "torus7"):
        data = corpus_dict(name)
        data["name"] = "orc_%s" % (name,)
        path, doc = writer.write(data)
        targets.append((path, doc, len(CORPUS_RANK_ONE.get(name, []))))
    X, disp, _ = grid_torus(3)
    targets.append(_fibred_and_zero(rng, writer, "orc_torus3", X, disp,
                                    [1, 0]))
    X, disp = grid_klein(3)
    targets.append(_fibred_and_zero(rng, writer, "orc_klein3", X, disp,
                                    [0, 1]))
    X, flip, disp = mirror_grid(4, 4)
    targets.append(_fibred_and_zero(rng, writer, "orc_mirror4x4", X, disp,
                                    [1], flip))
    out = []
    for path, doc, covers in targets:
        classes = len(doc.cocycle_names())
        for p in range(2, 8):
            info = {"doc": doc.name, "cells": cell_counts(doc), "p": p,
                    "route": "oracle", "rank": None}
            expect = {"exit": 0, "covers": covers, "classes": classes}
            seed = str(rng.randint(0, 10 ** 6))
            out.append(Analysis(["validate", path, "--cyclic", str(p),
                                 "--seed", seed, "--json"], expect, info))
            if (doc.name, p) == MIDDLE_ORACLE:
                out.append(out[-1])
    rng.shuffle(out)
    return out


WORKLOADS = {"twisted": twisted, "integral": integral, "oracle": oracle}


def build(workload, seed, directory):
    """Write the workload's documents for a seed; return its cycle."""
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng, Writer(directory))


# ------------------------------------------------------------ checking

def check(analysis, code, stdout):
    """Problems with one CLI result; an empty list means correct."""
    want = analysis.expect
    if code != want["exit"]:
        return ["exit %r, expected %r" % (code, want["exit"])]
    try:
        got = json.loads(stdout)
        if analysis.argv[0] == "validate":
            return _check_validate(want, got)
        return _check_novikov(want, got)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return ["unexpected output: %r" % (exc,)]


def _check_novikov(want, got):
    problems = []
    for key in ("betti", "torsion", "route", "rank", "euler"):
        if got.get(key) != want[key]:
            problems.append("%s %r, expected %r"
                            % (key, got.get(key), want[key]))
    if not all(block["holds"] for block in got["inequalities"].values()):
        problems.append("a declared inequality block fails")
    return problems


def _check_validate(want, got):
    problems = []
    if got.get("passed") is not True:
        problems.append("validate did not pass")
    statuses = [c["status"] for c in got["checks"]]
    covers = [c["status"] for c in got["checks"]
              if "cyclic cover" in c["check"]]
    if "fail" in statuses:
        problems.append("a check failed")
    if covers.count("pass") != want["covers"]:
        problems.append("%d cover checks passed, expected %d"
                        % (covers.count("pass"), want["covers"]))
    if len(covers) != want["classes"]:
        problems.append("%d cover checks for %d classes"
                        % (len(covers), want["classes"]))
    return problems

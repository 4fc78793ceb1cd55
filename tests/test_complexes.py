import os
import random
import subprocess
import sys

import pytest

import orbinov
from orbinov.complexes import (barycentric_subdivision, build_complex,
                               euler_characteristic, integer_homology,
                               sort_with_parity)
from orbinov.cli import corpus_names, resolve_document
from orbinov.errors import DocumentError, ValidationError

from families import rp2
from oracles import betti_oracle, reference_build_complex


def test_build_and_boundary():
    X = build_complex([("a", "b", "c")])
    assert X.vertices == ["a", "b", "c"]
    assert X.cells[1] == [("a", "b"), ("a", "c"), ("b", "c")]
    assert X.boundary_matrix(2) == [[1], [-1], [1]]
    assert X.boundary_entries(2) == {(0, 0): 1, (1, 0): -1, (2, 0): 1}
    assert X.boundary_matrix(1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    # out-of-range degrees give shaped zero matrices
    assert X.boundary_matrix(0) == []
    assert X.boundary_matrix(3) == [[]]


def _built(build, vertices, gens):
    """The cells and cell index of a build, or the refusal's class and
    text."""
    try:
        X = build(gens, vertices=vertices)
    except DocumentError as exc:
        return type(exc), str(exc)
    return X.vertices, X.cells, X.cell_index


def test_build_complex_matches_the_reference_on_seeded_inputs():
    rng = random.Random(11)
    kinds = {"built": 0, "refused": 0}
    for _ in range(1500):
        n = rng.randint(1, 7)
        labels = ["v%d" % i for i in range(n)]
        rng.shuffle(labels)             # vertex order is not label order
        gens = [rng.sample(labels, rng.randint(1, min(4, n)))
                for _ in range(rng.randint(0, 5))]
        if gens and rng.random() < 0.5:
            # a face of a generator, or the generator again reordered
            g = rng.choice(gens)
            gens.append(rng.sample(g, rng.randint(1, len(g))))
        vertices = labels + ["iso"] if rng.random() < 0.3 else labels
        fault = rng.random()
        if fault < 0.1 and gens:
            rng.choice(gens).append("zz")                   # unknown vertex
        elif fault < 0.2 and gens:
            g = rng.choice(gens)
            g.insert(rng.randrange(len(g) + 1), g[0])       # repeated vertex
        elif fault < 0.25:
            gens.insert(rng.randrange(len(gens) + 1), [])   # empty simplex
        elif fault < 0.3:
            vertices = vertices + [rng.choice(labels)]      # listed twice
        elif fault < 0.4:
            vertices = None                                 # sorted labels
        got = _built(build_complex, vertices, gens)
        assert got == _built(reference_build_complex, vertices, gens), gens
        kinds["refused" if isinstance(got[0], type) else "built"] += 1
    assert min(kinds.values()) > 200


def test_input_validation():
    with pytest.raises(DocumentError):
        build_complex([])
    with pytest.raises(DocumentError):
        build_complex([("a", "a")])
    with pytest.raises(DocumentError):
        build_complex([("a", "x")], vertices=["a", "b"])
    with pytest.raises(DocumentError):
        build_complex([("a",)], vertices=["a", "a"])


def test_empty_simplex_is_rejected():
    # stored as a cell of the top layer, () would be a phantom 2-cell
    with pytest.raises(DocumentError, match="empty simplex"):
        build_complex([("a", "b", "c"), ()])


def test_normalize():
    X = build_complex([("a", "b", "c")])
    assert X.normalize(("c", "a")) == (("a", "c"), -1)
    assert X.normalize(("a", "a"))[1] == 0
    with pytest.raises(DocumentError):
        X.normalize(("a", "nope"))
    Y = build_complex([("a", "b"), ("c", "d")])
    with pytest.raises(ValidationError):
        Y.normalize(("a", "c"))


def test_orient_gives_the_stored_edge_and_its_sign():
    X = build_complex([("a", "b", "c")])
    assert X.orient("a", "c") == (("a", "c"), 1)
    assert X.orient("c", "a") == (("a", "c"), -1)
    with pytest.raises(DocumentError, match="unknown vertex 'nope'"):
        X.orient("nope", "a")
    with pytest.raises(DocumentError, match="unknown vertex 'nope'"):
        X.orient("a", "nope")
    with pytest.raises(ValidationError):
        X.orient("b", "b")
    with pytest.raises(ValidationError):
        build_complex([("a", "b"), ("c", "d")]).orient("c", "a")
    with pytest.raises(ValidationError):
        build_complex([("a",), ("b",)]).orient("a", "b")


def test_sort_with_parity():
    key = {"a": 0, "b": 1, "c": 2, "d": 3}
    assert sort_with_parity(("d", "c", "b", "a"), key) == (("a", "b", "c", "d"), 1)
    assert sort_with_parity(("b", "a", "c"), key) == (("a", "b", "c"), -1)
    assert sort_with_parity(("b", "b"), key)[1] is None


def test_circle_homology():
    X = build_complex([("a", "b"), ("b", "c"), ("a", "c")])
    H = integer_homology(X)
    assert H.betti == [1, 1]
    assert H.torsion == [[], []]


def test_sphere_homology():
    faces = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
    H = integer_homology(build_complex(faces))
    assert H.betti == [1, 0, 1]
    assert H.torsion == [[], [], []]
    assert euler_characteristic(build_complex(faces)) == 2


def test_projective_plane_homology():
    X = rp2()
    assert euler_characteristic(X) == 1
    H = integer_homology(X)
    assert H.betti == [1, 0, 0]
    assert H.torsion == [[], [2], []]


def test_two_components():
    X = build_complex([("a", "b"), ("c", "d")])
    assert integer_homology(X).betti == [2, 0]


def test_isolated_vertex():
    X = build_complex([("a", "b")], vertices=["a", "b", "z"])
    assert integer_homology(X).betti == [2, 0]


def test_betti_against_rref_oracle():
    rng = random.Random(99)
    labels = list("abcdef")
    for _ in range(40):
        tris = set()
        for _ in range(rng.randint(1, 8)):
            tris.add(tuple(sorted(rng.sample(labels, 3))))
        simplices = sorted(tris)
        X = build_complex(simplices)
        assert integer_homology(X).betti == betti_oracle(simplices)


def test_subdivision_counts_and_homology():
    tri = build_complex([("a", "b", "c")])
    sd = barycentric_subdivision(tri)
    assert [len(layer) for layer in sd.complex.cells] == [7, 12, 6]
    assert euler_characteristic(sd.complex) == 1

    X = rp2()
    sd1 = barycentric_subdivision(X)
    assert euler_characteristic(sd1.complex) == 1
    H = integer_homology(sd1.complex)
    assert H.betti == [1, 0, 0]
    assert H.torsion == [[], [2], []]


def test_subdivision_respects_isolated_and_mixed_dims():
    X = build_complex([("a", "b"), ("c",)], vertices=["a", "b", "c"])
    sd = barycentric_subdivision(X)
    assert integer_homology(sd.complex).betti == [2, 0]
    # barycenter dictionary round-trips
    for cell, label in sd.barycenter_of.items():
        assert sd.cell_of[label] == cell


def _maximal_by_subsets(X):
    cells = [c for layer in X.cells for c in layer]
    return [c for c in cells if not any(set(c) < set(d) for d in cells)]


def test_maximal_cells_match_the_subset_definition():
    spaces = [rp2(), build_complex([("a", "b"), ("c",)]),
              build_complex([("a", "b", "c"), ("c", "d"), ("d", "e"),
                             ("b", "c", "f")])]
    spaces += [resolve_document(name).space for name in corpus_names()]
    for X in list(spaces):
        spaces.append(barycentric_subdivision(X).complex)
    for X in spaces:
        assert X.maximal_cells() == _maximal_by_subsets(X)


def test_integer_guard_survives_optimized_mode():
    # homology reaches the integer d o d check through
    # homology_of_matrices; under -O an assert there would vanish
    script = "\n".join([
        "import sys",
        "import orbinov.complexes",
        "orbinov.complexes.sparse_product_is_zero = lambda A, B: False",
        "from orbinov import cli",
        "sys.exit(cli.main(['homology', 'klein']))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "validation error: boundary squared is nonzero in degree" \
        in proc.stderr


def test_boundary_index_guard_survives_optimized_mode():
    # a boundary entry outside its matrix's shape must stop the
    # computation under -O too, not slip into the pivot count
    script = "\n".join([
        "import sys",
        "from orbinov.complexes import homology_of_matrices",
        "from orbinov.errors import ValidationError",
        "try:",
        "    homology_of_matrices([1, 1], [{}, {(1, 0): 1}])",
        "except ValidationError as err:",
        "    sys.exit(str(err))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "boundary entry out of range in degree 1" in proc.stderr



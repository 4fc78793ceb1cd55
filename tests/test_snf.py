import os
import random
import subprocess
import sys

import pytest

import orbinov
from orbinov.errors import ValidationError
from orbinov.snf import (identity_matrix, mat_mul, row_lattice_basis,
                         smith_normal_form)

from oracles import gauss_rank, minor_gcd_invariant_factors


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_known_forms():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]).diagonal == [1, 0]
    assert smith_normal_form([], shape=(0, 3)).diagonal == []
    assert smith_normal_form([[], []], shape=(2, 0)).diagonal == []
    r = smith_normal_form([[6]])
    assert r.diagonal == [6] and r.rank == 1 and r.torsion() == [6]


def test_divisibility_chain_guard():
    with pytest.raises(ValidationError):
        from orbinov.snf import SNFResult
        SNFResult([2, 3], (2, 2))


def test_against_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A)
        nonzero = [d for d in res.diagonal if d]
        assert nonzero == minor_gcd_invariant_factors(A)
        assert res.rank == gauss_rank(A)


def test_transforms_are_inverse_pairs():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A, want_transforms=True)
        S, Si, T, Ti = res.transforms
        assert mat_mul(S, Si) == identity_matrix(m)
        assert mat_mul(T, Ti) == identity_matrix(n)
        # S*A*T is re-checked inside smith_normal_form already; spot check
        D = mat_mul(mat_mul(S, A), T)
        for i in range(m):
            for j in range(n):
                want = res.diagonal[i] if i == j else 0
                assert D[i][j] == want


def reduce_row(row, basis, ncols):
    row = list(row)
    for b in basis:
        c = next(j for j, x in enumerate(b) if x)
        if row[c] % b[c] == 0:
            q = row[c] // b[c]
            for j in range(ncols):
                row[j] -= q * b[j]
    return row


def test_row_lattice_basis_spans():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        rows = random_matrix(rng, m, n, bound=6)
        basis = row_lattice_basis(rows, n)
        # every generator reduces to zero against the echelon basis
        for r in rows:
            assert not any(reduce_row(r, basis, n))
        # basis rows are in the lattice: their own reduction is zero too
        again = row_lattice_basis(basis, n)
        assert again == basis
        # pivots positive, above-pivot entries reduced
        for i, b in enumerate(basis):
            c = next(j for j, x in enumerate(b) if x)
            assert b[c] > 0
            for earlier in basis[:i]:
                assert 0 <= earlier[c] < b[c]


def test_row_lattice_basis_known():
    assert row_lattice_basis([[7, 0], [-3, 1]], 2) == [[1, 2], [0, 7]]
    assert row_lattice_basis([[0, 0]], 2) == []
    assert row_lattice_basis([[2, 4], [4, 8]], 2) == [[2, 4]]


def test_transform_guard_survives_optimized_mode():
    # every H_1 presentation checks its Smith transforms; a product
    # that comes out wrong must still stop the command under -O
    script = "\n".join([
        "import sys",
        "import orbinov.snf",
        "product = orbinov.snf.mat_mul",
        "orbinov.snf.mat_mul = lambda A, B: [[x + 1 for x in row]",
        "                                    for row in product(A, B)]",
        "from orbinov import cli",
        "sys.exit(cli.main(['novikov', 'klein', '--class', 'dy']))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "transform bookkeeping broke" in proc.stderr

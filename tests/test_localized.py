"""The localized ring's gcd theory: gcds and associates."""

import os
import random
import subprocess
import sys

import pytest
import sympy

import orbinov
from orbinov import UnsupportedOperationError, ValidationError
from orbinov.laurent import LaurentPoly, WeightSystem, exact_divide
from orbinov.localized import associates, int_poly_gcd, localized_gcd

WS1 = WeightSystem([(1,)])
WS0 = WeightSystem([])
WS2 = WeightSystem([(1, 0), (0, 1)])


def T(power=1):
    return LaurentPoly.monomial(1, (power,))


def const(c, r=1):
    return LaurentPoly.const(r, c)


def _sympy_gcd(a, b):
    x = sympy.symbols("x")
    pa = sum(c * x ** i for i, c in enumerate(a))
    pb = sum(c * x ** i for i, c in enumerate(b))
    g = sympy.Poly(sympy.gcd(pa, pb, x), x)
    return [int(c) for c in reversed(g.all_coeffs())]


def test_int_poly_gcd_against_sympy():
    rng = random.Random(404)
    for _ in range(200):
        a = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        b = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        if not any(a) and not any(b):
            continue
        assert int_poly_gcd(a, b) == _sympy_gcd(a, b)


def test_int_poly_gcd_shared_factor():
    rng = random.Random(405)
    x = sympy.symbols("x")
    for _ in range(80):
        f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        h = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        pf = sum(c * x ** i for i, c in enumerate(f))
        pg = sum(c * x ** i for i, c in enumerate(g))
        ph = sum(c * x ** i for i, c in enumerate(h))
        a = sympy.Poly(pf * ph, x).all_coeffs()
        b = sympy.Poly(pg * ph, x).all_coeffs()
        a = [int(c) for c in reversed(a)] or [0]
        b = [int(c) for c in reversed(b)] or [0]
        if not any(a) and not any(b):
            continue
        assert int_poly_gcd(a, b) == _sympy_gcd(a, b)


def test_int_poly_gcd_edges():
    assert int_poly_gcd([0], [-2, 4]) == [2, -4] or \
        int_poly_gcd([0], [-2, 4]) == [-2, 4]
    # lead is made positive on the zero branch
    assert int_poly_gcd([], [0, -3])[-1] > 0
    with pytest.raises(ValidationError):
        int_poly_gcd([0, 0], [])


def test_localized_gcd_rank_one():
    g = localized_gcd(T() - const(1), T(2) - const(1), WS1)
    assert exact_divide(T(2) - const(1), g) is not None
    assert exact_divide(T() - const(1), g) is not None
    assert g.n_terms() == 2  # an associate of T - 1
    assert localized_gcd(T() * 2 + const(1), const(2), WS1) == const(1)
    assert localized_gcd(const(4), const(6), WS1) == const(2)


def test_localized_gcd_laurent_inputs():
    # gcds ignore monomial shifts: T^-1(T - 1) and T - 1 share T - 1
    f = LaurentPoly(1, {(0,): 1, (-1,): -1})
    g = localized_gcd(f, T() - const(1), WS1)
    assert exact_divide(T() - const(1), g) is not None
    assert g.n_terms() == 2


def test_localized_gcd_zero_and_rank_limits():
    g = localized_gcd(LaurentPoly(1, {}), T(3) * -2, WS1)
    assert g.terms == {(0,): 2}  # shifted to base 0, lead made positive
    with pytest.raises(ValidationError):
        localized_gcd(LaurentPoly(1, {}), LaurentPoly(1, {}), WS1)
    assert localized_gcd(const(4, 0), const(-6, 0), WS0) == const(2, 0)
    with pytest.raises(UnsupportedOperationError):
        localized_gcd(const(2, 2), const(4, 2), WS2)


def test_associates():
    assert not associates(const(2), const(6), WS1)
    assert associates(const(2), T() * 2, WS1)
    # monic polynomials are units, so these all collapse together
    assert associates(T() - const(1),
                      (T() - const(1)) * (T() + const(1)), WS1)
    assert associates(T() - const(1), const(1), WS1)
    assert associates(const(2) * (T() - const(1)), const(2), WS1)
    assert not associates(const(2), T() * 2 + const(1), WS1)
    assert associates((T() - const(1)) * 3, (const(1) - T(-1)) * 3, WS1)
    assert not associates(LaurentPoly(1, {}), const(1), WS1)
    assert associates(LaurentPoly(1, {}), LaurentPoly(1, {}), WS1)
    with pytest.raises(UnsupportedOperationError):
        associates(const(2, 2), const(2, 2), WS2)


def test_reduction_guard_survives_optimized_mode():
    # associates cancels the gcd out of both arguments; a gcd that does
    # not divide them must still be refused under -O
    script = "\n".join([
        "import sys",
        "import orbinov.localized as loc",
        "from orbinov.errors import ValidationError",
        "from orbinov.laurent import LaurentPoly, WeightSystem",
        "gcd = loc.localized_gcd",
        "loc.localized_gcd = lambda x, y, ws: gcd(x, y, ws) * 3",
        "t1 = LaurentPoly(1, {(1,): 1, (0,): -1})",
        "try:",
        "    loc.associates(t1, t1 * t1, WeightSystem([(1,)]))",
        "except ValidationError as err:",
        "    sys.exit(str(err))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "gcd does not divide its arguments" in proc.stderr


def test_ring_guards_survive_optimized_mode():
    # polynomials in two variables must be refused by a rank one gcd
    # under -O too, not read as univariate
    script = "\n".join([
        "import sys",
        "from orbinov.errors import ValidationError",
        "from orbinov.laurent import LaurentPoly, WeightSystem",
        "from orbinov.localized import localized_gcd",
        "try:",
        "    localized_gcd(LaurentPoly(2, {(1, 0): 1}),",
        "                  LaurentPoly(2, {(0, 1): 2}), WeightSystem([(1,)]))",
        "except ValidationError as err:",
        "    sys.exit(str(err))",
    ])
    src = os.path.dirname(os.path.dirname(orbinov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "one variable" in proc.stderr

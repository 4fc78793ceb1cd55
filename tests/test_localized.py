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
from orbinov.localized import associates, localized_gcd

WS1 = WeightSystem([(1,)])
WS0 = WeightSystem([])
WS2 = WeightSystem([(1, 0), (0, 1)])


def T(power=1):
    return LaurentPoly.monomial(1, (power,))


def const(c, r=1):
    return LaurentPoly.const(r, c)


def _laurent(coeffs, shift=0):
    return LaurentPoly(1, {(i + shift,): c for i, c in enumerate(coeffs)})


def _sympy_gcd(a, b):
    # T is a unit of the Laurent ring, so the reference is stripped of
    # its powers of x, as localized_gcd bases its result at exponent 0
    x = sympy.symbols("x")
    pa = sum(c * x ** i for i, c in enumerate(a))
    pb = sum(c * x ** i for i, c in enumerate(b))
    g = sympy.Poly(sympy.gcd(pa, pb, x), x)
    coeffs = [int(c) for c in reversed(g.all_coeffs())]
    while coeffs[0] == 0:
        coeffs.pop(0)
    return _laurent(coeffs)


def test_localized_gcd_against_sympy():
    rng = random.Random(404)
    for _ in range(200):
        a = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        b = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        if not any(a) and not any(b):
            continue
        got = localized_gcd(_laurent(a, -len(a)), _laurent(b), WS1)
        assert got == _sympy_gcd(a, b)


def test_localized_gcd_shared_factor():
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
        got = localized_gcd(_laurent(a), _laurent(b, -len(b)), WS1)
        assert got == _sympy_gcd(a, b)


def test_localized_gcd_edges():
    # the zero branch bases the other argument at 0, lead made positive
    assert localized_gcd(_laurent([0]), _laurent([-2, 4]), WS1) == \
        _laurent([-2, 4])
    assert localized_gcd(LaurentPoly(1, {}), _laurent([0, -3]), WS1) == \
        const(3)
    with pytest.raises(ValidationError):
        localized_gcd(_laurent([0, 0]), LaurentPoly(1, {}), WS1)


def test_localized_gcd_checks_the_variable_count():
    # a zero argument under rank one, and a constant under rank zero
    with pytest.raises(ValidationError, match="one variable"):
        localized_gcd(LaurentPoly(2, {}), LaurentPoly(2, {(1, 3): -2}), WS1)
    with pytest.raises(ValidationError, match="constants"):
        localized_gcd(T(), const(2), WS0)


def test_localized_gcd_spread_cap():
    # a spread of 512 is accepted; 513 in either argument is refused
    # with the measured spread, unless the other argument is zero
    wide = T(512) - const(1)
    assert localized_gcd(wide, T() - const(1), WS1) == T() - const(1)
    assert localized_gcd(T(-1) - T(511), T() + const(1), WS1) == \
        T() + const(1)
    wider = T(513) - const(1)
    for x, y in ((wider, T() - const(1)), (T() - const(1), wider.shift((-7,)))):
        with pytest.raises(UnsupportedOperationError, match="spread 513 "):
            localized_gcd(x, y, WS1)
    assert localized_gcd(LaurentPoly(1, {}), wider, WS1) == wider


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

"""Cross checking twisted numbers against finite cyclic covers.

For an integral rank one class, reducing the twisted complex modulo
T^p = 1 must reproduce the integer homology of the p fold cyclic
cover.  The oracle builds that cover as an honest simplicial complex
and compares; agreement for several p is strong evidence the twisted
bookkeeping (deck translations, signs, localization) is right.
"""

from orbinov import cyclic_cover_oracle, integralize, quotient_complex
from orbinov.cli import resolve_document
from orbinov.cochains import descend_cochain


def check(name, cocycle):
    doc = resolve_document(name)
    om = doc.cochain(cocycle)
    if doc.action is not None:
        qres = quotient_complex(doc.action)
        om = descend_cochain(qres, om)
    # one integral lift of the class serves every cover degree
    lift = integralize(om)
    print("%s / %s:" % (name, cocycle))
    for p in (2, 3, 5):
        result = cyclic_cover_oracle(lift, p)
        print("  p=%d: explicit cover %r, algebraic %r -> %s"
              % (p, result.explicit, result.algebraic,
                 "agree" if result.consistent else "DISAGREE"))
        assert result.consistent
    print()


def main():
    check("circle", "dtheta")
    check("klein", "dy")
    check("mirror_cylinder", "dx")
    print("all covers agree with the twisted computation")


if __name__ == "__main__":
    main()

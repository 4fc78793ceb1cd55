"""Cross checking twisted numbers against finite cyclic covers.

For an integral rank one class, substituting the p by p cyclic shift
for T in the twisted boundary must reproduce the boundary of the p
fold cyclic cover.  The oracle builds that cover as an honest
simplicial complex, compares the two boundaries entry for entry and
prints the cover's integer homology; agreement for several p is strong
evidence the twisted bookkeeping (deck translations, signs) is right.
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
        print("  p=%d: cover homology %r; boundaries %s"
              % (p, result.explicit,
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

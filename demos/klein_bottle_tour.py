"""Torsion on the Klein bottle, untwisted and twisted.

Integer homology has an order two class in degree one.  The base
circle direction dy is dual to the fiber circle; twisting by it kills
everything, so the sharp critical counts for dy are all zero while
the untwisted counts must pay for the torsion in both families of
inequalities.
"""

from orbinov import check_inequalities, integer_homology, novikov_numbers
from orbinov.cli import resolve_document


def main():
    doc = resolve_document("klein")
    print("space:", doc.description)

    ih = integer_homology(doc.space)
    print("integer homology: betti %s, torsion %s" % (ih.betti, ih.torsion))
    assert ih.betti == [1, 1, 0] and ih.torsion == [[], [2], []]

    zero = doc.cochain("zero")
    nums0 = novikov_numbers(zero)
    print("untwisted numbers: betti %s, torsion counts %s"
          % (nums0.betti, nums0.torsion))
    height = doc.critical("height")
    report = check_inequalities(nums0, height)
    print("height counts %s: %s" % (height.counts,
                                    "hold" if report.holds else "violated"))
    for row in report.rows:
        print(" ", row)
    assert report.holds
    # the degree one bound is betti + this torsion + last torsion = 2
    plain_deg1 = [r for r in report.rows
                  if r.family == "plain" and r.degree == 1][0]
    assert plain_deg1.rhs == 2 and plain_deg1.slack == 0

    om = doc.cochain("dy")
    nums = novikov_numbers(om)
    print("dy period lattice basis:", nums.lift.basis)
    print("dy twisted numbers: betti %s, torsion counts %s"
          % (nums.betti, nums.torsion))
    assert nums.betti == [0, 0, 0] and nums.torsion == [0, 0, 0]
    flat = check_inequalities(nums, doc.critical("flat"))
    assert flat.holds
    print("zero critical counts pass for dy: the fibration has no "
          "critical points")


if __name__ == "__main__":
    main()

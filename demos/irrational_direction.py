"""A class whose periods span a rank two lattice.

On the seven vertex torus, the class "irr" has periods 1 and alpha
with alpha irrational (the document only carries a decimal shadow of
it).  Torsion over the two variable twisted ring has no gcd theory,
so the engine reports betti numbers, declines the torsion, and offers
a rational perturbation that collapses the lattice to rank one.
"""

from orbinov import novikov_numbers, rank1_perturb
from orbinov.cli import resolve_document


def main():
    doc = resolve_document("torus7")
    om = doc.cochain("irr")
    space = om.space
    print("symbols:", space.symbols, "shadows:",
          {s: str(v) for s, v in space.shadows.items()})

    nums = novikov_numbers(om)
    basis = nums.lift.basis
    print("period lattice basis:", [space.format(v) for v in basis])
    assert len(basis) == 2
    print("twisted betti:", nums.betti)
    print("torsion:", nums.torsion)
    print("note:", nums.note)
    assert nums.torsion is None

    flat = rank1_perturb(om, precision=4)
    nums2 = novikov_numbers(flat)
    basis2 = nums2.lift.basis
    print("after perturbation, lattice basis:",
          [flat.space.format(v) for v in basis2])
    assert len(basis2) == 1
    print("perturbed numbers: betti %s, torsion %s (route %s)"
          % (nums2.betti, nums2.torsion, nums2.route))
    assert nums2.betti == nums.betti
    print("the perturbation keeps the betti numbers and restores a "
          "torsion verdict")


if __name__ == "__main__":
    main()

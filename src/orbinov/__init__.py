"""Exact Novikov numbers for finitely presented orbifolds."""

from .errors import (EngineError, DocumentError, ValidationError,
                     UnsupportedOperationError)
from .snf import SNFResult, smith_normal_form
from .complexes import (SimplicialComplex, build_complex, integer_homology,
                        euler_characteristic, barycentric_subdivision)
from .laurent import LaurentPoly, WeightSystem
from .lmatrix import (WeightedLaurentMatrix, fraction_field_rank,
                      invariant_factors)
from .actions import (FiniteGroup, SimplicialAction, quotient_complex,
                      is_regular)
from .cochains import (PeriodSpace, RationalCochain1, coboundary0, is_exact,
                       is_invariant, descend_cochain)
from .periods import (H1Presentation, period_homomorphism, gamma_basis,
                      GPath, gpath_period, hurewicz_class)
from .twisted import (IntegralLift, integralize, TwistedComplex,
                      twisted_complex, NovikovNumbers, novikov_numbers,
                      CyclicCoverCheck, cyclic_cover_oracle, rank1_perturb)
from .inequalities import (CriticalData, InequalityRow, InequalityReport,
                           check_inequalities)
from .nerve import NerveModel, nerve_model

__version__ = "0.1.0"

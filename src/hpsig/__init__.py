"""Finite-dimensional signature calculus on graded duality complexes.

Submodules:
  hpc_core    graded complexes with duality, axiom validation
  simplicial  triangulations, cap duality, intersection-form oracle
  spectral    Hermitian eigensystems, positive ranks, certificates
  signature   index representatives and localization schedules
  products    graded tensor products, sign rules, parity witnesses
  rho         homotopy equivalences, duality path and terminal segment
  family      fibered complexes, monodromy, signature multiplicativity
  coarse      finite-propagation bookkeeping on metric spaces
  fixtures    reference corpus (triangulations, harmonic models)
  cli         the `hpsig` command
"""

from .hpc_core import (AxiomReport, DomainError, DualityDegenerateError,
                       GradedSpace, HPComplex, StructuralError, Tolerances,
                       direct_sum, hpcomplex_from_json, hpcomplex_to_json,
                       rescale_inner_products, reverse_orientation, validate)
from .signature import (LocalizationSchedule, OddIndexRepresentative,
                        localized_signature_path, odd_index_representative,
                        signature_even)
from .simplicial import (IntersectionForm, SimplicialManifold, betti_numbers,
                         cap_duality, cochain_complex, fundamental_cycle,
                         harmonic_reduction, intersection_form_oracle,
                         load_simplicial)
from .spectral import (HermitianEigensystem, InvertibilityCertificate,
                       NoSpectralGapError, eig_hermitian,
                       invertibility_certificate)
from .products import (ProductWitnessReport, SignRule, derive_sign_rule,
                       graded_tensor, product_signature_check,
                       witness_even_odd, witness_odd_even)
from .rho import (HomotopyEquivalence, RhoPath, TerminalCheck, identity_equivalence,
                  rho_path, terminal_check, validate_homotopy_equivalence)
from .family import (CHSReport, FiberedComplex, chs_check, fibered_from_json,
                     fibered_to_json, monodromy_homology_action, total_complex)
from .coarse import (FiniteMetricSpace, LocalizationPath, SupportedOperator,
                     almost_projection_product, compose, evaluation,
                     prop_along_base, propagation, rescale_metric, tensor)

__version__ = "0.1.0"

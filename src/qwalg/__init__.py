"""qwalg: exact classification of mixed classical/quantum polynomial algebras.

The toolkit certifies ordered-monomial bases by overlap resolution, reduces
quantum/Weyl presentations to canonical mixed algebras, computes rational
invariants, decides one-parameter torus isomorphism, and constructs
engine-verified embeddings and localizations.
"""

__version__ = "0.1.0"

from .scalars import (GroupMismatch, Scalar, ScalarGroup, SubgroupDescription,
                      format_scalar, subgroup_canonical_form)
from .presentation import (AddMultiple, AdmissibilityReport, EulerianNotSupported,
                           Permute, Presentation, PresentationError, Scale,
                           VerificationError, apply_certificate, apply_op,
                           certified_system, check_admissible, exchanged,
                           system_from_presentation, verified)
from .qwa import (Document, ParseError, format_generator_map, format_presentation,
                  parse_document, parse_generator_map, parse_presentation)
from .rewrite import (Confluent, Element, Failing, NotCertifiedError,
                      NotNormalError, ReductionSystem, Rule, RuleError)
from .torus import (Iso, NotApplicable, NotIso, QuantumTorus, TorusMorphism,
                    Violation, central_lattice, check_morphism, is_isomorphism,
                    is_simple, uniparameter_exponents, uniparameter_iso_decide)
from .mixed import (AlgebraInvariants, CanonicalMixedAlgebra, Equivalent,
                    InadmissiblePresentation, Inconclusive, MixedWeylField,
                    MixedWeylInvariants, NotEquivalent, ReductionCertificate,
                    cross_equivalence_necessary, equivalence_decide,
                    eulerian_presentation, invariants, mixed_weyl_invariants,
                    reduce_to_canonical)
from .qweyl import (LocalizationResult, QuantumWeylAlgebra, QWeylInvariants,
                    localize_to_mixed, localized_lambda,
                    qweyl_equivalence_necessary, qweyl_invariants)
from .embeddings import (FailingRelation, GeneratorMap, Verified, embed_mixed,
                         embed_torus, verify_homomorphism, weyl_lower_bound_witness)
from . import intlattice

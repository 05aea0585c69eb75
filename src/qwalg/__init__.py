"""qwalg: exact classification of mixed classical/quantum polynomial algebras.

The toolkit certifies ordered-monomial bases by overlap resolution, reduces
quantum/Weyl presentations to canonical mixed algebras, computes rational
invariants, decides one-parameter torus isomorphism, and constructs
engine-verified embeddings and localizations.
"""

__version__ = "0.1.0"

from .scalars import (GroupMismatch, Scalar, ScalarGroup, SubgroupDescription,
                      format_scalar, subgroup_canonical_form)
from .presentation import (Additive, AddMultiple, AdmissibilityReport, Eulerian,
                           EulerianNotSupported, Multiplicative, Permute,
                           Presentation, PresentationError, Scale,
                           apply_certificate, apply_op, certified_system,
                           check_admissible, subpresentation,
                           system_from_presentation, weyl_matrix)
from .qwa import (Document, ParseError, format_presentation, format_qweyl,
                  parse_document, parse_presentation, parse_scalar_literal)
from .rewrite import (Confluent, Element, Failing, NotCertifiedError,
                      NotNormalError, ReductionSystem, Rule, RuleError,
                      build_reduction_system)
from .torus import (Iso, NotApplicable, NotIso, QuantumTorus, TorusMorphism,
                    Violation, central_lattice, check_morphism, compose,
                    is_isomorphism, is_simple, uniparameter_exponents,
                    uniparameter_iso_decide)
from .mixed import (AlgebraInvariants, CanonicalMixedAlgebra, Equivalent,
                    InadmissiblePresentation, Inconclusive, MixedWeylField,
                    MixedWeylInvariants, NotEquivalent, ReductionCertificate,
                    cross_equivalence_necessary, equivalence_decide,
                    eulerian_presentation, invariants, mixed_weyl_invariants,
                    reduce_to_canonical, replay_certificate)
from .qweyl import (LocalizationResult, QuantumWeylAlgebra, QWeylInvariants,
                    VerificationError, localize_to_mixed, localized_lambda,
                    qweyl_equivalence_necessary, qweyl_invariants)
from .embeddings import (FailingRelation, GeneratorMap, Verified, embed_mixed,
                         embed_torus, format_generator_map, parse_generator_map,
                         verify_homomorphism, weyl_lower_bound_witness)
from . import intlattice

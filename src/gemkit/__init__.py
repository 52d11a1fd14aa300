"""gemkit: edge-colored graphs encoding compact PL manifolds.

Gems (graph-encoded manifolds) are regular properly edge-colored
multigraphs dual to colored pseudotriangulations.  The toolkit computes
regular genus, recognizes closed and singular manifolds, derives homology
and fundamental-group presentations, detects simple and weak-simple
crystallizations with their genus bounds, finds handle-decomposition
witnesses, and enumerates catalogues of gems up to isomorphism.
"""

from .core import (COLOR_PRESERVING, UP_TO_COLOR_PERMUTATION, ColoredGraph,
                   add_dipole, bipartition, canonical_code, complement_key,
                   connected_sum, decode_code, disjoint_union, format_gem,
                   is_bipartite, is_connected, load_gem, parse_gem, reduce,
                   residue_count, residue_key, save_gem)
from .errors import (AnalysisRefused, GemFormatError, GemkitError,
                     InternalConsistencyError, StructuralError)
from .genus import (CyclicPermutation, GenusReport, all_cyclic_permutations,
                    genus_all, genus_of_sequence, subgenus)
from .invariants import (HomologyReport, Pi1Certificate, Presentation,
                         beta2_via_genus, euler_characteristic,
                         euler_via_genus, h1_via_edge_path, homology,
                         pi1_certificate, smith_normal_form,
                         tietze_trivializes)
from .recognition import (ManifoldClass, SphereCertificate,
                          check_closed_manifold, classify_surface,
                          is_crystallization, normalize_singular_color,
                          sphere_certificate, singular_colors)
from .classification import (BoundsReport, ClassificationReport, check_bounds,
                             classification_report, detect_simple,
                             detect_weak_simple, genus_subgenus_residuals,
                             t_values, weak_simple_consistency)
from .handles import (CollapseTrace, HandleProfile, HandlesReport,
                      HypothesisWitness, collapse_2skeleton,
                      find_hypothesis_witnesses, handle_profile,
                      handles_report, subgenus_target)
from .catalogue import (CatalogueRecord, build_record, enumerate_gems,
                        generate_catalogue, read_catalogue, verify_corpus)

__version__ = "0.1.0"

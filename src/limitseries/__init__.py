"""limitseries: exact staircase combinatorics, residual chains in truncated
rings, fat-point interpolation oracles and specialization certificates."""

from .enriques import (EnriquesDiagram, diagram_degree,
                       four_point_constellation, is_unloaded,
                       search_multiplicities, three_point_reference)
from .errors import (BoundaryWarning, CapExceeded, CapExhausted, DomainError,
                     DivisionWitnessFailure, HypothesisFailed, IdentityFailure,
                     InvalidSequence, InvalidTruncation, LengthMismatch,
                     LimitSeriesError, MonotonicityViolation,
                     MultiplicitiesUnset, NotUnloaded, OracleResourceLimit,
                     PrimeTooSmall, ResourceLimit)
from .hilbert import (ambient_sections, bookkeeping_identity,
                      critical_bounds_report, critical_degree,
                      fat_point_degree, virtual_hilbert)
from .horace import (LineSystemModel, OracleScene, ResidualCertificate,
                     SpecializationPlan, apply_theorem, build_nagata_plan,
                     hypothesis_check, limit_inclusion_check,
                     nagata_certificate, slice_degree_table, validate_plan)
from .interp import (Site, conditions_matrix, hilbert_function_of,
                     verify_nagata_theorem)
from .linalg import DEFAULT_PRIME, is_prime
from .localring import (Element, FamilyIdeal, MonomialSpace, RingContext,
                        boundary_columns, chain_context, closed_form_residual,
                        closed_form_span, flat_limit, residual_chain,
                        restriction_chain, special_fiber, translate_ideal)
from .staircase import (Staircase, StaircaseTuple, f_staircase,
                        is_quasi_regular, is_right_specialized,
                        make_staircase, regular, slice_tuple, suppress_seq,
                        suppress_tuple, vertical_collision)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

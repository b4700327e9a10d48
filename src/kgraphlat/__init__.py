"""Exact combinatorics for finitely presented higher-rank graphs.

Represents rank-k graphs by colored skeletons with commuting squares,
provides canonical path arithmetic, the common-extension machinery with
certified cap-bounded searches, the saturated-hereditary / satiation
closures whose pairs index gauge-invariant ideals, structural checks
(gradings, skew products, cofinality, loops with an entrance), and a
deterministic CLI over a small text format.
"""

__version__ = "0.1.0"

from .certify import Certainty, CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import (
    Edge,
    KGraph,
    KGraphError,
    MissingSquareError,
    NonComposableError,
    Path,
    SegmentBoundsError,
    Skeleton,
    SquareRule,
    ValidationReport,
    validate_kgraph,
)
from .align import (
    FEFamily,
    MinPair,
    ext,
    fe_sets,
    fe_sets_all,
    is_exhaustive,
    lambda_min,
    mce,
    minimal_antichain,
    pi_closure,
    vee_closure,
)
from .ideals import (
    IdealLattice,
    IdealPair,
    SatiatedFamily,
    VertexSet,
    enumerate_ideal_pairs,
    enumerate_sat_hered,
    hereditary_closure,
    ideal_lattice,
    is_hereditary,
    is_satiated,
    is_saturated,
    pair_leq,
    quotient_graph,
    restricted_fe_family,
    satiation_closure,
    saturation,
)
from .structure import (
    BoundaryPrefix,
    Grading,
    LiftedSet,
    SkewWindow,
    StructureReport,
    boundary_prefixes,
    cofinality_check,
    find_loop_with_entrance,
    grading_exists,
    m_closure,
    m_closure_iterated,
    skew_fe_lift,
    skew_product_window,
    structure_report,
)
from .textio import (
    FIXTURE_TEXTS,
    KGraphDocument,
    KGraphSyntaxError,
    emit_kgraph_text,
    fixture,
    parse_kgraph_text,
)

"""stairdist: exact interleaving-type distances via staircase upper sets.

Clusterings that vary over the line or the plane, barcodes and simplicial
filtrations all decompose into elementary merge/presence parts; each part
is a staircase-shaped upper set, and every distance here is a largest (or
correspondence-minimized) Hausdorff distance between such staircases,
computed in exact rational arithmetic.
"""

from .errors import (
    AmbientMismatch,
    EmptyInterval,
    EmptySimplex,
    GroundSetMismatch,
    InvalidFiltration,
    InvalidMetric,
    NegativeEpsilon,
    NotADendrogram,
    NotOnePoint,
    PointOutsideAmbient,
    SizeGuardExceeded,
    StairdistError,
    ValidationError,
)
from .lattice import (
    GroundSet,
    SubPartition,
    Surjection,
    enumerate_subpartitions,
    irreducible_parts,
    is_join_irreducible,
    join_all,
    minimal_join_representations,
    pullback,
)
from .staircase import (
    INT,
    PLANE,
    Staircase,
    contains,
    empty,
    full,
    hausdorff,
    profile,
    staircase,
    subset,
    thicken,
    upper_set_interleaved,
)
from .formigram import (
    CosheafTable,
    Formigram,
    Ultrametric,
    cosheaf_code,
    evaluate_cosheaf,
    formigrams_equal,
    interleaving_distance,
    is_dendrogram,
    normalized,
    pointwise_refines,
    pullback_formigram,
    single_linkage,
    smooth,
    ultrametric,
    validate,
)
from .compare import (
    GridClustering,
    enumerate_correspondences,
    grid_code,
    grid_interleaving_distance,
    grid_upper_set,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
)
from .filtration import (
    IntFiltration,
    RFiltration,
    birth,
    one_point_tripod,
    pullback_filtration,
    support,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
    validate_filtration,
)
from .persistence import (
    barcode,
    bottleneck_distance,
    erosion_distance,
    h0_barcode,
    rank,
    sublevel_staircase,
)
from .rat import INF, NEG_INF, Rat, RatX, fmt_rat, parse_rat

__version__ = "0.1.0"

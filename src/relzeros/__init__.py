"""Exact all-terminal reliability polynomials of multigraphs and their zeros.

The pipeline: build a multigraph, enumerate its connected-spanning-subgraph
polynomial exactly, expand the named families by exact substitution, then
locate complex zeros at configurable precision and test them against the
forbidden discs |lambda + v| < lambda.
"""

from .multigraph import (
    GraphParseError,
    Multigraph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_series_parallel,
    k4_two_class,
    k6_disjoint_triangles,
    parse_graph,
)
from .polycore import (
    MIN_PRECISION,
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
    find_minimal_k,
    kth_root_branch,
    shifted_power,
)
from .reliability import (
    ClassCountError,
    DisconnectedGraphError,
    EnumerationLimitError,
    NotSeriesParallelError,
    SeriesCancellationError,
    ZeroEdgeWeightError,
    connected_subgraph_poly,
    multivariate_bc_property,
    reduce_sp_value,
    subdivided_univariate,
    two_class_specialize,
)
from .roots import (
    BranchExpansion,
    BranchFitError,
    LocusCurve,
    NonconvergenceError,
    NoViolationRegionError,
    RegionEndpoint,
    RootSet,
    UndecidableDiscError,
    ZeroPolynomialError,
    analytic_disc_margin,
    bc_lambda_holds_univariate,
    disc_verdict,
    estimate_branch_coefficients,
    find_roots,
    lambda_star_univariate,
    min_disc_distance,
    min_disc_root,
    region_endpoint_angle,
    trace_locus,
)

__version__ = "0.1.0"

"""Valuated matroids, Dressian cell machinery, and exact bound reports."""

from .bounds import (
    BoundsReport,
    CensusRecord,
    all_sparse_paving_matroids,
    bounds_report,
    census_from_matroids,
    count_sparse_paving,
    dim_upper,
    lower_bound_certificate,
    perturbed_census,
    sparse_paving_census,
)
from .linear import (
    CoverInputError,
    ExactCover,
    RationalSubspace,
    cell_dim,
    exact_cover_check,
    integer_matrix_rank,
    solve_linear_system,
    subspace_from_symbols,
)
from .matroid import (
    InputError,
    InvariantViolation,
    Matroid,
    MatroidInputError,
    NotAMatroidError,
    ScaleLimitError,
    is_matroid,
    johnson_neighbors,
    mask_to_set,
    modular_stable_matroid,
    r_subset_masks,
    set_to_mask,
)
from .rationals import (
    INF,
    RationalInputError,
    format_rational,
    parse_rational,
)
from .subdivision import (
    SubdivisionCensus,
    locate_cell,
    polytope_dim,
    spread_report,
    subdivision_cells,
)
from .trees import (
    MetricTree,
    TreeInputError,
    TreeTopology,
    decode_tree,
    enumerate_rank2_cells,
    parallel_classes,
    rank2_cell_dims,
    tree_to_valuation,
)
from .valuation import (
    CombinatorialType,
    NotAValuationError,
    Symbol,
    Valuation,
    ValuationInputError,
    all_symbols,
    check_valuation,
    check_valuation_bruteforce,
    combinatorial_type,
    contract_valuation,
    equivalent,
    residue_matroid,
    separating_shift,
    shift,
    smooth_decompose,
    symbol_sets,
    valuation_from_matroid,
)

__version__ = "0.1.0"

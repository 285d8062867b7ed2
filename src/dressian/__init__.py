"""Valuated matroids, Dressian cell machinery, and exact bound reports.

`matroid` and `rationals`, which every other module imports, run at import.
The other five library modules are registered through
`importlib.util.LazyLoader`: each is in `sys.modules` and is an attribute
of the package at once, but its body runs on first attribute access.
Library modules reach one another by module (`valuation.symbol_table`),
never by `from .valuation import ...`, so a lazy module is first reached
by attribute access, which raises any error its body raises.  A CLI call
thus runs only the modules its subcommand touches.  The public names
below are served from their defining modules by `__getattr__`.  `cli` is
not registered: `python -m dressian.cli` (runpy) warns when the module it
is about to run is already in `sys.modules`.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import matroid, rationals

_EXPORTS = {name: module for module, names in {
    "bounds": ("BoundsReport", "CensusRecord", "all_sparse_paving_matroids",
               "bounds_report", "census_from_matroids", "count_sparse_paving",
               "dim_upper", "lower_bound_certificate", "perturbed_census",
               "sparse_paving_census"),
    "linear": ("CoverInputError", "ExactCover", "RationalSubspace", "cell_dim",
               "exact_cover_check", "integer_matrix_rank", "solve_linear_system",
               "subspace_from_symbols"),
    "matroid": ("InputError", "InvariantViolation", "Matroid", "MatroidInputError",
                "NotAMatroidError", "ScaleLimitError", "is_matroid", "johnson_neighbors",
                "mask_to_set", "modular_stable_matroid", "r_subset_masks", "set_to_mask"),
    "rationals": ("INF", "RationalInputError", "format_rational", "parse_rational"),
    "subdivision": ("SubdivisionCensus", "locate_cell", "polytope_dim", "spread_report",
                    "subdivision_cells"),
    "trees": ("MetricTree", "TreeInputError", "TreeTopology", "decode_tree",
              "enumerate_rank2_cells", "parallel_classes", "rank2_cell_dims",
              "tree_to_valuation"),
    "valuation": ("CombinatorialType", "NotAValuationError", "Symbol", "Valuation",
                  "ValuationInputError", "all_symbols", "check_valuation",
                  "check_valuation_bruteforce", "combinatorial_type", "contract_valuation",
                  "equivalent", "residue_matroid", "separating_shift", "shift",
                  "smooth_decompose", "symbol_sets", "valuation_from_matroid"),
}.items() for name in names}
_MODULES = sorted(set(_EXPORTS.values()))

for _module in sorted(set(_MODULES) - {"matroid", "rationals"}):
    _spec = find_spec(f"{__name__}.{_module}")
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])

__all__ = sorted([*_EXPORTS, *_MODULES])
__version__ = "0.1.0"
_OWN = {"__all__", "__dir__", "__getattr__", "_EXPORTS", "_MODULES", "_OWN"}
del sys, LazyLoader, find_spec, module_from_spec, _module, _spec


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(globals().keys() - _OWN | _EXPORTS.keys())

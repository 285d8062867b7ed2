"""The names the package exports, frozen: each resolves to the object of
the same name in its defining module, whether or not that module has run."""

import importlib

import pytest

import dressian

EXPORTS = {
    "bounds": ["BoundsReport", "CensusRecord", "all_sparse_paving_matroids", "bounds_report",
               "census_from_matroids", "count_sparse_paving", "dim_upper",
               "lower_bound_certificate", "perturbed_census", "sparse_paving_census"],
    "linear": ["CoverInputError", "ExactCover", "RationalSubspace", "cell_dim",
               "exact_cover_check", "integer_matrix_rank", "solve_linear_system",
               "subspace_from_symbols"],
    "matroid": ["InputError", "InvariantViolation", "Matroid", "MatroidInputError",
                "NotAMatroidError", "ScaleLimitError", "is_matroid", "johnson_neighbors",
                "mask_to_set", "modular_stable_matroid", "r_subset_masks", "set_to_mask"],
    "rationals": ["INF", "RationalInputError", "format_rational", "parse_rational"],
    "subdivision": ["SubdivisionCensus", "locate_cell", "polytope_dim", "spread_report",
                    "subdivision_cells"],
    "trees": ["MetricTree", "TreeInputError", "TreeTopology", "decode_tree",
              "enumerate_rank2_cells", "parallel_classes", "rank2_cell_dims",
              "tree_to_valuation"],
    "valuation": ["CombinatorialType", "NotAValuationError", "Symbol", "Valuation",
                  "ValuationInputError", "all_symbols", "check_valuation",
                  "check_valuation_bruteforce", "combinatorial_type", "contract_valuation",
                  "equivalent", "residue_matroid", "separating_shift", "shift",
                  "smooth_decompose", "symbol_sets", "valuation_from_matroid"],
}
PUBLIC = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)


def test_every_export_is_its_defining_modules_object():
    assert sum(map(len, EXPORTS.values())) == 64
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"dressian.{module}")
        assert getattr(dressian, module) is home
        for name in names:
            assert getattr(dressian, name) is getattr(home, name), (module, name)


def test_star_import_and_dir_give_the_frozen_names():
    namespace = {}
    exec("from dressian import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    # `cli` is a package attribute once dressian.cli has been imported
    assert {name for name in dir(dressian) if not name.startswith("_")} - {"cli"} == PUBLIC
    assert dressian.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "Fraction", "_colex_subsets", "symbol_table"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(dressian, name)
    with pytest.raises(ImportError):
        exec("from dressian import no_such_name", {})

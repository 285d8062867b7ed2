"""Command-line surface: every operation behind a subcommand with file I/O.

Output is deterministic: JSON is emitted with sorted keys and no
timestamps, and CSV rows come out in a fixed order.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

# named by module, not imported by name: a library module runs on first
# attribute access, so each subcommand runs only the modules it touches
from . import bounds, linear, subdivision, trees, valuation
from .matroid import (
    InputError,
    InvariantViolation,
    Matroid,
    ScaleLimitError,
    parse_subset_key,
    subset_key,
)
from .rationals import format_rational

INPUT_ERRORS = (InputError, OSError)  # exit 2; any other exception but InvariantViolation is a bug


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or too deep
            raise InputError(f"{path}: {exc}") from None


def _load_matroid(path) -> Matroid:
    return Matroid.from_json_obj(_load_json(path))


def _load_valuation(path) -> valuation.Valuation:
    return valuation.Valuation.from_json_obj(_load_json(path), matroid_loader=_load_matroid)


def _emit(args, obj, csv_rows=None, text=None):
    """Write the document in the requested format to stdout or --out."""
    if args.format == "json":
        doc = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":  # offered only where csv_rows are given
        buf = io.StringIO()
        buf.write("quantity,observed,bound,bound_source,satisfied\n")
        for row in csv_rows:
            buf.write(",".join('"%s"' % str(v).replace('"', '""') for v in row) + "\n")
        doc = buf.getvalue()
    else:
        doc = (text if text is not None
               else json.dumps(obj, sort_keys=True, indent=2)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_check(args):
    M, _den, view = valuation.parse_valuation_document(_load_json(args.valuation), _load_matroid)
    # the direct checker goes first: it refuses C(n, r) > DESK_SCALE_COORDS
    # before any symbol table is built
    slow = valuation._direct_holds(M, view)
    fast = valuation._three_term_holds(M, view)
    if fast != slow:
        raise InvariantViolation("three-term and direct checkers disagree")
    _emit(args, {"valid": fast}, text=f"valid: {fast}")


def cmd_type(args):
    nu = _load_valuation(args.valuation)
    t = valuation.combinatorial_type(nu)
    s_key = functools.cache(subset_key)  # a type has many symbols per set S
    obj = {
        "type_size": t.size,
        "z1_size": t.z1_size,
        "symbols_equal": sorted(s.as_key(s_key) for s in t.symbols_equal),
    }
    _emit(args, obj, text=f"type_size: {t.size}")


def cmd_equiv(args):
    nu = _load_valuation(args.valuation)
    mu = _load_valuation(args.other)
    eq = valuation.equivalent(nu, mu)
    _emit(args, {"equivalent": eq}, text=f"equivalent: {eq}")


def cmd_dim(args):
    nu = _load_valuation(args.valuation)
    d = linear.cell_dim(nu)
    _emit(args, {"dim": d}, text=str(d))


def cmd_contract(args):
    nu = _load_valuation(args.valuation)
    S = parse_subset_key(args.set, nu.matroid.n, what="--set")
    contracted, keep = valuation.contract_valuation(nu, S)
    obj = {"valuation": contracted.to_json_obj(), "kept_elements": keep}
    _emit(args, obj)


def cmd_residue(args):
    nu = _load_valuation(args.valuation)
    w = args.shift.split(",") if args.shift else None  # `shift` reads each entry
    M0 = valuation.residue_matroid(nu, w)
    _emit(args, M0.to_json_obj())


def cmd_from_matroid(args):
    N = _load_matroid(args.matroid)
    nu = valuation.valuation_from_matroid(N)
    _emit(args, nu.to_json_obj())


def cmd_tree_decode(args):
    nu = _load_valuation(args.valuation)
    T = trees.decode_tree(nu)
    newick = T.to_newick()
    obj = {
        "newick": newick,
        "internal_vertices": len(T.internal_vertices()),
        "splits": sorted(
            [sorted(side) for side in sorted(sp, key=sorted)] for sp in T.splits()
        ),
    }
    _emit(args, obj, text=newick)


def cmd_tree_encode(args):
    with open(args.tree) as fh:
        try:
            T = trees.MetricTree.from_newick(fh.read(), n=args.n)
        except UnicodeDecodeError as exc:
            raise trees.TreeInputError(f"{args.tree}: {exc}") from None
    nu = trees.tree_to_valuation(T, Matroid.uniform(2, T.n))
    _emit(args, nu.to_json_obj())


def cmd_rank2_census(args):
    dims = trees.rank2_cell_dims(Matroid.uniform(2, args.n))
    cells = sum(dims.values())
    obj = {"n": args.n, "cells": cells, "dims": {str(k): v for k, v in dims.items()}}
    _emit(args, obj, text=f"cells: {cells}")


def cmd_subdivision(args):
    nu = _load_valuation(args.valuation)
    census = subdivision.subdivision_cells(nu)
    obj = {
        "spread": census.spread,
        "exploration_status": census.exploration_status,
        "cells": [
            [subset_key(b) for b in cell.sorted_bases()]
            for cell in census.maximal_cells
        ],
    }
    _emit(args, obj, text=f"spread: {census.spread} ({census.exploration_status})")


def cmd_spread(args):
    nu = _load_valuation(args.valuation)
    _emit(args, subdivision.spread_report(nu))


def cmd_bounds(args):
    rep = bounds.bounds_report(args.n, args.r, args.t)
    rows = [(q, "", v, s, "") for q, v, s in rep.rows()]
    _emit(args, rep.to_json_obj(), csv_rows=rows)


def cmd_lower_bound(args):
    if not 2 <= args.r < args.n:  # the rank-t contraction bound needs t >= 2
        raise ScaleLimitError(f"lower-bound needs 2 <= r < n, got r={args.r}, n={args.n}")
    N, c, dim = bounds.lower_bound_certificate(args.n, args.r)
    upper = bounds.dim_upper(args.n, args.r)
    obj = {
        "n": args.n,
        "r": args.r,
        "nonbases": [subset_key(b) for b in sorted(N.nonbases())],
        "component_count": c,
        "cell_dim": dim,
        "dim_upper": str(upper),
    }
    source = bounds.BoundsReport.SOURCES
    rows = [("cell_dim_vs_components", dim, c, source["dim_lower"], dim >= c)]
    if 3 <= args.r <= args.n - 3:  # where dim_upper bounds a cell's dimension
        rows.append(("cell_dim_vs_dim_upper", dim, upper, source["dim_upper"],
                     dim <= upper))
    _emit(args, obj, csv_rows=rows,
          text=f"c(N) = {c}, cell_dim = {dim}, dim_upper = {upper}")


def cmd_sp_census(args):
    census = bounds.perturbed_census if args.perturbed else bounds.sparse_paving_census
    rec = census(args.r, args.n, with_dims=args.with_dims)
    obj = {
        "n": rec.n,
        "r": rec.r,
        "source_size": rec.source_size,
        "distinct_types": rec.distinct_types,
        "distinct_is_injective": rec.distinct_is_injective,
        "completeness": rec.completeness,
    }
    if args.with_dims:
        obj["max_cell_dim"] = rec.max_cell_dim
    _emit(args, obj, text=f"distinct types: {rec.distinct_types}")


def cmd_cover_check(args):
    L = linear.RationalSubspace.from_json_obj(_load_json(args.subspace))
    cover = linear.ExactCover.from_json_obj(_load_json(args.cover), L)
    lhs, rhs, holds = linear.exact_cover_check(L, cover)
    if not holds:
        raise InvariantViolation(
            f"cover inequality failed: {lhs} > {format_rational(rhs)}"
        )
    obj = {"lhs": lhs, "rhs": format_rational(rhs), "holds": holds}
    _emit(args, obj, text=f"{lhs} <= {format_rational(rhs)}")


def cmd_smooth(args):
    nu = _load_valuation(args.valuation)
    remainder, peels = valuation.smooth_decompose(nu)
    obj = {
        "peels": [[subset_key(mask), format_rational(lam)] for mask, lam in peels],
        "remainder": remainder.to_json_obj(),
        "remainder_is_zero": all(v == 0 for v in remainder.values.values()),
    }
    _emit(args, obj)


# ---------------------------------------------------------------------------
# argument plumbing


_VALUATION = {"--valuation": {"required": True}}
_N_R = {"--n": {"type": int, "required": True}, "--r": {"type": int, "required": True}}

# name -> (handler, whether --format offers csv, {flag: add_argument keywords});
# subparsers and their options are added in this order
COMMANDS = {
    "check": (cmd_check, False, _VALUATION),
    "type": (cmd_type, False, _VALUATION),
    "equiv": (cmd_equiv, False, {**_VALUATION, "--other": {"required": True}}),
    "dim": (cmd_dim, False, _VALUATION),
    "contract": (cmd_contract, False, {**_VALUATION, "--set": {"required": True}}),
    "residue": (cmd_residue, False, {**_VALUATION, "--shift": {"default": None}}),
    "from-matroid": (cmd_from_matroid, False, {"--matroid": {"required": True}}),
    "tree-decode": (cmd_tree_decode, False, _VALUATION),
    "tree-encode": (cmd_tree_encode, False,
                    {"--tree": {"required": True}, "--n": {"type": int, "default": None}}),
    "rank2-census": (cmd_rank2_census, False, {"--n": {"type": int, "required": True}}),
    "subdivision": (cmd_subdivision, False, _VALUATION),
    "spread": (cmd_spread, False, _VALUATION),
    "bounds": (cmd_bounds, True,
               {**_N_R, "--t": {"type": int, "default": None}}),  # None: min(3, r)
    "lower-bound": (cmd_lower_bound, True, _N_R),
    "sp-census": (cmd_sp_census, False,
                  {**_N_R,
                   "--with-dims": {"action": "store_true"},
                   "--perturbed": {"action": "store_true"}}),
    "cover-check": (cmd_cover_check, False,
                    {"--subspace": {"required": True}, "--cover": {"required": True}}),
    "smooth": (cmd_smooth, False, _VALUATION),
}


@functools.cache
def _build_parser(name=None):
    """The argument parser, built once per process and name; parsing leaves
    it unchanged.  Given a subcommand name it holds only that subparser, and
    its usage line names every subcommand as the full parser's does."""
    p = argparse.ArgumentParser(
        prog="dressian",
        description="valuated matroids, cell machinery, and bound reports",
    )
    # the metavar only where the choices are cut: on the full parser it
    # would also rename "argument subcommand" in its error messages
    metavar = {} if name is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = p.add_subparsers(dest="subcommand", required=True, **metavar)
    for each in COMMANDS if name is None else [name]:
        fn, csv, arguments = COMMANDS[each]
        sp = sub.add_parser(each)
        for flag, kw in arguments.items():
            sp.add_argument(flag, **kw)
        formats = ["json", "csv", "text"] if csv else ["json", "text"]
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=fn)
    return p


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its subcommand first builds that subparser alone;
    # anything else (help, no or unknown subcommand) gets the full parser
    parser = _build_parser(argv[0]) if argv and argv[0] in COMMANDS else _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""The Fraction kernel that `check_valuation`, `combinatorial_type` and
`cell_dim` used before the integer view, kept as a test oracle.

Everything here works on the `Fraction` map `Valuation.values` and
regenerates the three-term locations and symbols on each call; the rank is
a plain Fraction Gaussian elimination, independent of `dressian.linear`.
Types are returned as (Z1 part, Z part) frozensets of `Symbol`.

`check_valuation_bruteforce` is the Fraction form of the direct checker,
as it was before it moved to the integer view, and `check_exchange` the
exchange-axiom loop over all ordered pairs of bases, independent of the
lowest-bit iteration and the stable-set certificate in `dressian.matroid`.
`is_sparse_paving` is the pairwise neighbour test `Matroid.is_sparse_paving`
ran before it shared the exchange check's stable-set certificate.
`eliminate` is the fraction-free elimination `dressian.linear._eliminate`
ran before its one comprehension pass per column: it searches each column
for a pivot with a generator, swaps the pivot row up, and visits every row
below it.  `gf2_basis` is the XOR basis `dressian.linear._gf2_basis` kept
before it was keyed by the highest set bit: it is keyed by the lowest.
"""

from fractions import Fraction
from math import gcd
from itertools import combinations

from dressian import (
    INF,
    Symbol,
    johnson_neighbors,
    mask_to_set,
    r_subset_masks,
    set_to_mask,
)


def is_finite(x):
    return x is not INF


def ext_sum(a, b):
    """a + b with infinity absorption, decided here by identity rather than
    by INF's own operators, which the checkers under test rely on."""
    if a is INF or b is INF:
        return INF
    return a + b


def locations(n, r):
    if r < 2 or n - r + 2 < 4:
        return
    for s in combinations(range(n), r - 2):
        s_mask = set_to_mask(s)
        rest = [e for e in range(n) if not (s_mask >> e) & 1]
        for quad in combinations(rest, 4):
            yield s_mask, quad


def all_symbols(n, r):
    out = []
    for s_mask, (a, b, c, d) in locations(n, r):
        out.append(Symbol.make(s_mask, (a, b), (c, d)))
        out.append(Symbol.make(s_mask, (a, c), (b, d)))
        out.append(Symbol.make(s_mask, (a, d), (b, c)))
    return out


def symbol_sets(M):
    z, z0 = [], []
    for sym in all_symbols(M.n, M.r):
        if all(x in M.bases for x in sym.cross_sets()):
            z.append(sym)
            sab, scd = sym.own_sets()
            if sab not in M.bases or scd not in M.bases:
                z0.append(sym)
    return frozenset(z), frozenset(z0), frozenset(z) - frozenset(z0)


def check_valuation(M, values):
    vals = {m: Fraction(v) for m, v in values.items()}
    bar = lambda m: vals.get(m, INF)
    for s_mask, (a, b, c, d) in locations(M.n, M.r):
        sums = [
            ext_sum(bar(s_mask | 1 << a | 1 << b), bar(s_mask | 1 << c | 1 << d)),
            ext_sum(bar(s_mask | 1 << a | 1 << c), bar(s_mask | 1 << b | 1 << d)),
            ext_sum(bar(s_mask | 1 << a | 1 << d), bar(s_mask | 1 << b | 1 << c)),
        ]
        finite = [x for x in sums if is_finite(x)]
        if finite and sum(1 for x in finite if x == min(finite)) < 2:
            return False
    return True


def symbol_equality_holds(nu, sym):
    sac, sbd, sad, sbc = sym.cross_sets()
    return ext_sum(nu.value(sac), nu.value(sbd)) == ext_sum(nu.value(sad), nu.value(sbc))


def combinatorial_type(nu):
    """(symbols_equal, full_type) of nu."""
    z, _z0, z1 = symbol_sets(nu.matroid)
    equal = frozenset(sym for sym in z if symbol_equality_holds(nu, sym))
    return equal & z1, equal


def fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]  # exact also on int rows
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cell_dim(nu):
    """dim L([nu]) over the basis coordinates; asserts nu lies in L([nu])."""
    _free, full = combinatorial_type(nu)
    coords = nu.matroid.sorted_bases()
    index = {m: i for i, m in enumerate(coords)}
    rows = []
    for sym in full:
        row = [Fraction(0)] * len(coords)
        sac, sbd, sad, sbc = sym.cross_sets()
        for m, coef in ((sac, 1), (sbd, 1), (sad, -1), (sbc, -1)):
            row[index[m]] += coef
        assert sum(c * nu.values[m] for m, c in zip(coords, row)) == 0
        rows.append(row)
    return len(coords) - fraction_rank(rows)


def check_valuation_bruteforce(M, values):
    """Direct evaluation of the exchange inequality (V) over all pairs of
    r-subsets, on Fractions."""
    vals = {m if isinstance(m, int) else set_to_mask(m): Fraction(v)
            for m, v in values.items()}
    subsets = r_subset_masks(M.n, M.r)
    bar = lambda m: vals.get(m, INF)
    for b1 in subsets:
        v1 = bar(b1)
        for b2 in subsets:
            lhs = ext_sum(v1, bar(b2))
            if not is_finite(lhs):
                continue
            for e in mask_to_set(b1 & ~b2):
                ebit = 1 << e
                ok = False
                for f in mask_to_set(b2 & ~b1):
                    fbit = 1 << f
                    rhs = ext_sum(bar(b1 ^ ebit | fbit), bar(b2 ^ fbit | ebit))
                    if is_finite(rhs) and lhs >= rhs:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def check_exchange(n, r, bases):
    """Exchange axiom (B) over all ordered pairs and every element of B1 - B2.

    The element bits of each basis are listed once up front; the quantifier
    is the same as in the loop that shifted through every bit position."""
    bits = {b: [1 << e for e in range(n) if b >> e & 1] for b in bases}
    for b1, bits1 in bits.items():
        for b2, bits2 in bits.items():
            for ebit in bits1:
                if ebit & b2:
                    continue
                for fbit in bits2:
                    if not fbit & b1 and (b1 ^ ebit | fbit) in bases and (b2 ^ fbit | ebit) in bases:
                        break
                else:
                    return False
    return True


def is_sparse_paving(n, r, bases):
    """No two non-bases are adjacent in the Johnson graph J(r, n)."""
    nb = [m for m in r_subset_masks(n, r) if m not in bases]
    nbset = set(nb)
    for m in nb:
        for other in johnson_neighbors(n, m):
            if other in nbset:
                return False
    return True


def gf2_basis(masks):
    """Indices of the masks that enter an XOR basis keyed by lowest set bit
    (each reduction step clears the row's lowest bit)."""
    basis, entered = {}, []
    for i, x in enumerate(masks):
        while x:
            low = x & -x
            if low not in basis:
                basis[low] = x
                entered.append(i)
                break
            x ^= basis[low]
    return entered


def eliminate(rows, reduced=False):
    """Fraction-free elimination of integer rows in place, with row swaps.

    Same contract as `dressian.linear._eliminate`: returns the pivot
    columns, rows[k] is the (positive-pivot) row of the k-th pivot and the
    zero rows are dropped; with `reduced` each pivot is alone in its column.
    """
    rows[:] = [row for row in rows if any(row)]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        prow = rows[piv]
        if prow[col] < 0:
            prow = [-a for a in prow]
        rows[piv], rows[rank] = rows[rank], prow
        p = prow[col]
        support = [(c, prow[c]) for c in range(col, ncols) if prow[c]] if p == 1 else None
        for i in range(0 if reduced else rank + 1, len(rows)):
            row = rows[i]
            q = row[col]
            if not q or i == rank:
                continue
            if support is not None:
                for c, a in support:
                    row[c] -= q * a
            else:
                row = [p * a - q * b for a, b in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    del rows[len(pivots):]
    return pivots

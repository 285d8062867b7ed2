"""Valuations of matroids, combinatorial types, shifts, residues, contractions.

All values are exact rationals; the extension off the basis family to the
full r-subset lattice is by the INF sentinel and is never materialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .matroid import (
    Matroid,
    MatroidInputError,
    mask_to_set,
    r_subset_masks,
    set_to_mask,
)
from .rationals import INF, ext_sum, format_rational, is_finite, parse_rational


class ValuationInputError(ValueError):
    """Malformed valuation input (wrong domain, bad rational, ...)."""


class NotAValuationError(ValueError):
    """A value map on a basis family violates the valuation axiom."""


# ---------------------------------------------------------------------------
# Symbols


@dataclass(frozen=True, order=True)
class Symbol:
    """A location (S, ab|cd): an (r-2)-set S plus a pairing of four elements.

    Canonical form: a < b, c < d, a < c.  The symbol asserts the equality of
    the two crossing sums, nu(Sac) + nu(Sbd) = nu(Sad) + nu(Sbc).
    """

    s_mask: int
    a: int
    b: int
    c: int
    d: int

    @classmethod
    def make(cls, s_mask: int, pair1, pair2) -> "Symbol":
        (a, b), (c, d) = sorted(pair1), sorted(pair2)
        if a > c:
            a, b, c, d = c, d, a, b
        return cls(s_mask, a, b, c, d)

    def own_sets(self) -> tuple[int, int]:
        s = self.s_mask
        return s | 1 << self.a | 1 << self.b, s | 1 << self.c | 1 << self.d

    def cross_sets(self) -> tuple[int, int, int, int]:
        """(Sac, Sbd, Sad, Sbc)."""
        s = self.s_mask
        return (
            s | 1 << self.a | 1 << self.c,
            s | 1 << self.b | 1 << self.d,
            s | 1 << self.a | 1 << self.d,
            s | 1 << self.b | 1 << self.c,
        )

    def quad(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def as_key(self) -> str:
        s = ",".join(str(e) for e in mask_to_set(self.s_mask))
        return f"({s}|{self.a}{self.b}.{self.c}{self.d})"


def locations(n: int, r: int):
    """All (S, {a,b,c,d}) sites of the three-term condition."""
    if r < 2 or n - r + 2 < 4:
        return
    for s in combinations(range(n), r - 2):
        s_mask = set_to_mask(s)
        rest = [e for e in range(n) if not (s_mask >> e) & 1]
        for quad in combinations(rest, 4):
            yield s_mask, quad


def symbols_at(s_mask: int, quad) -> list[Symbol]:
    """The three symbols of one location."""
    a, b, c, d = sorted(quad)
    return [
        Symbol.make(s_mask, (a, b), (c, d)),
        Symbol.make(s_mask, (a, c), (b, d)),
        Symbol.make(s_mask, (a, d), (b, c)),
    ]


def all_symbols(n: int, r: int) -> list[Symbol]:
    """Z(r, E): every symbol on ground set {0..n-1}."""
    out = []
    for s_mask, quad in locations(n, r):
        out.extend(symbols_at(s_mask, quad))
    return out


def symbol_sets(M: Matroid) -> tuple[frozenset, frozenset, frozenset]:
    """(Z(M), Z0(M), Z1(M)).

    Z(M) keeps the symbols whose four crossing sets are all bases; Z0(M) is
    the part with a missing diagonal basis, where equality is forced.
    """
    z, z0 = [], []
    for sym in all_symbols(M.n, M.r):
        if all(x in M.bases for x in sym.cross_sets()):
            z.append(sym)
            sab, scd = sym.own_sets()
            if sab not in M.bases or scd not in M.bases:
                z0.append(sym)
    zf = frozenset(z)
    z0f = frozenset(z0)
    return zf, z0f, zf - z0f


# ---------------------------------------------------------------------------
# Valuations


def _normalize_values(M: Matroid, values) -> dict[int, Fraction]:
    out = {}
    for key, val in values.items():
        m = key if isinstance(key, int) else set_to_mask(key)
        if m not in M.bases:
            subset = ",".join(str(e) for e in mask_to_set(m))
            raise ValuationInputError(f"value supplied for non-basis {subset}")
        out[m] = Fraction(val)
    missing = M.bases - out.keys()
    if missing:
        raise ValuationInputError(f"missing values for {len(missing)} bases")
    return out


def parse_valuation_document(obj, matroid_loader=None) -> tuple[Matroid, dict]:
    """The matroid and value table of a valuation document, unchecked.

    The document is {"matroid": matroid document or file reference,
    "values": {"i,j,...": "p/q"}}; anything else raises ValuationInputError.
    """
    if not isinstance(obj, dict) or "matroid" not in obj or "values" not in obj:
        raise ValuationInputError('a valuation document needs "matroid" and "values"')
    mat, values = obj["matroid"], obj["values"]
    if not isinstance(values, dict):
        raise ValuationInputError('"values" must map subsets "i,j,..." to rationals')
    if isinstance(mat, str):
        if matroid_loader is None:
            raise ValuationInputError("matroid file reference without a loader")
        M = matroid_loader(mat)
    else:
        M = Matroid.from_json_obj(mat)
    vals = {}
    for key, text in values.items():
        try:
            elems = [int(tok) for tok in key.split(",")]
            value = parse_rational(str(text))
        except (ValueError, ZeroDivisionError):
            raise ValuationInputError(f"bad value entry {key!r}: {text!r}") from None
        if not all(0 <= e < M.n for e in elems):
            raise ValuationInputError(f"subset {key} is out of range for n={M.n}")
        mask = set_to_mask(elems)
        if mask in vals:
            raise ValuationInputError(f"two values for subset {key}")
        vals[mask] = value
    return M, vals


def check_valuation(M: Matroid, values) -> bool:
    """Three-term test: at every location the minimum of the three pairing
    sums of the extension is infinite or attained at least twice."""
    vals = _normalize_values(M, values)
    bar = lambda m: vals.get(m, INF)
    for s_mask, quad in locations(M.n, M.r):
        a, b, c, d = quad
        sums = [
            ext_sum(bar(s_mask | 1 << a | 1 << b), bar(s_mask | 1 << c | 1 << d)),
            ext_sum(bar(s_mask | 1 << a | 1 << c), bar(s_mask | 1 << b | 1 << d)),
            ext_sum(bar(s_mask | 1 << a | 1 << d), bar(s_mask | 1 << b | 1 << c)),
        ]
        finite = [x for x in sums if is_finite(x)]
        if not finite:
            continue
        lo = min(finite)
        if sum(1 for x in finite if x == lo) < 2:
            return False
    return True


def check_valuation_bruteforce(M: Matroid, values) -> bool:
    """Direct quantifier evaluation of the exchange inequality (V) over all
    pairs of r-subsets, with infinity arithmetic."""
    vals = _normalize_values(M, values)
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


@dataclass(frozen=True, eq=False)
class Valuation:
    """An exact-rational valuation of a matroid; immutable, checked on build."""

    matroid: Matroid
    values: dict

    def __post_init__(self):
        vals = _normalize_values(self.matroid, self.values)
        object.__setattr__(self, "values", vals)
        if not check_valuation(self.matroid, vals):
            raise NotAValuationError("value map violates the three-term condition")

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.matroid == other.matroid
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.matroid, tuple(sorted(self.values.items()))))

    def value(self, mask):
        """The extension: the stored rational on bases, INF elsewhere."""
        m = mask if isinstance(mask, int) else set_to_mask(mask)
        return self.values.get(m, INF)

    def spread_of_values(self) -> Fraction:
        vals = list(self.values.values())
        return max(vals) - min(vals)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "matroid": self.matroid.to_json_obj(),
            "values": {
                ",".join(str(e) for e in mask_to_set(m)): format_rational(v)
                for m, v in sorted(self.values.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict, matroid_loader=None) -> "Valuation":
        return cls(*parse_valuation_document(obj, matroid_loader))

    @classmethod
    def from_json(cls, text: str, matroid_loader=None) -> "Valuation":
        return cls.from_json_obj(json.loads(text), matroid_loader)


@dataclass(frozen=True, eq=False)
class CombinatorialType:
    """The equality pattern of a valuation over the free symbols Z1(M)."""

    matroid: Matroid
    symbols_equal: frozenset  # [nu] ∩ Z1(M)
    full_type: frozenset  # [nu] = [nu-bar] ∩ Z(M)

    @property
    def size(self) -> int:
        return len(self.full_type)

    @property
    def z1_size(self) -> int:
        return len(self.symbols_equal)

    def __eq__(self, other):
        return (
            isinstance(other, CombinatorialType)
            and self.matroid == other.matroid
            and self.symbols_equal == other.symbols_equal
        )

    def __hash__(self):
        return hash((self.matroid, self.symbols_equal))


def symbol_equality_holds(nu: Valuation, sym: Symbol) -> bool:
    sac, sbd, sad, sbc = sym.cross_sets()
    return ext_sum(nu.value(sac), nu.value(sbd)) == ext_sum(nu.value(sad), nu.value(sbc))


def combinatorial_type(nu: Valuation) -> CombinatorialType:
    z, _z0, z1 = symbol_sets(nu.matroid)
    equal = frozenset(sym for sym in z if symbol_equality_holds(nu, sym))
    return CombinatorialType(nu.matroid, equal & z1, equal)


def equivalent(nu: Valuation, nu2: Valuation) -> bool:
    """Combinatorial equivalence: equal types over Z1(M)."""
    if nu.matroid != nu2.matroid:
        raise ValuationInputError("valuations have different ambient matroids")
    _z, _z0, z1 = symbol_sets(nu.matroid)
    for sym in z1:
        if symbol_equality_holds(nu, sym) != symbol_equality_holds(nu2, sym):
            return False
    return True


# ---------------------------------------------------------------------------
# Operations


def shift(nu: Valuation, w) -> Valuation:
    """nu^w(B) = nu(B) + sum_{e in B} w(e)."""
    wv = [Fraction(x) for x in w]
    if len(wv) != nu.matroid.n:
        raise ValuationInputError("shift vector has wrong length")
    vals = {
        m: v + sum(wv[e] for e in mask_to_set(m)) for m, v in nu.values.items()
    }
    return Valuation(nu.matroid, vals)


def residue_matroid(nu: Valuation, w=None) -> Matroid:
    """M0(nu^w): the matroid of minimizers of the shifted valuation."""
    shifted = nu if w is None else shift(nu, w)
    lo = min(shifted.values.values())
    bases = frozenset(m for m, v in shifted.values.items() if v == lo)
    return Matroid(nu.matroid.n, nu.matroid.r, bases)


def contract_valuation(nu: Valuation, S) -> tuple[Valuation, list[int]]:
    """nu/S on M/S, defined by (nu/S)(B) = nu(B ∪ S); S must be independent.

    Returns (valuation, element_map) with the minor's relabeling map.
    """
    sm = S if isinstance(S, int) else set_to_mask(S)
    minor, keep = nu.matroid.minor(contract_set=sm)
    new_to_old = {new: old for new, old in enumerate(keep)}
    vals = {}
    for b in minor.bases:
        old = set_to_mask(new_to_old[e] for e in mask_to_set(b)) | sm
        vals[b] = nu.values[old]
    return Valuation(minor, vals), keep


def valuation_from_matroid(N: Matroid) -> Valuation:
    """nu_N(X) = r - rank_N(X) on the uniform ambient U(r, n)."""
    ambient = Matroid.uniform(N.r, N.n)
    vals = {m: Fraction(N.r - N.rank_of(m)) for m in ambient.bases}
    return Valuation(ambient, vals)


def separating_shift(nu: Valuation, sym: Symbol) -> list[Fraction]:
    """Witness w for a free symbol outside [nu]: in M0(nu^w), the crossing
    pair with the smaller sum is present and the other crossing pair is not.

    Construction: equalize the six window sets S+2-of-{a,b,c,d} pairwise
    within each pairing, then push everything outside the window up with a
    large constant W.
    """
    if symbol_equality_holds(nu, sym):
        raise ValuationInputError("symbol is in [nu]; no separating shift exists")
    sac, sbd, sad, sbc = sym.cross_sets()
    sab, scd = sym.own_sets()
    for m in (sac, sbd, sad, sbc, sab, scd):
        if m not in nu.matroid.bases:
            raise ValuationInputError("separating shift needs a symbol in Z1(M)")
    v = nu.values
    d1 = v[sbd] - v[sac]
    d2 = v[sbc] - v[sad]
    d3 = v[scd] - v[sab]
    wc = (d1 - d2) / 2
    wb = (d3 - d2) / 2
    wa = d1 + wb - wc
    wd = Fraction(0)
    w_inf = max(abs(wa), abs(wb), abs(wc))
    W = 1 + nu.spread_of_values() + 6 * w_inf
    w = [Fraction(0)] * nu.matroid.n
    quad = set(sym.quad())
    for e in range(nu.matroid.n):
        if (sym.s_mask >> e) & 1:
            w[e] = -W
        elif e not in quad:
            w[e] = W
    w[sym.a], w[sym.b], w[sym.c], w[sym.d] = wa, wb, wc, wd
    return w


def smooth_decompose(nu: Valuation):
    """Greedy spike peeling on a uniform ambient matroid.

    Repeatedly subtracts the maximal positive spike lambda*1_B (bases in
    colex order) while the remainder stays a valuation; returns the smooth
    remainder and the peel list [(basis mask, lambda)].
    """
    M = nu.matroid
    if not M.is_uniform():
        raise ValuationInputError("spike peeling is defined on uniform matroids only")
    vals = dict(nu.values)
    peels = []
    changed = True
    while changed:
        changed = False
        for b in sorted(vals):
            lam = _max_spike_height(M, vals, b)
            if lam > 0:
                vals[b] -= lam
                peels.append((b, lam))
                changed = True
    return Valuation(M, vals), peels


def _max_spike_height(M: Matroid, vals: dict, b: int) -> Fraction:
    """Largest lambda with vals - lambda*1_b still a valuation (uniform M)."""
    n = M.n
    rest = [e for e in range(n) if not (b >> e) & 1]
    best = None
    for x, y in combinations(mask_to_set(b), 2):
        s_mask = b ^ (1 << x) ^ (1 << y)
        for c, d in combinations(rest, 2):
            p0 = vals[b] + vals[s_mask | 1 << c | 1 << d]
            p1 = vals[s_mask | 1 << x | 1 << c] + vals[s_mask | 1 << y | 1 << d]
            p2 = vals[s_mask | 1 << x | 1 << d] + vals[s_mask | 1 << y | 1 << c]
            slack = p0 - p1 if p1 == p2 else Fraction(0)
            if best is None or slack < best:
                best = slack
            if best == 0:
                return Fraction(0)
    return best if best is not None else Fraction(0)

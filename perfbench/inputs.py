"""Seeded input generators for the benchmark workloads.

Everything here is computed from first principles, without importing
dressian: a sparse paving valuation from its non-bases, a tree metric from
a tree the generator grows itself, a Stiefel valuation from tropical
minors of a seeded matrix.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations


def key(subset) -> str:
    return ",".join(str(e) for e in sorted(subset))


def valuation_doc(n: int, r: int, values: dict) -> dict:
    """The CLI's valuation document on U(r, n); `values` maps r-tuples to
    Fractions."""
    bases = [list(b) for b in combinations(range(n), r)]
    return {
        "matroid": {"n": n, "r": r, "bases": bases},
        "values": {key(b): str(v) for b, v in values.items()},
    }


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def seeded_rational(rnd, lo: int, hi: int, dens=(2, 3, 4, 5, 6, 7)) -> Fraction:
    """A rational in [lo, hi] whose denominator is drawn from `dens`."""
    den = rnd.choice(dens)
    return Fraction(rnd.randint(lo * den, hi * den), den)


def shifted(values: dict, w) -> dict:
    """nu^w(B) = nu(B) + sum of w over B."""
    return {b: v + sum(w[e] for e in b) for b, v in values.items()}


# ---------------------------------------------------------------------------
# Sparse paving valuations


def modular_nonbases(n: int, r: int, k: int) -> list[tuple]:
    """The r-sets whose element sum is k mod n.  Two such sets never share
    r - 1 elements, so they are the non-bases of a sparse paving matroid N,
    each its own component in the Johnson graph: c(N) is their number."""
    return [b for b in combinations(range(n), r) if sum(b) % n == k]


def sparse_paving_values(n: int, r: int, nonbases) -> dict:
    """nu_N(B) = r - rank_N(B): 1 on the circuit-hyperplanes, 0 elsewhere."""
    nb = set(nonbases)
    return {b: Fraction(1 if b in nb else 0) for b in combinations(range(n), r)}


# ---------------------------------------------------------------------------
# Rank-2 tree metrics


class BinaryTree:
    """A binary tree on leaves 0..n-1 grown by seeded edge subdivision, with
    positive rational edge lengths.  Internal vertices are n, n+1, ..."""

    def __init__(self, n: int, rnd):
        self.n = n
        self.adj = {0: {}, 1: {}}
        self._link(0, 1, seeded_rational(rnd, 1, 6))
        nxt = n
        for leaf in range(2, n):
            u = rnd.choice(sorted(self.adj))
            v = rnd.choice(sorted(self.adj[u]))
            length = self.adj[u].pop(v)
            del self.adj[v][u]
            mid, nxt = nxt, nxt + 1
            self.adj[mid] = {}
            cut = Fraction(rnd.randint(1, 9), 10)
            self._link(u, mid, length * cut)
            self._link(mid, v, length * (1 - cut))
            self.adj[leaf] = {}
            self._link(mid, leaf, seeded_rational(rnd, 1, 6))

    def _link(self, u, v, length):
        self.adj[u][v] = length
        self.adj[v][u] = length

    def internal_count(self) -> int:
        return len(self.adj) - self.n

    def _reach(self, start, avoid):
        """(distance, set of leaves) over the component of `start` without
        the vertex `avoid`."""
        dist = {start: Fraction(0)}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, w in self.adj[x].items():
                if y != avoid and y not in dist:
                    dist[y] = dist[x] + w
                    stack.append(y)
        return dist, {v for v in dist if v < self.n}

    def distances(self) -> dict:
        out = {}
        for a in range(self.n):
            dist, _ = self._reach(a, None)
            for b in range(a + 1, self.n):
                out[(a, b)] = dist[b]
        return out

    def splits(self) -> list:
        """Internal-edge splits in the CLI's `tree-decode` layout: each split
        as its two sorted sides in order, the list sorted."""
        out = set()
        for u in self.adj:
            for v in self.adj[u]:
                if u >= self.n and v >= self.n:
                    _, side = self._reach(v, u)
                    other = set(range(self.n)) - side
                    out.add(tuple(sorted((tuple(sorted(side)), tuple(sorted(other))))))
        return sorted([list(a), list(b)] for a, b in out)

    def valuation(self) -> dict:
        """nu = -d: the negated tree metric is a rank-2 valuation."""
        return {pair: -d for pair, d in self.distances().items()}


# ---------------------------------------------------------------------------
# Stiefel valuations


def stiefel_values(r: int, n: int, rnd) -> dict:
    """Tropical maximal minors of a seeded r x n rational matrix.

    p(B) = min over bijections of the summed entries.  Lifting the matrix
    to Puiseux series with generic leading coefficients gives a point of
    the Grassmannian whose minors have exactly these valuations, so p
    satisfies the three-term condition whatever the entries are.
    """
    A = [[seeded_rational(rnd, -6, 6) for _ in range(n)] for _ in range(r)]
    perms = list(permutations(range(r)))
    return {
        b: min(sum(A[i][b[p[i]]] for i in range(r)) for p in perms)
        for b in combinations(range(n), r)
    }


def location_sums(values: dict, r: int, n: int):
    """Yield (S, (a, b, c, d), (P_ab|cd, P_ac|bd, P_ad|bc)) at every
    location of the three-term condition on U(r, n)."""
    for s in combinations(range(n), r - 2):
        rest = [e for e in range(n) if e not in s]
        for a, b, c, d in combinations(rest, 4):
            v = lambda x, y: values[tuple(sorted(s + (x, y)))]
            yield s, (a, b, c, d), (v(a, b) + v(c, d), v(a, c) + v(b, d),
                                    v(a, d) + v(b, c))


def broken_copy(values: dict, r: int, n: int, rnd) -> dict:
    """A copy that fails the three-term condition at one seeded location.

    At a valid location the minimum pairing sum is attained twice; lowering
    one basis of a minimal pairing makes that pairing the unique minimum.
    """
    sites = list(location_sums(values, r, n))
    s, (a, b, c, d), sums = rnd.choice(sites)
    pairings = ((a, b), (a, c), (a, d))
    x, y = pairings[sums.index(min(sums))]
    out = dict(values)
    target = tuple(sorted(s + (x, y)))
    out[target] -= Fraction(1, rnd.randint(7, 13))
    return out


def type_keys(values: dict, r: int, n: int) -> list[str]:
    """Sorted keys of the symbols in the combinatorial type, for a valuation
    on U(r, n) with every value finite.

    The symbol (S, ab|cd) asserts nu(Sac) + nu(Sbd) = nu(Sad) + nu(Sbc): the
    two pairings other than ab|cd tie.  Keys follow the CLI's layout
    "(S|ab.cd)".
    """
    out = []
    for s, (a, b, c, d), (p_ab, p_ac, p_ad) in location_sums(values, r, n):
        head = "(" + ",".join(map(str, s)) + "|"
        if p_ac == p_ad:
            out.append(f"{head}{a}{b}.{c}{d})")
        if p_ab == p_ad:
            out.append(f"{head}{a}{c}.{b}{d})")
        if p_ab == p_ac:
            out.append(f"{head}{a}{d}.{b}{c})")
    return sorted(out)

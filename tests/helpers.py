"""Shared instance generators for the test suite.

Everything here is deterministic given an explicit random.Random, and the
generators are intentionally independent of the library internals they
feed (tree metrics come from a direct distance computation, not from the
decoder; random matroids come from stable-set sampling, not from the
census code path).
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from dressian import (
    INF,
    Matroid,
    set_to_mask,
    Valuation,
    johnson_neighbors,
    r_subset_masks,
    shift,
    valuation_from_matroid,
)


def rank2_nonuniform(n, nonbases):
    full = set(r_subset_masks(n, 2))
    return Matroid(n, 2, full - {set_to_mask(b) for b in nonbases})


U24 = Matroid.uniform(2, 4)
U25 = Matroid.uniform(2, 5)
U26 = Matroid.uniform(2, 6)
U35 = Matroid.uniform(3, 5)
U36 = Matroid.uniform(3, 6)
# the three sparse paving classes on 5 elements in rank 2, by non-basis count
N1 = U25
N2 = rank2_nonuniform(5, [(0, 1)])
N3 = rank2_nonuniform(5, [(0, 1), (2, 3)])
N26 = rank2_nonuniform(6, [(0, 1), (2, 3), (4, 5)])

CORPUS = [U24, U25, U26, U35, U36, N2, N3, N26]


def random_stable_set(r, n, rnd, tries=12):
    """A random stable set of J(r, n), possibly empty."""
    verts = r_subset_masks(n, r)
    chosen = []
    blocked = set()
    for _ in range(rnd.randrange(tries)):
        v = rnd.choice(verts)
        if v in blocked:
            continue
        chosen.append(v)
        blocked |= set(johnson_neighbors(n, v)) | {v}
    return chosen


def random_sparse_paving(r, n, rnd):
    full = set(r_subset_masks(n, r))
    return Matroid(n, r, full - set(random_stable_set(r, n, rnd)))


def random_rational(rnd, lo=-6, hi=6, den=4):
    return Fraction(rnd.randint(lo * den, hi * den), den)


def random_shift_vector(n, rnd):
    return [random_rational(rnd) for _ in range(n)]


def random_valuation(M, rnd):
    """A random member of the Dressian of M: scaled matroid valuation + shift.

    For non-uniform M the sparse-paving part degenerates to the zero
    valuation, which is still a valid (and shifted) instance.
    """
    if M.is_uniform():
        N = random_sparse_paving(M.r, M.n, rnd)
        lam = Fraction(rnd.randint(0, 8), rnd.randint(1, 4))
        base = valuation_from_matroid(N)
        vals = {b: lam * base.values[b] for b in M.bases}
    else:
        vals = {b: Fraction(0) for b in M.bases}
    return shift(Valuation(M, vals), random_shift_vector(M.n, rnd))


def random_tree_metric_valuation(n, rnd):
    """nu = -d for a random binary-tree metric d on n leaves.

    The distances are computed directly on the generated tree, so this is
    an oracle-side construction independent of decode_tree.
    """
    adj = {0: {}, 1: {}}
    ell = random_rational(rnd, 1, 5)
    adj[0][1] = ell
    adj[1][0] = ell
    next_id = n
    for leaf in range(2, n):
        u = rnd.choice([v for v in adj if v < leaf or v >= n])
        v = rnd.choice(list(adj[u]))
        mid = next_id
        next_id += 1
        split = Fraction(adj[u][v], 2)
        for a, b in ((u, v), (v, u)):
            del adj[a][b]
        adj[mid] = {u: split, v: split}
        adj[u][mid] = split
        adj[v][mid] = split
        pend = random_rational(rnd, 1, 5)
        adj[leaf] = {mid: pend}
        adj[mid][leaf] = pend

    def dist(a, b):
        seen = {a: Fraction(0)}
        stack = [a]
        while stack:
            x = stack.pop()
            for y, w in adj[x].items():
                if y not in seen:
                    seen[y] = seen[x] + w
                    stack.append(y)
        return seen[b]

    vals = {set_to_mask((i, j)): -dist(i, j) for i, j in combinations(range(n), 2)}
    return Valuation(Matroid.uniform(2, n), vals)


def perturbed_values(nu, rnd):
    """A value map near nu that usually violates the exchange axiom."""
    vals = dict(nu.values)
    b = rnd.choice(sorted(vals))
    vals[b] += Fraction(rnd.choice([1, -1]), rnd.randint(7, 13))
    return vals


def stiefel_valuation(r, n, rnd, holes=0):
    """Tropical maximal minors of a random r x n rational matrix.

    nu(B) is the least sum of entries over bijections from the rows to B;
    `holes` entries are INF (the tropical zero), and a subset whose every
    bijection meets one is a non-basis.  Lifting to Puiseux series with
    generic leading coefficients realizes nu, so it is a valuation of the
    transversal matroid of its finite support.
    """
    A = [[random_rational(rnd, -6, 6, den=3) for _ in range(n)] for _ in range(r)]
    cells = [(i, j) for i in range(r) for j in range(n)]
    for i, j in rnd.sample(cells, holes):
        A[i][j] = INF
    vals = {}
    for b in combinations(range(n), r):
        sums = [
            sum(A[i][b[p[i]]] for i in range(r))
            for p in permutations(range(r))
            if all(A[i][b[p[i]]] is not INF for i in range(r))
        ]
        if sums:
            vals[set_to_mask(b)] = min(sums)
    return Valuation(Matroid(n, r, frozenset(vals)), vals)

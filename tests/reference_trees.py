"""Earlier forms of three rank-2 routines, kept as test oracles.

`enumerate_rank2_cells` is the frozenset split-system DFS used before the
bitmask enumerator.  Candidate sides are frozensets of class indices; every
step tests the next candidate against every chosen split and lifts each
chosen side to its element split anew. The cells come out in the same
preorder as the library's.

`rank2_cell_dims` is the count per dimension used before the closed-form
recurrence: a recursion over bitmasks of compatible candidate splits,
memoized on the set of candidates still allowed.  It counts the same split
systems the enumerators list, but never builds one.

Both oracles give a k-split system dimension n + k, except the one cell of
two parallel classes: a single edge, with no internal vertex, of dimension
n - 1 (nu(ac) = f(a) + g(c) across the classes has n - 1 free parameters).

`confirmed_class_splits` is the split finder `decode_tree` used before it
read splits off the distances to class 0: it tests every one of the
2^(t-1) bipartitions of the t classes against every quartet across it.

`decode_tree` and `tree_to_valuation` are the decoder and encoder used
before edge lengths had a closed form.  The decoder builds the same
skeleton from the quartet splits (or from splits it is given), then solves
one Fraction equation per basis pair, length sum on the path = nu, with
`solve_linear_system`, which pins free lengths to 0.  The encoder sums the
Fraction lengths along `path` for each basis pair.

`path` and `path_length` are the vertex path between two vertices of a
`MetricTree` and the sum of its lengths, found by one search per call.
"""

from fractions import Fraction
from itertools import combinations

from dressian import (
    InvariantViolation,
    Matroid,
    MetricTree,
    TreeInputError,
    TreeTopology,
    Valuation,
    parallel_classes,
    set_to_mask,
    solve_linear_system,
)


def path(T: MetricTree, a, b) -> list:
    """Vertex path from a to b (tree: unique)."""
    prev = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            break
        for v in T.adj[u]:
            if v not in prev:
                prev[v] = u
                stack.append(v)
    if b not in prev:
        raise TreeInputError("tree is not connected")
    out = [b]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return out[::-1]


def path_length(T: MetricTree, a, b) -> Fraction:
    p = path(T, a, b)
    return sum((T.lengths[frozenset((u, v))] for u, v in zip(p, p[1:])), Fraction(0))


def confirmed_class_splits(nu: Valuation, classes) -> list[frozenset]:
    """Splits of the class set supported by every representative quartet.

    A bipartition is an edge of the tree iff each quartet taken two-and-two
    across it makes the within-side pairing the strictly larger sum.
    """
    reps = [cls[0] for cls in classes]
    t = len(reps)
    val = lambda a, b: nu.values[set_to_mask((a, b))]
    splits = []
    for bits in range(1, 1 << (t - 1)):  # sides as subsets not containing rep 0
        side = [i for i in range(1, t) if (bits >> (i - 1)) & 1]
        other = [i for i in range(t) if i not in side]
        if len(side) < 2 or len(other) < 2:
            continue
        ok = True
        for i, j in combinations(side, 2):
            for k, l in combinations(other, 2):
                a, b, c, d = reps[i], reps[j], reps[k], reps[l]
                s_own = val(a, b) + val(c, d)
                s_x1 = val(a, c) + val(b, d)
                s_x2 = val(a, d) + val(b, c)
                if not (s_x1 == s_x2 and s_own > s_x1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            splits.append(frozenset(side))
    return splits


def enumerate_rank2_cells(M: Matroid) -> list[tuple[TreeTopology, int]]:
    classes = parallel_classes(M)
    t = len(classes)
    candidates = []
    for bits in range(1, 1 << (t - 1)):
        side = frozenset(i for i in range(1, t) if (bits >> (i - 1)) & 1)
        if len(side) < 2 or t - len(side) < 2:
            continue
        candidates.append(side)
    candidates.sort(key=sorted)

    def compatible(a, b):
        return not (a & b) or a <= b or b <= a

    results = []

    def lift(side) -> frozenset:
        elems = frozenset(e for i in side for e in classes[i])
        rest = frozenset(range(M.n)) - elems
        return frozenset((elems, rest))

    def extend(start, chosen):
        results.append(tuple(chosen))
        for i in range(start, len(candidates)):
            if all(compatible(candidates[i], c) for c in chosen):
                chosen.append(candidates[i])
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    out = []
    for system in results:
        topo = TreeTopology(frozenset(lift(s) for s in system))
        out.append((topo, M.n - (t == 2) + len(system)))
    return out


def rank2_cell_dims(M: Matroid) -> dict[int, int]:
    """{n + k: k-split systems} (n - 1 for two classes): ``counts(allowed)[k]``
    is the number of k-split systems drawn from the candidates in
    ``allowed``, the empty system plus, for each candidate i in ``allowed``,
    i together with a system from the later candidates in ``allowed``
    compatible with i."""
    t = len(parallel_classes(M))
    # candidate sides as masks over the classes, avoiding class 0
    masks = [bits << 1 for bits in range(1, 1 << (t - 1)) if 2 <= bits.bit_count() <= t - 2]
    compat = []
    for i, a in enumerate(masks):
        later = 0
        for j in range(i + 1, len(masks)):
            common = a & masks[j]
            if common in (0, a, masks[j]):
                later |= 1 << j
        compat.append(later)
    memo = {}

    def counts(allowed):
        if allowed not in memo:
            c = [1]
            rest = allowed
            while rest:
                low = rest & -rest
                rest ^= low
                sub = counts(allowed & compat[low.bit_length() - 1])
                c.extend([0] * (len(sub) + 1 - len(c)))
                for k, x in enumerate(sub, 1):
                    c[k] += x
            memo[allowed] = c
        return memo[allowed]

    return {M.n - (t == 2) + k: x for k, x in enumerate(counts((1 << len(masks)) - 1))}


def decode_tree(nu: Valuation, splits=None) -> MetricTree:
    """The tree of a rank-2 valuation, lengths by one linear solve.

    `splits` are the class splits as sides avoiding class 0, ascending by
    bitmask; by default the quartet test finds them."""
    M = nu.matroid
    classes = parallel_classes(M)
    if splits is None:
        splits = confirmed_class_splits(nu, classes)
    clusters = sorted(splits, key=len, reverse=True)
    n = M.n
    root = n
    node_of_cluster = {cl: n + 1 + i for i, cl in enumerate(clusters)}
    adj = {v: set() for v in (root, *node_of_cluster.values())}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for i, cl in enumerate(clusters):
        link(node_of_cluster[cl],
             next((node_of_cluster[c] for c in reversed(clusters[:i]) if cl < c), root))
    for ci, members in enumerate(classes):
        host = next((node_of_cluster[c] for c in reversed(clusters) if ci in c), root)
        for e in members:
            link(e, host)
    return solve_lengths(nu, MetricTree(n, adj, {}))


def solve_lengths(nu: Valuation, skeleton: MetricTree) -> MetricTree:
    edges = []
    for u, nbrs in skeleton.adj.items():
        for v in nbrs:
            if u < v:
                edges.append(frozenset((u, v)))
    equations = []
    for m, v in nu.values.items():
        a, b = sorted(e for e in range(skeleton.n) if (m >> e) & 1)
        p = path(skeleton, a, b)
        coeffs: dict = {}
        for x, y in zip(p, p[1:]):
            edge = frozenset((x, y))
            coeffs[edge] = coeffs.get(edge, Fraction(0)) + 1
        equations.append((coeffs, v))
    sol = solve_linear_system(equations, edges)
    if sol is None:
        raise InvariantViolation("valuation admits no consistent edge lengths")
    return MetricTree(skeleton.n, skeleton.adj, sol)


def tree_to_valuation(T: MetricTree, M: Matroid) -> Valuation:
    if sorted(v for v in T.adj if v < T.n) != list(range(M.n)):
        raise TreeInputError("tree leaves do not match the ground set")
    vals = {}
    for m in M.bases:
        a, b = (e for e in range(M.n) if (m >> e) & 1)
        vals[m] = path_length(T, a, b)
    for a, b in combinations(range(M.n), 2):
        if set_to_mask((a, b)) not in M.bases:
            if not (T.adj[a] & T.adj[b]):
                raise TreeInputError(
                    f"non-basis pair {{{a},{b}}} lacks a common neighbor"
                )
    return Valuation(M, vals)

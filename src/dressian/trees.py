"""Metric trees for rank-2 valuations: decode, encode, topology census.

Sign convention: the negation of a rank-2 valuation is a classical tree
metric (four-point condition, maximum attained twice), so split extraction
picks, per quartet, the pairing whose valuation sum is strictly LARGER than
the tied pair.  Stored edge lengths satisfy nu(ab) = sum of lengths on the
a-b path literally, which makes internal lengths negative; the positive
"metric" reading is the negation and both are surfaced in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .matroid import InvariantViolation, Matroid, MatroidInputError, set_to_mask
from .linear import solve_linear_system
from .rationals import format_rational, parse_rational
from .valuation import Valuation, ValuationInputError


class TreeInputError(ValueError):
    """Malformed tree or tree incompatible with the matroid."""


@dataclass
class MetricTree:
    """Tree with leaf vertices 0..n-1 (the ground set) and internal ids >= n."""

    n: int
    adj: dict
    lengths: dict  # frozenset({u, v}) -> Fraction

    def __post_init__(self):
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u not in self.adj.get(v, ()):  # pragma: no cover - guard
                    raise TreeInputError("adjacency is not symmetric")

    def vertices(self):
        return list(self.adj)

    def internal_vertices(self):
        return [v for v in self.adj if v >= self.n]

    def neighbors(self, v):
        return self.adj[v]

    def path(self, a, b):
        """Vertex path from a to b (tree: unique)."""
        prev = {a: None}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for v in self.adj[u]:
                if v not in prev:
                    prev[v] = u
                    stack.append(v)
        if b not in prev:
            raise TreeInputError("tree is not connected")
        out = [b]
        while prev[out[-1]] is not None:
            out.append(prev[out[-1]])
        return out[::-1]

    def path_length(self, a, b) -> Fraction:
        p = self.path(a, b)
        return sum(
            (self.lengths[frozenset((u, v))] for u, v in zip(p, p[1:])),
            Fraction(0),
        )

    def splits(self) -> frozenset:
        """Leaf bipartitions induced by internal edges (both sides >= 2)."""
        out = set()
        for edge in self.lengths:
            u, v = tuple(edge)
            side = self._leaves_beyond(u, v)
            other = frozenset(range(self.n)) - side
            if len(side) >= 2 and len(other) >= 2:
                out.add(frozenset((side, other)))
        return frozenset(out)

    def _leaves_beyond(self, u, v) -> frozenset:
        """Leaves in the component of v after removing edge (u, v)."""
        seen = {u, v}
        stack = [v]
        leaves = set()
        while stack:
            x = stack.pop()
            if x < self.n:
                leaves.add(x)
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(leaves)

    def topology(self) -> "TreeTopology":
        return TreeTopology(self.splits())

    # -- serialization ----------------------------------------------------

    def to_newick(self) -> str:
        root = max(self.adj) if self.internal_vertices() else 0
        return self._newick_of(root, None) + ";"

    def _newick_of(self, v, parent) -> str:
        children = [u for u in self.adj[v] if u != parent]
        if not children:
            label = str(v)
        else:
            label = "(" + ",".join(self._newick_of(u, v) for u in children) + ")"
        if parent is None:
            return label
        return label + ":" + format_rational(self.lengths[frozenset((v, parent))])

    @classmethod
    def from_newick(cls, text: str, n: int | None = None) -> "MetricTree":
        text = text.strip().rstrip(";")
        adj: dict = {}
        internal_nodes = []

        def parse(s, i):
            if s[i] == "(":
                node = ("internal", len(internal_nodes))
                internal_nodes.append(node)
                adj.setdefault(node, set())
                i += 1
                while True:
                    child, i = parse(s, i)
                    adj[node].add(child)
                    adj.setdefault(child, set()).add(node)
                    if s[i] == ",":
                        i += 1
                        continue
                    if s[i] == ")":
                        i += 1
                        break
                return _with_length(node, s, i)
            j = i
            while j < len(s) and s[j] not in ",():;":
                j += 1
            leaf = int(s[i:j])
            adj.setdefault(leaf, set())
            return _with_length(leaf, s, j)

        raw_lengths = {}

        def _with_length(node, s, i):
            if i < len(s) and s[i] == ":":
                j = i + 1
                while j < len(s) and s[j] not in ",();":
                    j += 1
                raw_lengths[node] = parse_rational(s[i + 1 : j])
                return node, j
            return node, i

        root, i = parse(text, 0)
        if i != len(text):
            raise TreeInputError(f"trailing characters in tree string: {text[i:]!r}")
        leaves = [v for v in adj if not isinstance(v, tuple)]
        if n is None:
            n = 1 + max(leaves) if leaves else 0
        relabel = {}
        nxt = n
        for v in adj:
            if isinstance(v, tuple):
                relabel[v] = nxt
                nxt += 1
            else:
                relabel[v] = v
        new_adj = {relabel[v]: {relabel[u] for u in nbrs} for v, nbrs in adj.items()}
        # every non-root node carries the length of the edge to its parent
        new_lengths = {}

        def assign(v, parent):
            for u in adj[v]:
                if u != parent:
                    if u not in raw_lengths:
                        raise TreeInputError(f"edge into {u!r} has no length")
                    new_lengths[frozenset((relabel[v], relabel[u]))] = raw_lengths[u]
                    assign(u, v)

        assign(root, None)
        return cls(n, new_adj, new_lengths)


@dataclass(frozen=True)
class TreeTopology:
    """Canonical leaf-labeled shape: the set of nontrivial splits."""

    splits: frozenset

    def key(self) -> str:
        parts = []
        for split in self.splits:
            sides = sorted(tuple(sorted(s)) for s in split)
            parts.append("|".join(",".join(map(str, s)) for s in sides))
        return ";".join(sorted(parts)) or "star"


# ---------------------------------------------------------------------------
# Parallel classes and split extraction


def parallel_classes(M: Matroid) -> list[list[int]]:
    """Maximal sets of mutually parallel elements (singletons included)."""
    if M.r != 2:
        raise MatroidInputError("parallel classes defined here for rank 2 only")
    for e in range(M.n):
        if not any((b >> e) & 1 for b in M.bases):
            raise MatroidInputError(f"element {e} is a loop; no tree model")
    parent = list(range(M.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combinations(range(M.n), 2):
        if set_to_mask((a, b)) not in M.bases:
            parent[find(a)] = find(b)
    groups: dict = {}
    for e in range(M.n):
        groups.setdefault(find(e), []).append(e)
    return sorted(groups.values())


def _confirmed_class_splits(nu: Valuation, classes) -> list[frozenset]:
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


def decode_tree(nu: Valuation) -> MetricTree:
    """Tree (T, lengths) with nu(ab) equal to the a-b path length for every
    basis pair; non-basis pairs end up sharing a neighbor."""
    M = nu.matroid
    if M.r != 2:
        raise ValuationInputError("tree decoding requires a rank-2 matroid")
    classes = parallel_classes(M)
    class_of = {}
    for i, cls in enumerate(classes):
        for e in cls:
            class_of[e] = i
    splits = _confirmed_class_splits(nu, classes)

    # laminar clusters: split sides avoiding the class of element 0
    clusters = sorted(splits, key=len, reverse=True)
    n = M.n
    root = n
    node_of_cluster = {}
    adj = {root: set()}
    next_id = n + 1
    for cl in clusters:
        node_of_cluster[cl] = next_id
        adj[next_id] = set()
        next_id += 1
    for i, cl in enumerate(clusters):
        best = None
        for j in range(i):
            if cl < clusters[j] and (best is None or clusters[j] < best):
                best = clusters[j]
        parent = root if best is None else node_of_cluster[best]
        _link(adj, node_of_cluster[cl], parent)
    # attach each class (hence each leaf) to the smallest cluster holding it
    for ci in range(len(classes)):
        host = root
        best_cl = None
        for cl in clusters:
            if ci in cl and (best_cl is None or cl < best_cl):
                best_cl = cl
                host = node_of_cluster[cl]
        for e in classes[ci]:
            adj[e] = set()
            _link(adj, e, host)

    tree = _solve_lengths(nu, MetricTree(n, adj, {}), class_of)
    return tree


def _link(adj, u, v):
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)


def _solve_lengths(nu: Valuation, skeleton: MetricTree, class_of) -> MetricTree:
    edges = []
    for u, nbrs in skeleton.adj.items():
        for v in nbrs:
            if u < v:
                edges.append(frozenset((u, v)))
    equations = []
    for m, v in nu.values.items():
        a, b = sorted(e for e in range(skeleton.n) if (m >> e) & 1)
        p = skeleton.path(a, b)
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
    """Path-length valuation of M read off a metric tree with leaf set E."""
    if M.r != 2:
        raise MatroidInputError("tree valuations are rank-2 only")
    if sorted(v for v in T.adj if v < T.n) != list(range(M.n)):
        raise TreeInputError("tree leaves do not match the ground set")
    vals = {}
    for m in M.bases:
        a, b = (e for e in range(M.n) if (m >> e) & 1)
        vals[m] = T.path_length(a, b)
    for a, b in combinations(range(M.n), 2):
        if set_to_mask((a, b)) not in M.bases:
            if not (T.adj[a] & T.adj[b]):
                raise TreeInputError(
                    f"non-basis pair {{{a},{b}}} lacks a common neighbor"
                )
    return Valuation(M, vals)


# ---------------------------------------------------------------------------
# Cell enumeration


def enumerate_rank2_cells(M: Matroid) -> list[tuple[TreeTopology, int]]:
    """All cells of the rank-2 Dressian of M as (topology, dimension).

    Cells correspond to pairwise-compatible systems of nontrivial splits
    that neither separate a parallel pair nor cut off a single parallel
    class (the latter edge length is absorbed by leaf edges and does not
    change the combinatorial type).  Each cell has dimension n + #splits.
    """
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
        out.append((topo, M.n + len(system)))
    return out

"""Metric trees for rank-2 valuations: decode, encode, and the cell census.

The cells of a rank-2 Dressian are tree topologies on the parallel classes;
``enumerate_rank2_cells`` lists them and ``rank2_cell_dims`` counts them per
dimension in closed form, by the recurrence for trees by number of internal
vertices, without building any.

Sign convention: the negation of a rank-2 valuation is a classical tree
metric (four-point condition, maximum attained twice), so split extraction
picks, per quartet, the pairing whose valuation sum is strictly LARGER than
the tied pair.  Stored edge lengths satisfy nu(ab) = sum of lengths on the
a-b path literally, which makes internal lengths negative; the positive
"metric" reading is the negation and both are surfaced in reports.

Decoding reads the integer view nu*D and solves no linear system: one
matrix g over the classes gives both the splits and every edge length, in
units of 1/(2D).  One walk from each leaf gives all path sums on integer
lengths, which the decoder checks against every basis pair and the
encoder, summing over the lengths' common denominator, returns as values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter

from . import valuation
from .matroid import (
    DESK_SCALE_RANK2_CLASSES,
    InputError,
    InvariantViolation,
    Matroid,
    MatroidInputError,
    ScaleLimitError,
    _Frozen,
    mask_to_set,
    set_to_mask,
)
from .rationals import INF, format_rational, integer_vector, parse_rational


class TreeInputError(InputError):
    """Malformed tree or tree incompatible with the matroid."""


class MetricTree:
    """Tree with leaf vertices 0..n-1 (the ground set) and internal ids >= n."""

    __slots__ = ("n", "adj", "lengths")

    def __init__(self, n: int, adj: dict, lengths: dict):
        self.n = n
        self.adj = adj
        self.lengths = lengths  # frozenset({u, v}) -> Fraction
        for u, nbrs in adj.items():
            for v in nbrs:
                if u not in self.adj.get(v, ()):
                    raise TreeInputError("adjacency is not symmetric")

    def internal_vertices(self):
        return [v for v in self.adj if v >= self.n]

    def splits(self) -> frozenset:
        """Leaf bipartitions induced by internal edges (both sides >= 2).

        One search from leaf 0 records each vertex's parent; in reverse
        discovery order each vertex adds the leaves below it to its
        parent's, so every edge's side away from leaf 0 is known at once.
        """
        parent = {0: None}
        order = [0]
        for u in order:  # grows while it is walked
            for v in self.adj[u]:
                if v not in parent:
                    parent[v] = u
                    order.append(v)
        below = {v: 1 << v if v < self.n else 0 for v in order}
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v]
        full = (1 << self.n) - 1
        return frozenset(
            frozenset((frozenset(mask_to_set(side)), frozenset(mask_to_set(full ^ side))))
            for side in (below[v] for v in order[1:])
            if 2 <= side.bit_count() <= self.n - 2)

    def topology(self) -> "TreeTopology":
        return TreeTopology(self.splits())

    # -- serialization ----------------------------------------------------

    def to_newick(self) -> str:
        root = max(self.adj) if self.internal_vertices() else 0
        parts = []
        # items are vertices to write, as (vertex, parent), or literal text
        stack = [(root, None)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            v, parent = item
            suffix = ""
            if parent is not None:
                suffix = ":" + format_rational(self.lengths[frozenset((v, parent))])
            children = [u for u in self.adj[v] if u != parent]
            if not children:
                parts.append(str(v) + suffix)
                continue
            parts.append("(")
            stack.append(")" + suffix)
            for k, u in enumerate(reversed(children)):
                if k:
                    stack.append(",")
                stack.append((u, v))
        return "".join(parts) + ";"

    @classmethod
    def from_newick(cls, text: str, n: int | None = None) -> "MetricTree":
        """Parse a newick string whose leaves are exactly 0..n-1.

        n defaults to one more than the largest leaf label.  Internal
        vertices are numbered n, n+1, ... in the order their "(" appears.
        Every edge needs a length; a length on the root is ignored.  The
        parser keeps its open parentheses on an explicit stack, so nesting
        depth is not limited by recursion, and every malformed string
        raises TreeInputError.
        """
        tokens = [tok.strip() for tok in _NEWICK_TOKEN.findall(text.strip().rstrip(";"))]
        tokens = [tok for tok in tokens if tok]
        if not tokens:
            raise TreeInputError("empty tree string")
        parent = []  # per vertex, in order of appearance: parent index or -1
        label = []  # leaf label, or None for an internal vertex
        length = []  # length of the edge to the parent, or None
        open_vertices = []  # internal vertices whose ")" has not come yet
        expect_vertex = True
        last = -1  # the vertex completed most recently
        k = 0
        while k < len(tokens):
            tok = tokens[k]
            k += 1
            if expect_vertex:
                if tok in _NEWICK_PUNCT and tok != "(":
                    raise TreeInputError(f"expected a leaf or '(' but found {tok!r}")
                parent.append(open_vertices[-1] if open_vertices else -1)
                length.append(None)
                if tok == "(":
                    label.append(None)
                    open_vertices.append(len(parent) - 1)
                else:
                    label.append(_newick_leaf(tok))
                    expect_vertex = False
                    last = len(parent) - 1
            elif tok == ":":
                if k == len(tokens) or tokens[k] in _NEWICK_PUNCT:
                    raise TreeInputError("':' is not followed by an edge length")
                if length[last] is not None:
                    raise TreeInputError("an edge has two lengths")
                length[last] = _newick_length(tokens[k])
                k += 1
            elif tok == "," and open_vertices:
                expect_vertex = True
            elif tok == ")" and open_vertices:
                last = open_vertices.pop()
            else:
                raise TreeInputError(f"unexpected {tok!r} in tree string")
        if expect_vertex:
            raise TreeInputError("tree string ends where a leaf or '(' is expected")
        if open_vertices:
            raise TreeInputError(f"{len(open_vertices)} '(' left unclosed")

        leaves = [x for x in label if x is not None]
        seen = set()
        for x in leaves:
            if x in seen:
                raise TreeInputError(f"leaf {x} appears more than once")
            seen.add(x)
        if n is None:
            n = 1 + max(leaves)
        # distinct non-negative labels are 0..n-1 iff there are n of them below n
        if len(leaves) != n or max(leaves) >= n:
            raise TreeInputError(f"tree leaves are not exactly 0..{n - 1}")
        ids = []
        internal_id = n
        for x in label:
            if x is None:
                x = internal_id
                internal_id += 1
            ids.append(x)
        adj = {v: set() for v in ids}
        lengths = {}
        for v, p, ell, x in zip(ids, parent, length, label):
            if p < 0:
                continue
            if ell is None:
                where = f"leaf {x}" if x is not None else "an internal vertex"
                raise TreeInputError(f"edge into {where} has no length")
            adj[v].add(ids[p])
            adj[ids[p]].add(v)
            lengths[frozenset((v, ids[p]))] = ell
        return cls(n, adj, lengths)


_NEWICK_PUNCT = frozenset("(),:")
_NEWICK_TOKEN = re.compile(r"[(),:]|[^(),:]+")


def _newick_leaf(token: str) -> int:
    try:
        leaf = int(token)
    except ValueError:
        raise TreeInputError(f"leaf label {token!r} is not an integer") from None
    if leaf < 0:
        raise TreeInputError(f"leaf label {leaf} is negative")
    return leaf


def _newick_length(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError:
        raise TreeInputError(f"edge length {token!r} is not a rational number") from None


class TreeTopology(_Frozen):
    """Canonical leaf-labeled shape: the set of nontrivial splits."""

    __slots__ = ("splits",)

    def __init__(self, splits: frozenset):
        object.__setattr__(self, "splits", splits)


# ---------------------------------------------------------------------------
# Parallel classes and split extraction


def parallel_classes(M: Matroid) -> list[list[int]]:
    """Maximal sets of mutually parallel elements (singletons included),
    each ascending, in the order of their least elements."""
    if M.r != 2:
        raise MatroidInputError("parallel classes defined here for rank 2 only")
    for e in range(M.n):
        if not any((b >> e) & 1 for b in M.bases):
            raise MatroidInputError(f"element {e} is a loop; no tree model")
    # parallelism is an equivalence on non-loops: the class of its least
    # element a is a and every later b with ab not a basis
    classes = []
    placed = set()
    for a in range(M.n):
        if a not in placed:
            cls = [a, *(b for b in range(a + 1, M.n) if (1 << a | 1 << b) not in M.bases)]
            placed.update(cls)
            classes.append(cls)
    return classes


def _class_splits(nu: valuation.Valuation, classes) -> tuple[list[frozenset], dict]:
    """The splits of the tree on the classes, as sides avoiding class 0, and
    the cut value of each: the least g(i, j) over distinct i, j in the side.

    Rooted at class 0, g(i, j) = nu(ij) - nu(0i) - nu(0j) is twice the depth
    of the point where the paths to i and j part (the tree metric is -nu),
    so the classes below that point are i and every k with g(i, k) >= g(i, j).
    Each such cluster with 2 <= |side| <= t - 2 is a split; an internal edge
    of length 0 joins two depths into one, so its cluster does not appear.
    The cut value of the cluster is g(i, j): two of its members k, l have
    g(k, l) >= min(g(i, k), g(i, l)) >= g(i, j) by the three-point condition.
    With t >= 3 classes, `cut` also holds the set of all classes but 0, the
    cluster of the root.  g reads the integer view nu*D, with nu(0i) read
    once per class, and sides come out in ascending order of their bitmask
    over the classes.
    """
    reps = [cls[0] for cls in classes]
    t = len(reps)
    position, v = valuation.symbol_table(nu.matroid.n, 2).position, nu.scaled
    v0 = [0, *(v[position[1 << reps[0] | 1 << a]] for a in reps[1:])]  # nu(0i), i >= 1
    every = (1 << t) - 2
    cut = {}
    for i in range(1, t):
        # the side of (i, j) is i and a prefix of the row of i sorted by g
        # descending, through the last k tied with j; it is taken for j > i
        ai, base = 1 << reps[i], v0[i]
        row = sorted(((v[position[ai | 1 << reps[k]]] - base - v0[k], k)
                      for k in range(1, t) if k != i), reverse=True)
        side = 1 << i
        for g, group in groupby(row, key=itemgetter(0)):
            tied = [k for _, k in group]
            side |= sum(1 << k for k in tied)
            if max(tied) > i and 2 <= side.bit_count() <= t - 2 or side == every:
                cut[side] = g
    clusters = {side: frozenset(k for k in range(1, t) if side >> k & 1) for side in sorted(cut)}
    return ([cl for side, cl in clusters.items() if side != every],
            {cl: cut[side] for side, cl in clusters.items()})


def decode_tree(nu: valuation.Valuation) -> MetricTree:
    """Tree (T, lengths) with nu(ab) equal to the a-b path length for every
    basis pair; non-basis pairs end up sharing a neighbor.

    Every edge length comes from the split matrix g of ``_class_splits``,
    kept times 2D (D = nu.denominator) on the integer view.  With t >= 3
    classes each skeleton vertex x gets G(x), the least g(i, j) over
    distinct classes i, j below x (over all classes but 0 at the root), the
    cut value ``_class_splits`` returns for that cluster: a deeper parting
    point has a larger g, and at least two classes part at x, so G(x) is
    twice the depth of x below a0 in the tree metric -nu.
    With a0 and a1 the least elements of classes 0 and 1,
      - the internal edge from x up to p has length G(p) - G(x);
      - a leaf e of class k > 0 hanging from x has 2 nu(a0 e) + G(x);
      - a leaf e of class 0 has 2 nu(e a1) - 2 nu(a0 a1) - G(root).
    With t = 2 only sums across the classes are fixed; G(root) =
    -2 nu(a0 z) pins the last element z of class 1 to length 0.  Every
    pair read here is one element from each of two distinct classes, hence
    a basis.  The path sums are checked against every basis pair.
    """
    M = nu.matroid
    if M.r != 2:
        raise valuation.ValuationInputError("tree decoding requires a rank-2 matroid")
    classes = parallel_classes(M)
    splits, cut = _class_splits(nu, classes)
    n = M.n
    table = valuation.symbol_table(n, 2)
    val = lambda a, b: nu.scaled[table.position[1 << a | 1 << b]]
    a0, a1 = classes[0][0], classes[1][0]

    # laminar clusters: split sides avoiding the class of element 0
    clusters = sorted(splits, key=len, reverse=True)
    root = n
    node_of_cluster = {cl: n + 1 + i for i, cl in enumerate(clusters)}
    adj = {v: set() for v in (root, *node_of_cluster.values())}
    G = {root: cut[frozenset(range(1, len(classes)))] if len(classes) > 2
         else -2 * val(a0, classes[1][-1])}
    twice = {}
    # the clusters holding a set form a chain, whose smallest member comes
    # last: each cluster hangs from the smallest cluster above it, and each
    # class (hence each leaf) from the smallest cluster holding it
    for i, cl in enumerate(clusters):
        x = node_of_cluster[cl]
        up = next((node_of_cluster[c] for c in reversed(clusters[:i]) if cl < c), root)
        G[x] = cut[cl]
        twice[_link(adj, x, up)] = G[up] - G[x]
    for ci, members in enumerate(classes):
        host = next((node_of_cluster[c] for c in reversed(clusters) if ci in c), root)
        for e in members:
            twice[_link(adj, e, host)] = (2 * val(a0, e) + G[host] if ci else
                                          2 * (val(e, a1) - val(a0, a1)) - G[root])
    sums = _pair_path_sums(adj, twice, n)
    for m, x in zip(table.subsets, nu.scaled):
        if x is not INF and sums[m] != 2 * x:
            raise InvariantViolation("valuation admits no consistent edge lengths")
    return MetricTree(n, adj, {e: Fraction(x, 2 * nu.denominator) for e, x in twice.items()})


def _link(adj, u, v) -> frozenset:
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)
    return frozenset((u, v))


def _pair_path_sums(adj, lengths, n) -> dict:
    """Path sum between leaves a < b keyed by the mask of {a, b}, from one
    walk of the tree per leaf; `lengths` maps frozenset({u, v}) to an int."""
    weights = {u: [(w, lengths[frozenset((u, w))]) for w in nbrs] for u, nbrs in adj.items()}
    sums = {}
    for a in range(n):
        dist = {a: 0}
        stack = [a]
        while stack:
            u = stack.pop()
            for w, x in weights[u]:
                if w not in dist:
                    dist[w] = dist[u] + x
                    stack.append(w)
        if len(dist) < len(adj):
            raise TreeInputError("tree is not connected")
        sums.update((1 << a | 1 << b, dist[b]) for b in range(a + 1, n))
    return sums


def tree_to_valuation(T: MetricTree, M: Matroid) -> valuation.Valuation:
    """Path-length valuation of M read off a metric tree with leaf set E,
    the lengths summed as integers over their common denominator, which
    with the sums is the valuation's integer view."""
    if M.r != 2:
        raise MatroidInputError("tree valuations are rank-2 only")
    if sorted(v for v in T.adj if v < T.n) != list(range(M.n)):
        raise TreeInputError("tree leaves do not match the ground set")
    den, ints = integer_vector(T.lengths.values())
    sums = _pair_path_sums(T.adj, dict(zip(T.lengths, ints)), M.n)
    for a, b in combinations(range(M.n), 2):
        if set_to_mask((a, b)) not in M.bases and not T.adj[a] & T.adj[b]:
            raise TreeInputError(f"non-basis pair {{{a},{b}}} lacks a common neighbor")
    scaled = tuple(sums[m] if m in M.bases else INF for m in valuation.symbol_table(M.n, 2).subsets)
    return valuation.Valuation._from_scaled(M, den, scaled)


# ---------------------------------------------------------------------------
# Cell enumeration


def enumerate_rank2_cells(M: Matroid) -> list[tuple[TreeTopology, int]]:
    """All cells of the rank-2 Dressian of M as (topology, dimension).

    Cells correspond to pairwise-compatible systems of nontrivial splits
    that neither separate a parallel pair nor cut off a single parallel
    class (the latter edge length is absorbed by leaf edges and does not
    change the combinatorial type).  Each cell has dimension n + #splits,
    but for two classes: their one cell, a single edge, has dimension n - 1.

    A candidate split is named by its side avoiding class 0, a tuple of
    class indices with 2 <= |side| <= t - 2; sides are sorted.  Two sides
    are compatible iff they are disjoint or nested, and ``compat[i]`` holds,
    as one int, the bits of the later candidates compatible with candidate
    i.  The depth-first search extends a system by the bits of
    ``allowed & compat[i]`` in ascending order and never compares splits
    again.  Each candidate is lifted to its element split once, and every
    cell shares those objects.  Cells come out in preorder: a system before
    its extensions, extensions by candidates in ascending order of their
    sorted class indices.  Listing costs memory per cell (39208 cells for
    8 classes, 660032 for 9), so more than ``DESK_SCALE_RANK2_CLASSES``
    classes raise ``ScaleLimitError``; ``rank2_cell_dims`` counts the cells
    for any number of classes.
    """
    classes = parallel_classes(M)
    t = len(classes)
    if t > DESK_SCALE_RANK2_CLASSES:
        raise ScaleLimitError(
            f"rank-2 cell census needs at most {DESK_SCALE_RANK2_CLASSES} "
            f"parallel classes, got {t}"
        )
    sides = []
    for bits in range(1, 1 << (t - 1)):
        side = tuple(i for i in range(1, t) if (bits >> (i - 1)) & 1)
        if 2 <= len(side) <= t - 2:
            sides.append(side)
    sides.sort()
    masks = [sum(1 << i for i in side) for side in sides]
    compat = []
    for i, a in enumerate(masks):
        later = 0
        for j in range(i + 1, len(masks)):
            common = a & masks[j]
            if common == 0 or common == a or common == masks[j]:
                later |= 1 << j
        compat.append(later)
    ground = frozenset(range(M.n))
    splits = []
    for side in sides:
        elems = frozenset(e for i in side for e in classes[i])
        splits.append(frozenset((elems, ground - elems)))

    out = []
    base = M.n if t > 2 else M.n - 1

    def extend(allowed, chosen):
        out.append((TreeTopology(frozenset(chosen)), base + len(chosen)))
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            chosen.append(splits[i])
            extend(allowed & compat[i], chosen)
            chosen.pop()

    extend((1 << len(splits)) - 1, [])
    return out


def rank2_cell_dims(M: Matroid) -> dict[int, int]:
    """Number of cells of the rank-2 Dressian of M per dimension, ascending.

    The same cells as ``enumerate_rank2_cells``, counted without listing
    them: a cell is a tree on the t parallel classes, of dimension n + m - 1
    with m internal vertices (k + 1 for k splits when t >= 3, none for the
    one edge joining two classes).  The trees on s leaves with m internal
    vertices number T(s, m), where T(2, 0) = 1 and T(s, m) = m T(s-1, m) +
    (s+m-3) T(s-1, m-1): the last leaf joins a tree on s - 1 leaves at one
    of its m internal vertices, or subdivides one of the s+m-3 edges of one
    with m - 1 internal vertices (Felsenstein 1978).
    """
    t = len(parallel_classes(M))
    row = {0: 1}  # m -> T(s, m), from s = 2
    for s in range(3, t + 1):
        row = {m: m * row.get(m, 0) + (s + m - 3) * row.get(m - 1, 0)
               for m in range(1, s - 1)}
    return {M.n + m - 1: x for m, x in row.items()}

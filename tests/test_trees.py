import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from dressian import (
    Matroid,
    MetricTree,
    Valuation,
    ScaleLimitError,
    TreeInputError,
    cell_dim,
    decode_tree,
    enumerate_rank2_cells,
    equivalent,
    parallel_classes,
    rank2_cell_dims,
    set_to_mask,
    shift,
    tree_to_valuation,
    valuation_from_matroid,
)
from helpers import (
    N2,
    N3,
    N26,
    random_rational,
    random_shift_vector,
    random_tree_metric_valuation,
    rank2_nonuniform,
)
from dressian.trees import _class_splits
from reference_trees import confirmed_class_splits, path, path_length
from reference_trees import decode_tree as reference_decode_tree
from reference_trees import tree_to_valuation as reference_tree_to_valuation
from reference_trees import enumerate_rank2_cells as reference_rank2_cells
from reference_trees import rank2_cell_dims as reference_rank2_cell_dims


# ---------------------------------------------------------------------------
# Independent enumeration oracle: every tree on n labeled pendant leaves with
# all internal degrees >= 3, built by leaf insertion.  Removing the last leaf
# (and suppressing a degree-2 vertex) inverts the insertion, so each tree is
# produced exactly once and no deduplication is needed.


def oracle_trees(n):
    assert n >= 3
    star = {0: {n}, 1: {n}, 2: {n}, n: {0, 1, 2}}
    trees = [(star, n + 1)]
    for leaf in range(3, n):
        nxt = []
        for adj, fresh in trees:
            internals = [v for v in adj if v >= n]
            edges = {frozenset((u, v)) for u in adj for v in adj[u]}
            for v in internals:
                a2 = {x: set(ys) for x, ys in adj.items()}
                a2[leaf] = {v}
                a2[v].add(leaf)
                nxt.append((a2, fresh))
            for e in edges:
                u, v = sorted(e)
                a2 = {x: set(ys) for x, ys in adj.items()}
                mid = fresh
                a2[u].discard(v)
                a2[v].discard(u)
                a2[mid] = {u, v, leaf}
                a2[u].add(mid)
                a2[v].add(mid)
                a2[leaf] = {mid}
                nxt.append((a2, fresh + 1))
        trees = nxt
    return trees


def oracle_splits(adj, n):
    """Internal-edge bipartitions of the leaf set, both sides >= 2."""
    out = set()
    for u in adj:
        for v in adj[u]:
            if u >= n and v > u:
                side = set()
                stack = [(v, u)]
                while stack:
                    x, parent = stack.pop()
                    if x < n:
                        side.add(x)
                    for y in adj[x]:
                        if y != parent:
                            stack.append((y, x))
                if 2 <= len(side) <= n - 2:
                    out.add(frozenset({frozenset(side), frozenset(range(n)) - frozenset(side)}))
    return frozenset(out)


def test_oracle_counts():
    assert len(oracle_trees(4)) == 4
    assert len(oracle_trees(5)) == 26
    assert len(oracle_trees(6)) == 236


def test_rank2_census_matches_oracle():
    for n, expected in [(4, 4), (5, 26), (6, 236)]:
        cells = enumerate_rank2_cells(Matroid.uniform(2, n))
        assert len(cells) == expected
        oracle = {oracle_splits(adj, n) for adj, _ in oracle_trees(n)}
        assert len(oracle) == expected  # insertion really is bijective
        ours = {
            frozenset(sp for sp in topo.splits) for topo, _dim in cells
        }
        assert ours == oracle


def dim_tally(cells):
    dims = {}
    for _topo, d in cells:
        dims[d] = dims.get(d, 0) + 1
    return dims


def test_enumerator_matches_reference_dfs():
    # same cells, same order, equal split frozensets as the frozenset DFS;
    # the counter agrees with the listing's dimension tally
    matroids = [Matroid.uniform(2, n) for n in range(2, 8)] + [N2, N3, N26]
    rnd = random.Random(113)
    for _ in range(6):
        n = rnd.randint(5, 8)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        # disjoint non-basis pairs keep parallelism an equivalence relation
        nonbases, used = [], set()
        for a, b in rnd.sample(pairs, rnd.randint(1, 3)):
            if not {a, b} & used:
                nonbases.append((a, b))
                used |= {a, b}
        matroids.append(rank2_nonuniform(n, nonbases))
    for M in matroids:
        cells = enumerate_rank2_cells(M)
        assert cells == reference_rank2_cells(M)
        assert rank2_cell_dims(M) == dim_tally(cells)


def random_rank2_by_classes(rnd, max_classes=8, max_size=3):
    """A rank-2 matroid whose 2 to max_classes parallel classes have random
    sizes 1..max_size, elements shuffled; a basis is a pair across classes.
    (A single class has no basis, so rank 2 needs two.)"""
    sizes = [rnd.randint(1, max_size) for _ in range(rnd.randint(2, max_classes))]
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    rnd.shuffle(cls)
    n = len(cls)
    bases = frozenset(set_to_mask((a, b)) for a, b in combinations(range(n), 2)
                      if cls[a] != cls[b])
    return Matroid(n, 2, bases), len(sizes)


def test_rank2_cell_dims_match_memo_oracle():
    for n in range(2, 10):
        M = Matroid.uniform(2, n)
        assert rank2_cell_dims(M) == reference_rank2_cell_dims(M)
    rnd = random.Random(127)
    seen_classes, seen_size3 = set(), False
    for _ in range(64):
        M, t = random_rank2_by_classes(rnd)
        classes = parallel_classes(M)
        assert len(classes) == t
        seen_classes.add(t)
        seen_size3 |= max(map(len, classes)) == 3
        dims = rank2_cell_dims(M)
        assert dims == reference_rank2_cell_dims(M)
        assert list(dims) == sorted(dims)
    assert seen_classes == set(range(2, 9)) and seen_size3


def test_two_class_cells_have_dimension_n_minus_1():
    # two parallel classes give one cell, a single edge with no internal
    # vertex: nu(ac) = f(a) + g(c) across the classes has n - 1 free
    # parameters, measured here by cell_dim, not by either oracle
    rnd = random.Random(131)
    for n in range(2, 7):
        for bits in range(1, 1 << (n - 1)):  # element 0 in class 0, some in class 1
            side = [e for e in range(1, n) if bits >> (e - 1) & 1]
            bases = frozenset(set_to_mask((a, c)) for a in range(n) for c in side
                              if a not in side)
            M = Matroid(n, 2, bases)
            assert len(parallel_classes(M)) == 2
            nu = shift(Valuation(M, {b: 0 for b in bases}), random_shift_vector(n, rnd))
            d = cell_dim(nu)
            assert d == n - 1
            assert rank2_cell_dims(M) == {d: 1}
            assert [dim for _topo, dim in enumerate_rank2_cells(M)] == [d]
    # U(2, 2) sits at the tree bound 2n - 3 = 1, no longer above it
    assert rank2_cell_dims(Matroid.uniform(2, 2)) == {1: 1}


def test_rank2_census_counts_and_dims():
    # A000311: phylogenetic trees on n labelled leaves
    for n, expected in [(4, 4), (5, 26), (6, 236), (7, 2752), (8, 39208)]:
        M = Matroid.uniform(2, n)
        cells = enumerate_rank2_cells(M)
        assert len(cells) == expected
        assert rank2_cell_dims(M) == dim_tally(cells)
    assert dim_tally(cells) == {8: 1, 9: 119, 10: 1918, 11: 9450, 12: 17325, 13: 10395}


def phylogenetic_trees_by_dim(n):
    """{n + k: trees on n labelled leaves with k internal edges}, n >= 3.

    Leaf insertion: leaf n goes onto one of the n + k - 2 edges of a tree
    with k - 1 internal edges (making a new one), or onto one of the k + 1
    internal vertices of a tree with k internal edges.
    """
    T = {(3, 0): 1}
    for m in range(4, n + 1):
        for k in range(m - 2):
            T[m, k] = (m + k - 2) * T.get((m - 1, k - 1), 0) + (k + 1) * T.get((m - 1, k), 0)
    return {n + k: T[n, k] for k in range(n - 2)}


def test_rank2_cell_dims_match_leaf_insertion_recurrence():
    totals = []
    for n in range(3, 13):
        dims = rank2_cell_dims(Matroid.uniform(2, n))
        assert dims == phylogenetic_trees_by_dim(n)
        assert list(dims) == sorted(dims)
        totals.append(sum(dims.values()))
    assert rank2_cell_dims(Matroid.uniform(2, 9)) == {
        9: 1, 10: 246, 11: 6825, 12: 56980, 13: 190575, 14: 270270, 15: 135135}
    assert totals == [1, 4, 26, 236, 2752, 39208, 660032,  # A000311
                      12818912, 282137824, 6939897856]


def test_rank2_census_scale_guard():
    # only the listing is limited; the count is closed-form at any size
    U210 = Matroid.uniform(2, 10)
    with pytest.raises(ScaleLimitError, match="parallel classes"):
        enumerate_rank2_cells(U210)
    assert rank2_cell_dims(U210) == phylogenetic_trees_by_dim(10)
    # the limit counts parallel classes, not elements: 10 elements in 8 classes
    M = rank2_nonuniform(10, [(0, 1), (2, 3)])
    assert len(enumerate_rank2_cells(M)) == 39208
    assert sum(rank2_cell_dims(M).values()) == 39208


def test_cell_dims_in_census():
    for n in (4, 5):
        for topo, dim in enumerate_rank2_cells(Matroid.uniform(2, n)):
            assert dim == n + len(topo.splits)
            assert dim <= 2 * n - 3  # n + t - 3 with t = n singleton classes


def test_census_count_bound():
    for n in (4, 5, 6):
        t = n
        assert len(enumerate_rank2_cells(Matroid.uniform(2, n))) <= 2**t * t**n


def test_parallel_classes():
    assert sorted(map(sorted, parallel_classes(N3))) == [[0, 1], [2, 3], [4]]
    assert sorted(map(sorted, parallel_classes(Matroid.uniform(2, 4)))) == [
        [0], [1], [2], [3]
    ]


def test_nonuniform_census_excludes_class_pendant_splits():
    M = rank2_nonuniform(4, [(0, 1)])
    cells = enumerate_rank2_cells(M)
    assert len(cells) == 1
    topo, dim = cells[0]
    assert topo.splits == frozenset()
    assert dim == 4
    # three classes: no side can hold two of them, so again a single cell
    assert len(enumerate_rank2_cells(N3)) == 1


def test_decode_encode_roundtrip_random():
    rnd = random.Random(71)
    for _ in range(40):
        n = rnd.choice([4, 5, 6])
        nu = random_tree_metric_valuation(n, rnd)
        nu = shift(nu, random_shift_vector(n, rnd))
        T = decode_tree(nu)
        back = tree_to_valuation(T, nu.matroid)
        assert back == nu


def random_class_tree_valuation(t, n, rnd, zero_share=1 / 3):
    """A rank-2 valuation on n elements in t >= 2 parallel classes: -d for a
    random tree metric d on the classes, about `zero_share` of its internal
    edges of length 0 (all of them at 1: a star), plus a shift per element.
    Built without the decoder."""
    edges = [(0, 1)]
    for leaf in range(2, t):
        u, v = edges.pop(rnd.randrange(len(edges)))
        mid = t + leaf
        edges += [(u, mid), (mid, v), (leaf, mid)]
    adj = {}
    for u, v in edges:
        internal = u >= t and v >= t
        ell = Fraction(0) if internal and rnd.random() < zero_share else (
            random_rational(rnd, 1, 5) if internal else random_rational(rnd))
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = ell

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

    cls = list(range(t)) + [rnd.randrange(t) for _ in range(n - t)]
    rnd.shuffle(cls)
    w = random_shift_vector(n, rnd)
    vals = {set_to_mask((a, b)): -dist(cls[a], cls[b]) + w[a] + w[b]
            for a, b in combinations(range(n), 2) if cls[a] != cls[b]}
    return Valuation(Matroid(n, 2, frozenset(vals)), vals)


def test_class_splits_match_quartet_oracle():
    rnd = random.Random(83)
    for _ in range(150):
        t = rnd.randint(2, 9)
        nu = random_class_tree_valuation(t, t + rnd.choice([0, 0, 1, 3]), rnd)
        classes = parallel_classes(nu.matroid)
        assert len(classes) == t
        assert _class_splits(nu, classes)[0] == confirmed_class_splits(nu, classes)


def test_decode_is_polynomial_in_the_classes():
    # the quartet test over all 2^23 bipartitions takes minutes
    nu = random_tree_metric_valuation(24, random.Random(5))
    started = time.perf_counter()
    T = decode_tree(nu)
    assert time.perf_counter() - started < 2
    assert len(T.splits()) == 21  # a binary tree on 24 leaves
    assert tree_to_valuation(T, nu.matroid) == nu


def decoder_oracle_corpus():
    """(nu, splits to hand the reference decoder, or None for its quartet test)."""
    rnd = random.Random(131)
    out = []
    for n in range(3, 13):
        for _ in range(2):
            nu = random_tree_metric_valuation(n, rnd)
            out += [nu, shift(nu, random_shift_vector(n, rnd))]
    for t in range(2, 10):
        for extra in (0, 1, 3, 5):
            out.append(random_class_tree_valuation(t, t + extra, rnd))
    # stars: no splits, every length read off the root alone
    for t in range(3, 10):
        out.append(random_class_tree_valuation(t, t + 2, rnd, zero_share=1))
    # lengths over 2, 3, 5 and 7, so the encoder sums over their lcm 210
    T = MetricTree.from_newick("((0:1/2,1:-2/3):-3/5,2:5/7,(3:1/3,4:-2/5):-1/7,5:3);")
    out.append(reference_tree_to_valuation(T, Matroid.uniform(2, 6)))
    out += [valuation_from_matroid(N) for N in (N2, N3, N26)]
    out.append(Valuation(Matroid.uniform(2, 2), {0b11: Fraction(1)}))
    # two classes of several elements each, interleaved and not
    for n, first in ((5, (0, 2, 4)), (6, (0, 1)), (6, (0, 3, 4, 5))):
        bases = frozenset(set_to_mask((a, b)) for a, b in combinations(range(n), 2)
                          if (a in first) != (b in first))
        nu = valuation_from_matroid(Matroid(n, 2, bases))
        out.append(shift(nu, random_shift_vector(n, rnd)))
    out = [(nu, None) for nu in out]
    # the quartet test over 2^23 bipartitions takes minutes: this tree's
    # splits come from the decoder, its lengths and values from the solve
    nu = random_tree_metric_valuation(24, random.Random(5))
    splits = sorted((side for sp in decode_tree(nu).splits() for side in sp if 0 not in side),
                    key=set_to_mask)
    return out + [(nu, splits)]


def test_decode_and_encode_match_the_linear_solve():
    corpus = decoder_oracle_corpus()
    assert {len(parallel_classes(nu.matroid)) for nu, _ in corpus} == {*range(2, 13), 24}
    for nu, splits in corpus:
        T, R = decode_tree(nu), reference_decode_tree(nu, splits)
        assert T.adj == R.adj
        assert T.lengths == R.lengths
        assert all(type(x) is Fraction for x in T.lengths.values())
        assert T.to_newick() == R.to_newick()
        assert tree_to_valuation(T, nu.matroid) == reference_tree_to_valuation(T, nu.matroid) == nu
    assert decode_tree(Valuation(Matroid.uniform(2, 2), {0b11: Fraction(1)})).to_newick() == (
        "(0:1,1:0);")
    assert any({x.denominator for x in decode_tree(nu).lengths.values()} == {2, 3, 5, 7, 1}
               for nu, _ in corpus)
    assert sum(not decode_tree(nu).splits() and len(parallel_classes(nu.matroid)) > 3
               for nu, _ in corpus) >= 6


def test_cut_values_are_the_least_g_over_each_cluster():
    # the all-pairs min that decode_tree took per cluster before the cut values
    checked = 0
    for nu, _ in decoder_oracle_corpus():
        classes = parallel_classes(nu.matroid)
        t = len(classes)
        val = lambda i, j: nu.values[set_to_mask((classes[i][0], classes[j][0]))]
        g = {(i, j): val(i, j) - val(0, i) - val(0, j)
             for i, j in combinations(range(1, t), 2)}
        sides, cut = _class_splits(nu, classes)
        every = frozenset(range(1, t))
        assert set(cut) == set(sides) | ({every} if t > 2 else set())
        for cluster, x in cut.items():
            assert x == min(g[i, j] for i, j in combinations(sorted(cluster), 2)) * nu.denominator
            checked += 1
    assert checked > 200


def test_decode_matroid_valuation():
    T = decode_tree(valuation_from_matroid(N3))
    assert len(T.internal_vertices()) == 3
    assert frozenset({frozenset({0, 1}), frozenset({2, 3, 4})}) in T.splits()


def test_tree_valuation_rejects_bad_nonbases():
    # a non-basis pair whose elements do not share a tree neighbor
    M = rank2_nonuniform(5, [(0, 1)])
    hit = False
    for seed in range(20):
        T = decode_tree(random_tree_metric_valuation(5, random.Random(seed)))
        if len(path(T, 0, 1)) > 3:
            with pytest.raises(TreeInputError):
                tree_to_valuation(T, M)
            hit = True
    assert hit


def test_decoded_topology_classifies_equivalence():
    rnd = random.Random(77)
    pairs = 0
    for _ in range(60):
        n = rnd.choice([4, 5])
        a = random_tree_metric_valuation(n, rnd)
        b = random_tree_metric_valuation(n, rnd)
        same_topo = decode_tree(a).topology() == decode_tree(b).topology()
        assert same_topo == equivalent(a, b)
        pairs += 1
    assert pairs == 60


def test_topologies_cover_all_cells():
    # sampling the encoder over every oracle tree hits every enumerated cell
    rnd = random.Random(83)
    n = 5
    M = Matroid.uniform(2, n)
    seen = set()
    for adj, _ in oracle_trees(n):
        lengths = {}
        for u in adj:
            for v in adj[u]:
                if u < v:
                    lengths[frozenset((u, v))] = -Fraction(rnd.randint(1, 5))
        T = MetricTree(n, {u: frozenset(vs) for u, vs in adj.items()}, lengths)
        nu = tree_to_valuation(T, M)
        seen.add(decode_tree(nu).topology())
    cells = enumerate_rank2_cells(M)
    assert len(seen) == len(cells) == 26


def test_cell_dim_equals_tree_edge_count():
    rnd = random.Random(89)
    for _ in range(25):
        n = rnd.choice([4, 5, 6])
        nu = random_tree_metric_valuation(n, rnd)
        T = decode_tree(nu)
        assert cell_dim(nu) == len(T.lengths)


def test_newick_roundtrip():
    rnd = random.Random(97)
    for _ in range(20):
        T = decode_tree(random_tree_metric_valuation(5, rnd))
        back = MetricTree.from_newick(T.to_newick(), n=5)
        assert back.topology() == T.topology()
        for i in range(5):
            for j in range(i + 1, 5):
                assert path_length(back, i, j) == path_length(T, i, j)


def test_four_point_condition_on_decoded_metric():
    # -nu is a tree metric: the two largest of the three pairings coincide
    rnd = random.Random(101)
    for _ in range(20):
        nu = random_tree_metric_valuation(6, rnd)
        for quad in [(0, 1, 2, 3), (1, 2, 4, 5), (0, 3, 4, 5)]:
            a, b, c, d = quad
            d_ = lambda i, j: -nu.values[set_to_mask((i, j))]
            sums = sorted([d_(a, b) + d_(c, d), d_(a, c) + d_(b, d), d_(a, d) + d_(b, c)])
            assert sums[1] == sums[2]


def test_newick_parses_deep_nesting_without_recursion():
    depth = 3000
    text = "(" * depth + "(0:1,1:2,2:3)" + ":1)" * depth + ";"
    T = MetricTree.from_newick(text)
    assert T.n == 3 and len(T.internal_vertices()) == depth + 1
    assert path_length(T, 0, 1) == 3
    back = MetricTree.from_newick(T.to_newick())
    assert path_length(back, 1, 2) == 5
    with pytest.raises(TreeInputError):
        MetricTree.from_newick(text[: len(text) // 2])


def test_asymmetric_or_disconnected_trees_are_input_errors():
    with pytest.raises(TreeInputError, match="adjacency is not symmetric"):
        MetricTree(3, {0: {3}, 1: {3}, 2: {3}, 3: {0, 1}}, {})
    adj = {0: {4}, 1: {4}, 4: {0, 1}, 2: {5}, 3: {5}, 5: {2, 3}}
    T = MetricTree(4, adj, {frozenset((u, v)): Fraction(1) for u in adj for v in adj[u]})
    with pytest.raises(TreeInputError, match="tree is not connected"):
        tree_to_valuation(T, Matroid.uniform(2, 4))


def test_newick_accepts_whitespace_and_root_length():
    T = MetricTree.from_newick(" ( 0 : 1 , ( 1:1/2, 2 :2) : 1 ) : 7 ;\n")
    assert T.n == 3 and path_length(T, 1, 2) == Fraction(5, 2)
    assert path_length(T, 0, 1) == Fraction(5, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        (";", "empty"),
        ("(0:1,1:1", "unclosed"),
        ("(0:1,1:1))", "unexpected"),
        ("(0:1,,1:1)", "expected a leaf"),
        ("()", "expected a leaf"),
        ("(0:1,1:1,0:1)", "leaf 0 appears more than once"),
        ("(0:1,a:1)", "not an integer"),
        ("(0:1,-1:1)", "negative"),
        ("(0:1,2:1)", "not exactly 0..2"),
        ("(0:1,1:x)", "not a rational"),
        ("(0:1,1:1/0)", "not a rational"),
        ("(0:1,1:)", "not followed by an edge length"),
        ("(0:1,1:1:2)", "two lengths"),
        ("(0:1,1)", "no length"),
        ("((0:1,1:1),2:1)", "no length"),
        ("((0:1,1:1)3:1,2:1)", "unexpected"),
        ("(0:1,1:1)(2:1)", "unexpected"),
    ],
)
def test_newick_rejects_malformed_strings(text, message):
    with pytest.raises(TreeInputError, match=message):
        MetricTree.from_newick(text)

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

`confirmed_class_splits` is the split finder `decode_tree` used before it
read splits off the distances to class 0: it tests every one of the
2^(t-1) bipartitions of the t classes against every quartet across it.
"""

from itertools import combinations

from dressian import Matroid, TreeTopology, Valuation, parallel_classes, set_to_mask


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
        out.append((topo, M.n + len(system)))
    return out


def rank2_cell_dims(M: Matroid) -> dict[int, int]:
    """{n + k: k-split systems}: ``counts(allowed)[k]`` is the number of
    k-split systems drawn from the candidates in ``allowed``, the empty
    system plus, for each candidate i in ``allowed``, i together with a
    system from the later candidates in ``allowed`` compatible with i."""
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

    return {M.n + k: x for k, x in enumerate(counts((1 << len(masks)) - 1))}

"""The frozenset split-system DFS that `enumerate_rank2_cells` used before
the bitmask enumerator, kept as a test oracle.

Candidate sides are frozensets of class indices; every step tests the next
candidate against every chosen split and lifts each chosen side to its
element split anew. The cells come out in the same preorder as the library's.
"""

from dressian import Matroid, TreeTopology, parallel_classes


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

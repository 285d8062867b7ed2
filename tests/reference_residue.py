"""The random-shift sampler that `dressian.bounds.perturbed_census` ran
before it read every residue matroid off the certified subdivision walk,
kept as a test oracle: each residue matroid it samples must be among those
`dressian.subdivision.residue_matroids` returns.
"""

import random
from fractions import Fraction

from dressian import (
    all_sparse_paving_matroids,
    residue_matroid,
    shift,
    valuation_from_matroid,
)


def sampled_residue_matroids(r: int, n: int, samples: int, seed: int) -> list:
    """The sparse paving matroids N of rank r on n elements and the residue
    matroids M0(nu_N^w) of `samples` random shifts w in {-3..3}^n per N,
    each basis family once, sorted by basis family."""
    rnd = random.Random(seed)
    seen = {}
    for N in all_sparse_paving_matroids(r, n):
        seen.setdefault(N.bases, N)
        nu = valuation_from_matroid(N)
        for _ in range(samples):
            w = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
            M0 = residue_matroid(shift(nu, w))
            seen.setdefault(M0.bases, M0)
    return [seen[k] for k in sorted(seen, key=sorted)]

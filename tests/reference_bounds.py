"""The mpmath evaluation of the two logarithmic bounds that
`dressian.bounds._log_bounds` ran before it moved to the standard
library's `decimal`, kept as a test oracle.

mpmath is not a dependency of dressian; only the tests that compare
against this module import it, and they skip where it is absent.
"""

from fractions import Fraction

import mpmath

LOG_DIGITS = 20
_WORK_DPS = 40  # well beyond the 20 reported digits


def log_bounds(n: int, nr: int) -> tuple[str, str]:
    """The subspace bound u ln(C(n,r) n^4 / u) with u = C(n,r) = nr, and the
    count bound C(n,r) (55 ln n + 4 ln^2 n) / n, each to LOG_DIGITS digits."""

    def ln(x: Fraction):
        return mpmath.log(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))

    def digits(x) -> str:
        return mpmath.nstr(x, LOG_DIGITS, strip_zeros=False)

    u = Fraction(nr)  # dim U(U(r,n)): no forced symbols on the uniform matroid
    with mpmath.workdps(_WORK_DPS):
        subspace_bound = ln(Fraction(nr) * n**4 / u) * mpmath.mpf(int(u))
        ln_n = ln(Fraction(n))
        count_upper = mpmath.mpf(nr) * (55 * ln_n + 4 * ln_n**2) / n
        return digits(subspace_bound), digits(count_upper)

"""Shared oracles and generators for the test suite.

The slow routes here are naive on purpose; each validates one shipped fast
path. The cofactor determinant checks the Bareiss determinant, the
entrywise Fraction product checks the integer-form product,
Faddeev-LeVerrier over Fractions checks the integer Berkowitz
characteristic polynomial, and Euclid, Sturm isolation and bisection over
Fractions check the integer remainder sequence and the integer-coordinate
isolation and refinement.
"""

from fractions import Fraction
from math import gcd, lcm

from interlace import Matrix, Polynomial, RootBox, SplitMix64, identity


def cofactor_det(m: Matrix) -> Fraction:
    """Laplace expansion along the first row; exponential but obviously right."""

    def expand(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * expand(sub)
            total += term if j % 2 == 0 else -term
        return total

    return expand([list(r) for r in m.rows])


def fraction_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-column sums of Fraction products, entry by entry."""
    cols = tuple(zip(*b.rows))
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in cols]
                   for row in a.rows])


def faddeev_leverrier_charpoly(m: Matrix) -> Polynomial:
    """det(zI - M) by the trace recursion M_k = M (M_(k-1) + c_(k-1) I),
    c_k = -tr(M_k) / k; n full matrix products over Fractions."""
    coeffs = [Fraction(1)]
    aux = identity(m.n)
    for k in range(1, m.n + 1):
        aux = fraction_matmul(m, aux)
        c = -sum(aux.rows[i][i] for i in range(m.n)) / k
        coeffs.append(c)
        aux = aux + identity(m.n).scale(c)
    return Polynomial(coeffs)


def random_rational_matrix(n: int, seed: int, span: int = 4,
                           denominators=(1, 1, 1, 2, 3)) -> Matrix:
    """Seeded matrix with small rational entries (mostly integers)."""
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = rng.below(2 * span + 1) - span
            den = denominators[rng.below(len(denominators))]
            row.append(Fraction(num, den))
        rows.append(row)
    return Matrix(rows)


def random_int_matrix(n: int, seed: int, lo: int = -4, hi: int = 4) -> Matrix:
    rng = SplitMix64(seed)
    return Matrix([[lo + rng.below(hi - lo + 1) for _ in range(n)]
                   for _ in range(n)])


def remainder_sequence(a: Polynomial, b: Polynomial) -> list[Polynomial]:
    """Euclid's signed remainder sequence a, b, -(a mod b), ... over
    Fractions, up to its last nonzero member."""
    seq = [a]
    while not b.is_zero:
        seq.append(b)
        a, b = b, -(a % b)
    return seq


def primitive_ints(p: Polynomial) -> tuple[int, ...]:
    """p times the positive rational that makes its coefficients coprime ints."""
    m = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * m) for c in p.coeffs]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_isolation(p: Polynomial) -> tuple[RootBox, ...]:
    """Recursive Sturm bisection over Fractions for a squarefree p of
    degree >= 1: the power-of-two Cauchy box, midpoint splits, an exact hit
    isolated by a symmetric gap halved from a quarter of its box, and boxes
    straddling zero split there."""
    chain = remainder_sequence(p, p.derivative())

    def var(x):
        signs = [s for s in (_sign(q(x)) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lead = abs(p.coeffs[0])
    bound = 1 + max((abs(c) for c in p.coeffs[1:]), default=0) / lead
    top = Fraction(1)
    while top <= bound:
        top *= 2
    raw = []

    def split(a, b, va, vb):
        if va - vb == 0:
            return
        if va - vb == 1:
            raw.append((a, b))
            return
        mid = (a + b) / 2
        if p(mid) != 0:
            vm = var(mid)
            split(a, mid, va, vm)
            split(mid, b, vm, vb)
            return
        delta = (b - a) / 4
        while not (p(mid - delta) != 0 and p(mid + delta) != 0
                   and var(mid - delta) - var(mid + delta) == 1):
            delta /= 2
        raw.append((mid, mid))
        split(a, mid - delta, va, var(mid - delta))
        split(mid + delta, b, var(mid + delta), vb)

    split(-top, top, var(-top), var(top))
    out = []
    for lo, hi in sorted(raw):
        if lo < 0 < hi:
            if p(0) == 0:
                lo = hi = Fraction(0)
            elif _sign(p(lo)) != _sign(p(0)):
                hi = Fraction(0)
            else:
                lo = Fraction(0)
        out.append(RootBox(lo, hi, _sign(lo) if lo == hi else (1 if lo >= 0 else -1)))
    return tuple(out)


def fraction_bisection(p: Polynomial, box: RootBox, width) -> RootBox:
    """Halve [lo, hi] at (lo + hi) / 2 over Fractions until the width is at
    most ``width``; a midpoint root collapses the box to that point."""
    if box.is_exact:
        return box
    lo, hi = box.lo, box.hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return RootBox(mid, mid, _sign(mid))
        if _sign(p(mid)) == _sign(p(lo)):
            lo = mid
        else:
            hi = mid
    return RootBox(lo, hi, box.sign)

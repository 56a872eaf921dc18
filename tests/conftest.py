"""Shared oracles and generators for the test suite.

Two independent slow routes live here; keep both naive on purpose. The
cofactor determinant validates the shipped Bareiss determinant, and
Faddeev-LeVerrier over Fractions validates the shipped integer Berkowitz
characteristic polynomial.
"""

from fractions import Fraction

from interlace import Matrix, Polynomial, SplitMix64, identity


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


def faddeev_leverrier_charpoly(m: Matrix) -> Polynomial:
    """det(zI - M) by the trace recursion M_k = M (M_(k-1) + c_(k-1) I),
    c_k = -tr(M_k) / k; n full matrix products over Fractions."""
    coeffs = [Fraction(1)]
    aux = identity(m.n)
    for k in range(1, m.n + 1):
        aux = m * aux
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

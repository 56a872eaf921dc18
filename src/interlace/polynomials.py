"""Exact univariate polynomials, stability tests, and real-root isolation.

Coefficients are given leading-first: ``Polynomial([1, -1, -2, 1])`` is
z^3 - z^2 - 2z + 1. A polynomial stores only its integer form (c, P), P
primitive integers and c > 0 rational, and every kernel reads P: gcds read
primitive integer remainder sequences, and a polynomial keeps that of
(P, P'), its Sturm chain, for its squarefree part and root isolation alone.
Isolation counts roots with that chain, or, for the characteristic
polynomial of a tridiagonal band whose off-diagonal products are all
positive, with the band's continuants, which are a Sturm sequence of their
own and need no chain. Boxes are integer numerators over a common scale,
evaluated with homogenized integer steps. Isolation only ever evaluates at
dyadic points u/2^s, so there each power of the denominator is a left
shift, and a point is taken in lowest terms first; counts beyond
Fujiwara's root bound are read off leading coefficients. Refinement
returns exactly the box bisection would, but reaches bisection's final cell
by quadratic interval refinement. Isolation and refinement run on integers
and build Fractions only for the ends of the boxes they return, through
``matrices._ratio``, which sets the two slots in lowest terms; no binary
floating point enters any certified statement.

The self-interlacing test rides on a coefficient twist: flipping the sign of
a_k by (-1)^(k(k+1)/2) (pattern +,-,-,+,+,-,-,...) turns the question "do the
real roots alternate in sign with strictly decreasing moduli, largest
positive" into plain Hurwitz stability of the twisted polynomial, which is
decided by the leading principal minors of the Hurwitz matrix. A
fraction-free Routh walk on P reads them in O(n^2); it stops at a zero minor
before the last, and each later minor is its own determinant of the Hurwitz
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, dropwhile, repeat
from math import gcd, lcm
from operator import mul, ne, not_
from typing import Iterable, Optional, Sequence

from .errors import (
    DegreeZero,
    NotSquarefree,
    PositivityViolated,
    ZeroPolynomial,
)
from .matrices import Matrix, _common_denominator, _ratio, as_fraction


class Polynomial:
    """Immutable dense polynomial over the rationals, leading coefficient first.

    Stored as ``_form`` = (c, P) alone, p = c*P: P integers with gcd 1 and a
    nonzero head (so p's signs), c > 0 a Fraction; zero is (1, ()), degree
    -1. The form is canonical, so ==, hash and pickling read it. Unary - and
    the product of two polynomials act on P; * with any other operand type
    raises TypeError. The Fraction ``coeffs`` are for printing.
    """

    __slots__ = ("_form", "_chain")

    def __new__(cls, coeffs: Iterable):
        d, ints = _common_denominator([as_fraction(c) for c in coeffs])
        return cls._trusted(Fraction(1, d), ints)

    @classmethod
    def _trusted(cls, c: Fraction, ints: Sequence[int]) -> "Polynomial":
        """c*ints (c > 0, integers leading first) in lowest form; no check."""
        g = gcd(*ints)
        p = object.__new__(cls)
        object.__setattr__(p, "_form", (c * g, tuple(x // g for x in dropwhile(not_, ints)))
                           if g else (Fraction(1), ()))
        object.__setattr__(p, "_chain", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial._trusted, self._form

    # -- basics -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fraction coefficients c*P_k, built on every read."""
        return tuple(self._form[0] * x for x in self._form[1])

    @property
    def degree(self) -> int:
        return len(self._form[1]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._form[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._form == other._form

    def __hash__(self) -> int:
        return hash(self._form)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        n = self.degree
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = n - k
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                z = "z" if power == 1 else f"z^{power}"
                body = z if mag == 1 else f"{mag}*{z}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self._form[0], [-x for x in self._form[1]])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        (c1, a), (c2, b) = self._form, other._form
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial._trusted(c1 * c2, out)

    def derivative(self) -> "Polynomial":
        c, ints = self._form
        n = len(ints) - 1
        return Polynomial._trusted(c, [x * (n - k) for k, x in enumerate(ints[:-1])])

    def compose_neg(self) -> "Polynomial":
        """p(-z): the coefficient of z^(n-k) picks up (-1)^(n-k)."""
        c, ints = self._form
        n = len(ints) - 1
        return Polynomial._trusted(c, [-x if (n - k) % 2 else x for k, x in enumerate(ints)])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        ints = self._form[1]
        return Polynomial._trusted(Fraction(1, abs(ints[0])),
                                   ints if ints[0] > 0 else [-x for x in ints])


def poly_from_roots(roots: Iterable) -> Polynomial:
    """Monic polynomial with exactly the given roots (with multiplicity)."""
    p = Polynomial([1])
    for r in roots:
        p = p * Polynomial([1, -as_fraction(r)])
    return p


def _negated_pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive positive multiple of -(a mod b), for nonzero integer b.

    Each elimination step multiplies the dividend by |lc(b)|/g only (g the
    gcd with the eliminated coefficient), never by a negative number, so the
    result keeps the sign pattern of Euclid's rational remainder.
    """
    lead = b[0]
    rem = list(a)
    steps = len(a) - len(b) + 1
    for i in range(steps):
        f = rem[i]
        if f == 0:
            continue
        g = gcd(f, lead)
        scale, f = abs(lead) // g, (f if lead > 0 else -f) // g
        for j in range(i + 1, len(rem)):
            rem[j] *= scale
        for j, c in enumerate(b[1:], i + 1):
            rem[j] -= f * c
    tail = rem[max(steps, 0):]
    k = 0
    while k < len(tail) and tail[k] == 0:
        k += 1
    g = gcd(*tail)
    return tuple(-c // g for c in tail[k:])


def _remainder_sequence(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, ...]]:
    """Euclid's signed remainder sequence a, b, -(a mod b), ... over primitive
    integers, up to its last nonzero member (gcd(a, b) up to a constant).

    For primitive a and b, every member is the rational member times a
    positive rational, made primitive: Collins's primitive remainder
    sequence, with |lc(b)| in place of lc(b) so that Sturm signs are kept.
    """
    seq = [tuple(a)]
    while b:
        seq.append(tuple(b))
        a, b = b, _negated_pseudo_remainder(a, b)
    return seq


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic last member of the remainder sequence (zero if p = q = 0)."""
    if p.is_zero and q.is_zero:
        return p
    *_, g = _remainder_sequence(p._form[1], q._form[1])
    return Polynomial._trusted(Fraction(1), g).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p') from p's Sturm chain; same roots, all simple.
    Its last member g is primitive, so P / g is exact integer long division."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has no squarefree part")
    g = _sturm_chain(p)[-1]
    if len(g) == 1:
        return p
    g = g if g[0] > 0 else [-x for x in g]
    c, rem = p._form[0], list(p._form[1])
    steps = len(rem) - len(g) + 1
    for i in range(steps):  # rem[:i] holds the quotient so far
        rem[i] //= g[0]
        for j, x in enumerate(g[1:], i + 1):
            rem[j] -= rem[i] * x
    if any(rem[steps:]):  # cannot happen: g divides p
        raise ArithmeticError("gcd failed to divide its argument")
    return Polynomial._trusted(c * g[0], rem[:steps])  # p / monic(g) = c g_0 (P / g)


# -- coefficient twist and Hurwitz stability ---------------------------------


def _twist_sign(k: int) -> int:
    return -1 if (k * (k + 1) // 2) % 2 else 1


def si_twist(p: Polynomial) -> Polynomial:
    """Twist q_k = (-1)^(k(k+1)/2) a_k, sign pattern +,-,-,+,+,-,-,...

    The twist is an involution: applying it twice returns the original
    polynomial, because k(k+1)/2 + k(k+1)/2 = k(k+1) is always even. A
    polynomial is self-interlacing (largest-modulus root positive) exactly
    when its twist is Hurwitz stable.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot twist the zero polynomial")
    c, ints = p._form
    return Polynomial._trusted(c, [_twist_sign(k) * x for k, x in enumerate(ints)])


def hurwitz_matrix(p: Polynomial) -> Matrix:
    """The n x n Hurwitz matrix H[i][j] = a_(2j-i) (1-based), over D = den(c),
    which is the lcm of p's coefficient denominators, as gcd(P) = 1."""
    n = p.degree
    if n < 1:
        raise DegreeZero("Hurwitz matrix needs degree >= 1")
    c, ints = p._form
    d, a = c.denominator, tuple(c.numerator * x for x in ints)
    padded = (0,) * (n - 1) + a + (0,) * n  # a_k at k + n - 1
    return Matrix._trusted(d, tuple(padded[n - i:3 * n - i:2] for i in range(n)))


def hurwitz_minors(p: Polynomial) -> tuple[Fraction, ...]:
    """Leading principal minors Δ_1..Δ_n of the Hurwitz matrix, in O(n^2).

    A fraction-free Routh walk on P, p = c*P, keeps two live rows: s_0 =
    (P_0, P_2, ...), s_1 = (P_1, P_3, ...), and s_(k+1)[j] = (s_k[0]
    s_(k-1)[j+1] - s_(k-1)[0] s_k[j+1]) / d, exactly, with d = 1 for s_2
    and s_3 and d = s_(k-2)[0] after. It is Bareiss elimination on the
    shift structure of the Hurwitz matrix, so s_k[0] = Δ_k(P) and Δ_k(p) =
    c^k s_k[0]. At a zero Δ_k before Δ_n the walk stops, and each later
    Δ_j is its own ``leading_principal_minor`` of ``hurwitz_matrix(p)``.
    """
    c, ints = p._form
    pivots = _routh_pivots(ints) if len(ints) > 1 else []
    num_k, den_k = (accumulate(repeat(x, len(pivots)), mul) for x in (c.numerator, c.denominator))
    out = [Fraction(x * a, b) for x, a, b in zip(pivots, num_k, den_k)]
    if len(out) < max(p.degree, 1):  # degree < 1 raises in hurwitz_matrix
        h = hurwitz_matrix(p)
        out += [h.leading_principal_minor(j) for j in range(len(out) + 1, h.n + 1)]
    return tuple(out)


def _routh_pivots(ints: Sequence[int]) -> list[int]:
    """Δ_1..Δ_k of the Hurwitz matrix of the integers ``ints`` (degree
    n >= 1) by the walk in ``hurwitz_minors``: k = n, or the first k < n
    with Δ_k = 0."""
    older, old = list(ints[0::2]), list(ints[1::2])
    leads = [older[0], old[0]]  # s_0[0], s_1[0], ...
    for k in range(1, len(ints) - 1):
        if old[0] == 0:
            break
        d = leads[k - 2] if k >= 3 else 1
        older, old = old, [(old[0] * x - older[0] * y) // d
                           for x, y in zip(older[1:], old[1:] + [0])]
        leads.append(old[0])
    return leads[1:]


def hurwitz_stable(p: Polynomial) -> bool:
    """All roots in the open left half plane, decided by Hurwitz minors.

    A negative leading coefficient is flipped first (roots unchanged). Any
    coefficient <= 0 after that short-circuits to False: positivity of all
    coefficients is necessary for stability, and the check keeps minor
    evaluation off the hot path for obviously unstable inputs.
    """
    if p.degree < 1:
        raise DegreeZero("stability is undefined for constants")
    ints = p._form[1]
    if any(x * ints[0] <= 0 for x in ints):
        return False
    return all(d > 0 for d in hurwitz_minors(p if ints[0] > 0 else -p))


class SIKind(Enum):
    """Which signed alternation pattern a self-interlacing spectrum follows.

    KIND_I: the largest-modulus root is positive and signs alternate as the
    modulus decreases. KIND_II is the mirror image (largest-modulus root
    negative); p(z) has KIND_II exactly when p(-z) has KIND_I.
    """

    KIND_I = "I"
    KIND_II = "II"


def is_self_interlacing(p: Polynomial, kind: SIKind = SIKind.KIND_I) -> bool:
    """True when p's real roots follow the strict sign-alternating modulus chain.

    Kind I means λ_1 > -λ_2 > λ_3 > ... > 0 once roots are ordered by
    decreasing modulus; in particular all roots are real, simple, nonzero.
    ``kind`` is an SIKind or its value. Decision route: Hurwitz stability of
    the twist of p (kind I) or of p(-z) (kind II) alone, which by Part I
    (Self-interlacing polynomials) holds exactly for self-interlacing p, so
    no squarefree test is needed; si_twist(-p) = -si_twist(p).
    """
    kind = SIKind(kind)
    if p.degree < 1:
        raise DegreeZero("self-interlacing is undefined for constants")
    if kind is SIKind.KIND_II:
        p = p.compose_neg()
    return hurwitz_stable(si_twist(p))


# -- real-root isolation -------------------------------------------------------


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class RootBox:
    """A certified enclosure of one simple real root.

    Either lo == hi (the root exactly) or p(lo) and p(hi) have opposite
    nonzero signs and the open interval contains exactly one root. Boxes
    produced here never straddle zero, so ``sign`` is the sign of the root.
    """

    lo: Fraction
    hi: Fraction
    sign: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def modulus_interval(self) -> tuple[Fraction, Fraction]:
        """Closed interval certainly containing |root|."""
        if self.sign >= 0:
            return (self.lo, self.hi)
        return (-self.hi, -self.lo)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _exact_box(u: int, v: int) -> RootBox:
    """The exact box of the root u / v, v > 0."""
    root = _ratio(u, v)
    return RootBox(root, root, _sign(u))


def _lowest_terms(u: int, s: int) -> tuple[int, int]:
    """(u', s') with u'/2^s' = u/2^s and s' >= 0 least: the point's own
    grid level, so that evaluation there carries no spare factors of two."""
    if not u:
        return 0, 0
    t = min(s, (u & -u).bit_length() - 1)
    return u >> t, s - t


def _dyadic_value(ic: Sequence[int], u: int, s: int) -> int:
    """2^(s n) p(u / 2^s) = sum a_k u^(n-k) 2^(s k), by homogenized integer
    Horner steps in which each power of the denominator is a left shift."""
    acc = ic[0]
    shift = 0
    for c in ic[1:]:
        shift += s
        acc = acc * u + (c << shift)
    return acc


def _horner(ic: Sequence[int], u: int) -> int:
    """The integer polynomial with coefficients ``ic`` at u."""
    acc = 0
    for c in ic:
        acc = acc * u + c
    return acc


def _sturm_chain(p: Polynomial) -> list[tuple[int, ...]]:
    """Sturm chain of p, each member scaled to primitive ints, computed once
    and kept on p (which is immutable, so it cannot go stale). Read only.

    The chain is the signed remainder sequence of P and P', read off the
    forms, so it starts with P itself and ends with gcd(p, p') up to a
    constant factor: constant exactly when p is squarefree.
    """
    if p._chain is None:
        object.__setattr__(p, "_chain", _remainder_sequence(
            p._form[1], p.derivative()._form[1]))
    return p._chain


def _variations(chain: Sequence[Sequence[int]], u: int, s: int) -> Optional[int]:
    """Sign changes of the chain at u / 2^s, zeros skipped, in one pass, or
    None where its first member, p, vanishes. The caller puts the point in
    lowest terms (``_lowest_terms``), which keeps each value small."""
    changes, last = 0, 0
    for member in chain:
        value = _dyadic_value(member, u, s)
        if value > 0:
            changes += last < 0
            last = 1
        elif value < 0:
            changes += last > 0
            last = -1
        elif not last:  # last is 0 only at the first member, p
            return None
    return changes


def _variations_at_infinity(chain: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(V(-inf), V(+inf)): the sign changes of the chain's leading
    coefficients, each times (-1)^degree at -inf. No member is zero, so
    none is skipped."""
    plus = [member[0] > 0 for member in chain]
    minus = [lead != (len(member) % 2 == 0) for lead, member in zip(plus, chain)]
    return sum(map(ne, minus, minus[1:])), sum(map(ne, plus, plus[1:]))


def _fujiwara_exponent(ic: Sequence[int]) -> int:
    """Least e >= 0 with 2^e strictly above Fujiwara's bound
    2 max(|a_1/a_0|, |a_2/a_0|^(1/2), ..., |a_(n-1)/a_0|^(1/(n-1)),
    |a_n/(2 a_0)|^(1/n)), which no root exceeds in modulus (Fujiwara,
    Tohoku Math. J. 10, 1916).

    2^e exceeds it exactly when |a_k| < |a_0| 2^((e-1)k) for every k < n and
    |a_n| < 2|a_0| 2^((e-1)n), integer comparisons. Bit lengths give a start
    that is the least e or one below it, so at most one bump follows.
    """
    n, lead = len(ic) - 1, abs(ic[0])
    terms = [(k, abs(c), lead << (k == n)) for k, c in enumerate(ic[1:], 1) if c]
    # (e - 1) k >= bits|a_k| - bits(rhs) is necessary; (e - 1) k > it is enough
    e = max([0] + [1 - (r.bit_length() - c.bit_length()) // k for k, c, r in terms])
    t = e - 1
    fits = all(c << max(-t * k, 0) < r << max(t * k, 0) for k, c, r in terms)
    return e if fits else e + 1


def _dyadic_root_bound(ic: Sequence[int]) -> int:
    """Power of two strictly exceeding the Cauchy bound 1 + max|a_k|/|a_0|.

    It fixes the isolation tree: the start box is [-bound, bound], and every
    box and every refinement below it is a dyadic subdivision of that box.
    No count is evaluated at it: the bound is past every root, so the
    counts at -bound and +bound are V(-inf) and V(+inf). Fujiwara's bound
    (``_fujiwara_exponent``) is usually tighter, but taking it for the start
    box would move every box, so it only answers counts inside this one.
    """
    lead = abs(ic[0])
    tail = max((abs(c) for c in ic[1:]), default=0)
    return 1 << ((lead + tail) // lead).bit_length()


def _continuant_variations(d: int, steps: Sequence[tuple[int, int]],
                           u: int, s: int) -> Optional[int]:
    """Sign changes of Q_0..Q_n at u / 2^s, zeros skipped, or None when
    Q_n = 0, for a tridiagonal T given as ``steps`` = (t_kk, p_(k-1)),
    k = 1..n, p_0 = 0 and p_(k-1) = t_(k-1,k) t_(k,k-1).

    Q_k = 2^(s k) q_k(D u / 2^s), q_k = det(zI - T_k) the continuant of
    T's leading k x k block, comes from Q_(-1) = 0, Q_0 = 1 and
    Q_k = (D u - t_kk 2^s) Q_(k-1) - p_(k-1) 4^s Q_(k-2) in one integer
    pass, each power of two a left shift. With every p_k > 0 this is a
    Sturm sequence that counts the roots of q_n above D u / 2^s (Givens;
    Wilkinson, The Algebraic Eigenvalue Problem, 1965, ch. 5): a zero Q_k
    with k < n has neighbours of opposite signs, so skipping it loses no
    change.
    """
    x, s2 = d * u, 2 * s
    prev, cur, changes, negative = 0, 1, 0, False
    for a, p in steps:
        prev, cur = cur, (x - (a << s)) * cur - (p * prev << s2)
        if cur and (cur < 0) is not negative:
            changes += 1
            negative = not negative
    return changes if cur else None


def isolate_real_roots(p: Polynomial, *, band=None) -> tuple[RootBox, ...]:
    """Disjoint enclosures of every real root, ascending by root value.

    Requires p squarefree (raises NotSquarefree otherwise, naming the gcd).
    Counting is Sturm variation differences; bisection runs on dyadic
    endpoints inside a power-of-two Cauchy bound, so every evaluation is an
    exact integer sign. Each pending box is two integer numerators over one
    scale 2^s, and a work list replaces recursion, so deep splits (roots of
    very different size) cost no stack. A chain member is evaluated at u/2^s
    as 2^(s n) p(u/2^s) = sum a_k u^(n-k) 2^(s k), with a_k 2^(s k) the
    shift a_k << s k, after u/2^s is put in lowest terms: the numerators
    carry the Cauchy bound's factors of two, which would otherwise enlarge
    every product. The sign changes are counted in one pass over the chain,
    zeros skipped; that pass evaluates p first, and a zero there is the
    exact-root test, so p is evaluated once per point. A box is accepted only once it does not straddle zero;
    the start box is symmetric, so its first split is at zero and every box
    carries a definite root sign.

    Not every count is evaluated. By Sturm's theorem the count is constant
    beyond the largest root modulus, so at the start box's ends and at every
    midpoint of modulus >= 2^e, 2^e above Fujiwara's bound, it is V(+inf) or
    V(-inf), read off the chain's leading coefficients, and such a midpoint
    needs no exact-root test. The Cauchy box is kept, so the tree, the boxes
    and the gap loop around an exact midpoint root are those of evaluating
    every count; only evaluations are saved.

    ``band`` = (D, diag, products) replaces the chain by the continuants of
    a tridiagonal T with diagonal ``diag`` and off-diagonal products
    ``products``. The contract: det(zI - T) is a positive multiple of
    D^n p(z / D), D > 0, and every product is > 0. Then T is similar to an
    irreducible symmetric matrix, so p's roots are real and simple, and the
    continuants are a Sturm sequence with the chain's orientation: V(-inf)
    = n, V(+inf) = 0, and each count is ``_continuant_variations``, whose
    last member Q_n = 0 is the exact-root test. No chain is built and p is
    not checked; the tree and the boxes are the chain's.

    The boxes are sorted on integers, each lower end lifted to the finest
    level among them, and the only Fractions built are their ends, each
    u / 2^s in lowest terms, built by ``matrices._ratio``.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    # variations(u, s) is the Sturm count at u / 2^s, or None where p is 0
    if band is None:
        chain = _sturm_chain(p)
        if len(chain[-1]) > 1:
            g = Polynomial._trusted(p._form[0], chain[-1]).monic()  # any c > 0 will do
            raise NotSquarefree(f"repeated roots; gcd(p, p') = {g}")
        ic = chain[0]  # p itself as primitive integers
        v_minus, v_plus = _variations_at_infinity(chain)

        def variations(u: int, s: int) -> Optional[int]:
            return _variations(chain, *_lowest_terms(u, s))
    else:
        d, diag, products = band
        ic, v_minus, v_plus = p._form[1], p.degree, 0
        steps = list(zip(diag, [0, *products]))

        def variations(u: int, s: int) -> Optional[int]:
            return _continuant_variations(d, steps, *_lowest_terms(u, s))
    if p.degree == 0:
        return ()

    bound = _dyadic_root_bound(ic)
    e = _fujiwara_exponent(ic)

    # (lo, hi, s, variations at lo/2^s, variations at hi/2^s) for the box
    # [lo/2^s, hi/2^s]
    work = [(-bound, bound, 0, v_minus, v_plus)]
    raw: list[tuple[int, int, int]] = []
    while work:
        a, b, s, va, vb = work.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1 and a * b >= 0:
            raw.append((a, b, s))
            continue
        mid, a, b, s = a + b, 2 * a, 2 * b, s + 1
        if abs(mid).bit_length() > e + s:  # |mid / 2^s| >= 2^e
            vm = v_plus if mid > 0 else v_minus
        elif (vm := variations(mid, s)) is None:
            # exact root at mid; shrink a symmetric gap, starting at a quarter
            # of the box, until it isolates mid
            gap = b - a
            mid, a, b, s = 4 * mid, 4 * a, 4 * b, s + 2
            while True:
                lo, hi = mid - gap, mid + gap
                if ((v_lo := variations(lo, s)) is not None
                        and (v_hi := variations(hi, s)) is not None and v_lo - v_hi == 1):
                    break
                mid, a, b, s = 2 * mid, 2 * a, 2 * b, s + 1
            raw.append((mid, mid, s))
            work.append((a, lo, s, va, v_lo))
            work.append((hi, b, s, v_hi, vb))
            continue
        work.append((a, mid, s, va, vm))
        work.append((mid, b, s, vm, vb))
    # boxes are disjoint, so their lower ends on the finest level order them
    top = max((s for _, _, s in raw), default=0)
    raw.sort(key=lambda box: box[0] << (top - box[2]))
    return tuple(RootBox(_ratio(lo, 1 << s), _ratio(hi, 1 << s), _sign(lo + hi))
                 for lo, hi, s in raw)


DEFAULT_WIDTH_BOUND = Fraction(1, 10 ** 9)


def as_width_bound(value) -> Fraction:
    """``value`` as an exact Fraction, which must be positive."""
    width_bound = as_fraction(value)
    if width_bound._numerator <= 0:
        raise PositivityViolated("width bound must be positive")
    return width_bound


def refine_root(p: Polynomial, box: RootBox, width_bound) -> RootBox:
    """The box that bisecting ``box`` to width <= width_bound returns, found
    with about half as many evaluations of p.

    K halvings, K the least k with width / 2^k <= width_bound, end in one of
    two places: the level-K dyadic cell of the box that holds the root, or
    the root itself when it is a grid point of level <= K (a midpoint hit).
    So K is computed exactly and that cell is located by quadratic interval
    refinement (Abbott, ACM CCA 2014). A secant through the values at the
    current cell's ends picks one of its 2^s sub-cells, and the signs at the
    sub-cell's ends confirm it, reusing a known end. s doubles after a
    success and halves after a failure; s = 1 is one plain bisection step,
    and s is capped so that no sub-cell is finer than level K. Every point
    evaluated is a level-K grid point u/v, v = scale * 2^K, so a zero found
    there is the root that bisection would hit, and every box is bisection's
    own. p is evaluated as v^n p(u/v) by integer Horner steps.

    The whole search runs on integers. The box's ends (ints or Fractions)
    are read from their Fraction slots as numerators over one scale, the
    lcm of their denominators. The only Fractions built are the returned
    box's ends, u/v in lowest terms with their slots set directly
    (``_ratio``).

    A box outside the ``RootBox`` contract with p(lo) p(hi) >= 0 (a root at
    an endpoint, say) takes only bisection steps, which compare the sign at
    the midpoint with the sign at lo, and so keeps bisection's result. A
    sign change around several roots ends in a level-K cell around one of
    them, which need not be the one bisection picks.
    """
    width_bound = as_width_bound(width_bound)
    x, y = as_fraction(box.lo), as_fraction(box.hi)
    scale = lcm(x._denominator, y._denominator)
    lo = x._numerator * (scale // x._denominator)
    hi = y._numerator * (scale // y._denominator)
    if lo == hi:  # an exact box
        return box
    # least K with (hi - lo) * den <= num * scale * 2^K, from the ceiling ratio
    ratio = -(-(hi - lo) * width_bound._denominator // (width_bound._numerator * scale))
    if ratio <= 1:
        return box
    levels = (ratio - 1).bit_length()
    # grid point j (0 <= j <= 2^K) is (base + j step) / v
    v, base, step = scale << levels, lo << levels, hi - lo
    # a_k v^k, so that Horner in u gives v^n p(u / v)
    ints = p._form[1]
    ic = list(map(mul, ints, accumulate(repeat(v, len(ints) - 1), mul, initial=1)))

    a, b = 0, 1 << levels
    pa = _horner(ic, base)
    # a secant needs the far end too; below three levels bisection is as cheap
    pb = _horner(ic, base + (step << levels)) if levels > 2 else 0
    s_lo = _sign(pa)
    s = 1 if pa * pb < 0 else 0  # 0: bisection steps only
    while b - a > 1:
        s = min(s, (b - a).bit_length() - 1)
        if s <= 1:
            c = (a + b) >> 1
            pc = _horner(ic, base + c * step)
            if pc == 0:
                return _exact_box(base + c * step, v)
            if _sign(pc) == s_lo:
                a, pa = c, pc
            else:
                b, pb = c, pc
            s *= 2
            continue
        width = (b - a) >> s
        c = a + width * ((abs(pa) << s) // (abs(pa) + abs(pb)))
        d = c + width
        pc = pa if c == a else _horner(ic, base + c * step)
        if pc == 0:
            return _exact_box(base + c * step, v)
        if (pc > 0) == (pa > 0):
            pd = pb if d == b else _horner(ic, base + d * step)
            if pd == 0:
                return _exact_box(base + d * step, v)
            if (pd > 0) == (pb > 0):
                a, b, pa, pb = c, d, pc, pd
                s *= 2
                continue
        s //= 2
    return RootBox(_ratio(base + a * step, v), _ratio(base + b * step, v), box.sign)

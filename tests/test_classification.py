"""Sign classes, total nonnegativity, oscillation, corners, flip certificate."""

from fractions import Fraction as F
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    AntiBidiagonalSpec,
    Matrix,
    MinorSelector,
    NonnegativityViolated,
    PositivityViolated,
    SignVerdict,
    SpectrumVerdict,
    anti_bidiagonal,
    anti_identity,
    anti_jacobi,
    anti_tridiagonal_criterion,
    bidiagonal_upper,
    check_corner_conditions,
    classify_sign_definite,
    flip_cols,
    flip_rows,
    identity,
    is_oscillatory,
    is_oscillatory_by_definition,
    is_strictly_totally_positive,
    is_totally_nonnegative,
    jacobi_oscillatory_criterion,
    jflip_signature,
    jflip_si_certificate,
    JacobiSpec,
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
    stp_violation,
    tnn_violation,
)
from interlace import classification
from interlace.classification import _neville, _neville_blocks, _scan
from conftest import cofactor_det, random_int_matrix, random_rational_matrix


# -- signature target ---------------------------------------------------------


def test_jflip_signature_pattern():
    assert jflip_signature(8) == (1, -1, -1, 1, 1, -1, -1, 1)


# -- sign classification ----------------------------------------------------------


def test_classify_anti_identity():
    cls = classify_sign_definite(anti_identity(3), power_cap=8)
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == (1, -1, -1)
    assert cls.is_sign_definite and not cls.is_class_n_plus
    assert cls.power_exponent is None and cls.power_cap == 8


def test_classify_strictly_sign_definite():
    cls = classify_sign_definite(Matrix([[1, 2], [3, 4]]))
    assert cls.verdict is SignVerdict.STRICTLY_SIGN_DEFINITE
    assert cls.signature == (1, -1)
    assert cls.power_exponent == 1
    assert cls.is_class_n_plus and cls.is_sign_definite


def test_classify_conflict_witness_is_first_in_lex_order():
    cls = classify_sign_definite(Matrix([[1, -1], [1, 1]]))
    assert cls.verdict is SignVerdict.NOT_SIGN_DEFINITE
    assert cls.conflict.order == 1
    assert cls.conflict.positive[0] == MinorSelector((1,), (1,))
    assert cls.conflict.positive[1] == 1
    assert cls.conflict.negative[0] == MinorSelector((1,), (2,))
    assert cls.conflict.negative[1] == -1
    assert cls.signature == (None, None)


def test_classify_class_n_plus_via_powers():
    m = Matrix([[0, 1], [1, 1]])  # zero minor at order 1, square is positive
    cls = classify_sign_definite(m)
    assert cls.verdict is SignVerdict.CLASS_N_PLUS
    assert cls.power_exponent == 2
    assert cls.signature == (1, -1)
    # a cap below the certifying power leaves the verdict at class n
    capped = classify_sign_definite(m, power_cap=1)
    assert capped.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert capped.power_exponent is None and capped.power_cap == 1


def test_classify_identity_and_zero():
    cls = classify_sign_definite(identity(3))
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == (1, 1, 1)
    zero = classify_sign_definite(Matrix([[0, 0], [0, 0]]))
    assert zero.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert zero.signature == (None, None)


def test_classify_one_by_one():
    assert classify_sign_definite(Matrix([[2]])).verdict is \
        SignVerdict.STRICTLY_SIGN_DEFINITE
    assert classify_sign_definite(Matrix([[0]])).verdict is \
        SignVerdict.SIGN_DEFINITE_CLASS_N
    with pytest.raises(PositivityViolated):
        classify_sign_definite(identity(2), power_cap=0)


def test_class_n_plus_power_certificate_is_reproducible():
    """The reported exponent really is the least strictly sign definite power."""
    for seed in range(12):
        n = 2 + seed % 3
        m = flip_rows(random_oscillatory(n, seed))
        cls = classify_sign_definite(m)
        assert cls.is_class_n_plus, seed
        e = cls.power_exponent
        power = m ** e
        for order in range(1, n + 1):
            values = [v for _, v in power.minors(order)]
            assert all(v != 0 for v in values)
            assert len({1 if v > 0 else -1 for v in values}) == 1
        if e > 1:
            prior = m ** (e - 1)
            assert any(v == 0 for k in range(1, n + 1)
                       for _, v in prior.minors(k))


# -- the single scan against a brute-force lexicographic scan ------------------


def _brute_minors(m):
    """Every minor, orders 1..n, rows then columns lexicographic, by cofactors."""
    idx = range(1, m.n + 1)
    return [(MinorSelector(rows, cols),
             cofactor_det(Matrix([[m[i, j] for j in cols] for i in rows])))
            for k in idx
            for rows in combinations(idx, k)
            for cols in combinations(idx, k)]


def _brute_strict(m):
    minors = _brute_minors(m)
    return all(v != 0 for _, v in minors) and all(
        len({v > 0 for s, v in minors if s.order == k}) == 1
        for k in range(1, m.n + 1))


def _brute_power(m, e):
    rows = [list(r) for r in m.rows]
    for _ in range(e - 1):
        rows = [[sum(rows[i][t] * m.rows[t][j] for t in range(m.n))
                 for j in range(m.n)] for i in range(m.n)]
    return Matrix(rows)


def _brute_classify(m):
    """(verdict, signature, conflict, power exponent) from the definitions."""
    n = m.n
    minors = _brute_minors(m)
    signature = []
    for k in range(1, n + 1):
        pos = [(s, v) for s, v in minors if s.order == k and v > 0]
        neg = [(s, v) for s, v in minors if s.order == k and v < 0]
        if pos and neg:
            sig = tuple(signature) + (None,) * (n - k + 1)
            return SignVerdict.NOT_SIGN_DEFINITE, sig, (k, pos[0], neg[0]), None
        signature.append(1 if pos else -1 if neg else None)
    sig = tuple(signature)
    if all(v != 0 for _, v in minors):
        return SignVerdict.STRICTLY_SIGN_DEFINITE, sig, None, 1
    for e in range(2, max(1, 2 * (n - 1)) + 1):
        if _brute_strict(_brute_power(m, e)):
            return SignVerdict.CLASS_N_PLUS, sig, None, e
    return SignVerdict.SIGN_DEFINITE_CLASS_N, sig, None, None


def _first(minors, bad):
    return next(((s, v) for s, v in minors if bad(v)), None)


def _oracle_corpus():
    for n in range(1, 5):
        for seed in range(20):
            yield random_int_matrix(n, seed)
            yield random_int_matrix(n, seed, 0, 1)      # many zeros, nonnegative
            yield random_int_matrix(n, seed, -1, 1)     # many zeros, both signs
            yield random_rational_matrix(n, seed)
            yield random_rational_matrix(n, seed, span=1)
            # a perturbed positive TNN matrix puts first witnesses past order 2
            yield random_positive_tnn(n, seed) + random_int_matrix(n, seed, -1, 1)


def test_scans_match_brute_force_lexicographic_scan():
    verdicts, witness_orders = set(), set()
    for m in _oracle_corpus():
        minors = _brute_minors(m)
        tnn, stp = tnn_violation(m), stp_violation(m)
        assert tnn == _first(minors, lambda v: v < 0), m
        assert stp == _first(minors, lambda v: v <= 0), m
        cls = classify_sign_definite(m)
        conflict = cls.conflict and (cls.conflict.order, cls.conflict.positive,
                                     cls.conflict.negative)
        got = (cls.verdict, cls.signature, conflict, cls.power_exponent)
        assert got == _brute_classify(m), m
        verdicts.add(cls.verdict)
        witness_orders |= {("tnn", tnn and tnn[0].order), ("stp", stp and stp[0].order),
                           ("conflict", conflict and conflict[0])}
    assert verdicts == set(SignVerdict)
    assert {("tnn", 3), ("stp", 3), ("conflict", 3)} <= witness_orders


# -- total nonnegativity ------------------------------------------------------------


def test_tnn_frozen_examples():
    assert is_totally_nonnegative(Matrix([[1, 1], [1, 1]]))
    assert is_totally_nonnegative(Matrix([[1, 1], [0, 1]]))
    sel, val = tnn_violation(Matrix([[1, 2], [3, 4]]))
    assert sel == MinorSelector((1, 2), (1, 2)) and val == -2
    sel, val = stp_violation(Matrix([[1, 1], [0, 1]]))
    assert sel == MinorSelector((2,), (1,)) and val == 0
    assert is_strictly_totally_positive(Matrix([[2, 1], [1, 1]]))
    assert not is_strictly_totally_positive(Matrix([[1, 1], [1, 1]]))


def test_flip_of_tnn_has_alternating_pair_signature():
    """Nonzero order-k minors of JA and AJ all carry sign (-1)^(k(k-1)/2)."""
    for seed in range(15):
        n = 2 + seed % 3
        a = random_tnn(n, seed)
        target = jflip_signature(n)
        for flipped in (flip_rows(a), flip_cols(a)):
            for order in range(1, n + 1):
                for sel, val in flipped.minors(order):
                    if val != 0:
                        assert (1 if val > 0 else -1) == target[order - 1], \
                            (seed, order, sel)


def test_unflipping_a_flipped_tnn_matrix_recovers_tnn():
    for seed in range(8):
        m = flip_rows(random_tnn(3, seed + 70))
        assert is_totally_nonnegative(flip_rows(m))


# -- Neville deciders against the minor oracle ------------------------------------


def _scan_only(m, bad):
    """The witness route without the decider in front of it."""
    return next(((s, v) for s, v in _scan(m) if bad(v)), None)


def _with_zero_line(m, k, column):
    rows = [list(r) for r in m.rows]
    for i in range(m.n):
        if column:
            rows[i][k] = 0
        else:
            rows[k][i] = 0
    return Matrix(rows)


def _neville_corpus():
    """Singular and nonsingular TNN, STP powers, and near misses of each."""
    for n in range(1, 6):
        for seed in range(12):
            pos = random_positive_tnn(n, seed)
            osc = random_oscillatory(n, seed)
            for m in (pos, random_tnn(n, seed), osc, osc ** max(1, n - 1)):
                yield m
                yield -m
                yield m + random_int_matrix(n, seed, -1, 1)
                yield _with_zero_line(m, seed % n, column=bool(seed % 2))
            yield random_int_matrix(n, seed, 0, 2)
            # a nonsingular TNN matrix with one entry raised or lowered
            rows = [list(r) for r in pos.rows]
            rows[seed % n][(seed // n) % n] += 1 if seed % 3 else -1
            yield Matrix(rows)


def _stp_by_scan(m):
    return _scan_only(m, lambda v: v <= 0) is None


def _oscillatory_criterion_by_scan(m):
    """Positive off-diagonals, nonsingular, and no negative minor."""
    n = m.n
    return (all(m[j, j + 1] > 0 and m[j + 1, j] > 0 for j in range(1, n))
            and m.det() != 0 and _scan_only(m, lambda v: v < 0) is None)


def _oscillatory_definition_by_scan(m):
    """No negative minor, and some power up to n-1 with no nonpositive one."""
    return (_scan_only(m, lambda v: v < 0) is None
            and any(_stp_by_scan(m ** e) for e in range(1, max(1, m.n - 1) + 1)))


def _assert_decider_matches_oracle(m, seen):
    minors = _brute_minors(m)
    det = minors[-1][1]
    tnn_nonsingular = det != 0 and all(v >= 0 for _, v in minors)
    stp = all(v > 0 for _, v in minors)
    assert _neville(m, strict=False) == tnn_nonsingular, m
    assert _neville(m, strict=True) == stp, m
    tnn, stp_w = _first(minors, lambda v: v < 0), _first(minors, lambda v: v <= 0)
    assert tnn_violation(m) == tnn == _scan_only(m, lambda v: v < 0), m
    assert is_totally_nonnegative(m) == (tnn is None), m
    assert stp_violation(m) == stp_w == _scan_only(m, lambda v: v <= 0), m
    assert is_strictly_totally_positive(m) == _stp_by_scan(m) == stp, m
    assert is_oscillatory(m) == _oscillatory_criterion_by_scan(m), m
    assert is_oscillatory_by_definition(m) == _oscillatory_definition_by_scan(m), m
    seen.add((tnn_nonsingular, stp, tnn is None, det != 0))


def test_neville_decider_matches_minor_oracle():
    """Yes exactly on nonsingular TNN (strict: STP) inputs, by cofactor minors,
    and the public scans return what the scan alone returns."""
    seen = set()
    for m in _neville_corpus():
        _assert_decider_matches_oracle(m, seen)
    assert {(True, True, True, True),      # STP
            (True, False, True, True),     # nonsingular TNN, not STP
            (False, False, True, False),   # singular TNN: the scan decides
            (False, False, False, True),   # nonsingular, not TNN
            (False, False, False, False)} <= seen


def _hard_input():
    """Positive entries and off-diagonals, every minor positive except the
    determinant, which is negative: a scan for a "no" meets it last."""
    m = random_positive_tnn(11, 0)
    corner = m.minor(MinorSelector(tuple(range(2, 12)), tuple(range(1, 11))))
    rows = [list(r) for r in m.rows]
    rows[0][10] -= m.det() / corner + F(1, 10 ** 6)
    return Matrix(rows)


def test_predicates_decide_without_the_minor_scan(monkeypatch):
    """The STP and both oscillation predicates read Neville elimination
    alone, and so does the TNN predicate on a nonsingular input; the
    exponential scan is left to the witness reports and singular inputs."""
    hard = _hard_input()
    assert all(v > 0 for _, _, v in hard.entries()) and hard.det() < 0
    corpus = list(_neville_corpus())  # random_tnn certifies itself by the scan

    def no_scan(m):
        raise AssertionError("the minor scan ran")

    monkeypatch.setattr(classification, "_scan", no_scan)
    predicates = (is_strictly_totally_positive, is_oscillatory,
                  is_oscillatory_by_definition)
    assert [p(hard) for p in predicates] == [False, False, False]
    assert is_totally_nonnegative(hard) is False
    answers = {(p.__name__, p(m)) for m in corpus for p in predicates}
    assert answers == {(p.__name__, a) for p in predicates for a in (True, False)}
    nonsingular = [m for m in corpus if m.det() != 0]
    assert {is_totally_nonnegative(m) for m in nonsingular} == {True, False}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
       bump=st.lists(st.integers(-2, 2), min_size=25, max_size=25),
       positive=st.booleans())
def test_neville_decider_matches_minor_oracle_property(n, seed, bump, positive):
    base = random_positive_tnn(n, seed) if positive else random_tnn(n, seed)
    m = base + Matrix([bump[i * n:(i + 1) * n] for i in range(n)])
    _assert_decider_matches_oracle(m, set())
    _assert_decider_matches_oracle(base, set())


def test_initial_minor_trap_is_not_tnn():
    """Initial minors >= 0 and leading principal minors > 0 do not make a
    matrix TNN; Neville elimination meets a negative multiplier at step 3."""
    trap = Matrix([[1, 3, 3, 3], [0, 1, 3, 5], [0, 6, 19, 32], [0, 18, 54, 91]])
    minors = _brute_minors(trap)
    initial = [v for s, v in minors
               if s.rows == tuple(range(s.rows[0], s.rows[0] + s.order))
               and s.cols == tuple(range(s.cols[0], s.cols[0] + s.order))
               and 1 in (s.rows[0], s.cols[0])]
    assert all(v >= 0 for v in initial)
    assert all(trap.leading_principal_minor(k) > 0 for k in range(1, 5))
    assert not _neville(trap, strict=False)
    assert not is_totally_nonnegative(trap)
    assert tnn_violation(trap) == _first(minors, lambda v: v < 0)


def _neville_peak_bits(m):
    """Largest entry, in bits, of any block Neville elimination of D*M and of
    its transpose passes through, run to the end whatever the pivot signs."""
    _, b = m._integer_form()
    return max(abs(x).bit_length()
               for rows in (b, [list(c) for c in zip(*b)])
               for block in _neville_blocks(rows)
               for row in block for x in row)


def _hadamard_bits(m):
    """Bits of prod_i ||row_i|| of D*M, which bounds every minor of D*M."""
    _, b = m._integer_form()
    return sum(isqrt(sum(x * x for x in row)).bit_length() for row in b)


def test_neville_rows_stay_within_minor_size():
    """Content division keeps every row a primitive multiple of a row of
    minors of D*M; without it the bit length doubles with each step."""
    spec = AntiBidiagonalSpec(F(3, 2), [F(k % 5 + 1, k % 3 + 1) for k in range(15)],
                              [F(k % 7 + 1, k % 4 + 1) for k in range(15)])
    ab = anti_bidiagonal(spec)
    for m in (ab, flip_rows(ab)):       # the flip is upper bidiagonal and TNN
        _, b = m._integer_form()
        entry_bits = max(abs(x).bit_length() for row in b for x in row)
        assert _neville_peak_bits(m) <= entry_bits
    assert _neville(flip_rows(ab), strict=False) and not _neville(ab, strict=False)
    for seed in range(3):
        tnn = random_positive_tnn(12, seed)
        assert _neville(tnn, strict=False)
        assert _neville_peak_bits(tnn) <= _hadamard_bits(tnn)


# -- oscillation -----------------------------------------------------------------


def test_oscillatory_frozen_examples():
    assert is_oscillatory(Matrix([[2, 1], [1, 1]]))
    assert not is_oscillatory(Matrix([[1, 1], [0, 1]]))   # zero subdiagonal entry
    assert not is_oscillatory(identity(2))                # zero off-diagonals
    assert not is_oscillatory(Matrix([[0, 1], [1, 0]]))   # not TNN
    assert not is_oscillatory(Matrix([[1, 1], [1, 1]]))   # singular
    assert is_oscillatory(Matrix([[2]])) and not is_oscillatory(Matrix([[0]]))


def test_oscillatory_criterion_agrees_with_definition():
    cases = []
    for seed in range(12):
        n = 2 + seed % 4
        cases.append(random_tnn(n, seed + 500))
        cases.append(random_oscillatory(n, seed))
        cases.append(random_int_matrix(n, seed, lo=0, hi=3))
    for m in cases:
        assert is_oscillatory(m) == is_oscillatory_by_definition(m), m


def test_definitional_route_certifies_within_size_cap():
    m = random_oscillatory(4, 2)
    assert is_oscillatory_by_definition(m, power_cap=3)
    with pytest.raises(PositivityViolated):
        is_oscillatory_by_definition(m, power_cap=0)


# -- corner conditions -------------------------------------------------------------


def test_corner_conditions_frozen():
    cc = check_corner_conditions(Matrix([[1, 1], [0, 1]]))
    assert cc.left == ((2, 2),) and cc.right == ((1, 1),)
    assert cc.left_holds and cc.right_holds
    eye = check_corner_conditions(identity(2))
    assert eye.left == (None,) and eye.right == (None,)
    assert eye.failing_indices("left") == (1,)
    assert not eye.holds("left") and not eye.holds("right")


def test_corner_conditions_all_positive_matrix():
    cc = check_corner_conditions(Matrix([[1, 1], [1, 1]]))
    assert cc.left == ((1, 1),) and cc.right == ((1, 1),)


def test_corner_conditions_require_nonnegative_entries():
    with pytest.raises(NonnegativityViolated):
        check_corner_conditions(Matrix([[1, -1], [1, 1]]))


def test_corner_conditions_vacuous_for_size_one():
    cc = check_corner_conditions(Matrix([[5]]))
    assert cc.left == () and cc.right == ()
    assert cc.left_holds and cc.right_holds


def test_bidiagonal_upper_satisfies_left_corner_condition():
    for n, seed in ((2, 1), (3, 2), (4, 3), (5, 4)):
        d = [1 + (seed + k) % 3 for k in range(n)]
        e = [1 + (seed + k) % 2 for k in range(n - 1)]
        cc = check_corner_conditions(bidiagonal_upper(d, e))
        assert cc.left_holds, (n, seed)


# -- flip certificate -------------------------------------------------------------


def test_jflip_certificate_passes_on_upper_unitriangular():
    cert = jflip_si_certificate(Matrix([[1, 1], [0, 1]]))
    assert cert.passed and cert.failed_stage is None
    assert [s.status for s in cert.stages] == ["pass"] * 6
    assert cert.flipped == Matrix([[0, 1], [1, 1]])
    assert cert.classification.power_exponent == 2
    assert cert.spectrum.verdict is SpectrumVerdict.KIND_I


def test_jflip_certificate_right_side():
    cert = jflip_si_certificate(Matrix([[1, 1], [0, 1]]), side="right")
    assert cert.passed
    assert cert.flipped == Matrix([[1, 1], [1, 0]])
    assert cert.spectrum.verdict is SpectrumVerdict.KIND_I


def test_jflip_certificate_stops_at_first_failure():
    cert = jflip_si_certificate(Matrix([[1, 2], [3, 4]]))
    assert not cert.passed and cert.failed_stage == "totally_nonnegative"
    assert [s.status for s in cert.stages] == ["fail"] + ["skipped"] * 5
    assert cert.classification is None and cert.spectrum is None

    singular = jflip_si_certificate(Matrix([[1, 1], [1, 1]]))
    assert singular.failed_stage == "nonsingular"
    assert [s.status for s in singular.stages] == \
        ["pass", "fail", "skipped", "skipped", "skipped", "skipped"]

    eye = jflip_si_certificate(identity(3))
    assert eye.failed_stage == "corner_conditions"
    assert "no witness" in [s for s in eye.stages if s.status == "fail"][0].detail


JFLIP_ALL_PASS = [
    ("totally_nonnegative", "pass", ""),
    ("nonsingular", "pass", "determinant = 1"),
    ("corner_conditions", "pass", ""),
    ("flip_square_oscillatory", "pass", ""),
    ("sign_classification", "pass", "class n+ at power 2"),
    ("spectrum", "pass", "kind I, 2 real roots"),
]


def _fails_at(k, detail):
    """Stages 1..k-1 as in a passing run, stage k failing, the rest skipped."""
    return (JFLIP_ALL_PASS[:k - 1] + [(JFLIP_ALL_PASS[k - 1][0], "fail", detail)]
            + [(name, "skipped", "") for name, _, _ in JFLIP_ALL_PASS[k:]])


JFLIP_GOLDEN = [
    # (A, keyword arguments, stages, classification set, spectrum set)
    (Matrix([[1, 1], [0, 1]]), {"power_cap": 1},
     _fails_at(5, "verdict sign_definite_class_n (power cap 1)"), True, False),
    (Matrix([[1, 2], [3, 4]]), {},
     _fails_at(1, "minor rows=(1, 2) cols=(1, 2) = -2"), False, False),
    (Matrix([[1, 1], [1, 1]]), {}, _fails_at(2, "determinant = 0"), False, False),
    (identity(3), {}, _fails_at(3, "no witness for i in (1, 2)"), False, False),
    (Matrix([[1, 1], [0, 1]]), {}, JFLIP_ALL_PASS, True, True),
    (Matrix([[1, 1], [0, 1]]), {"side": "right"}, JFLIP_ALL_PASS, True, True),
]


@pytest.mark.parametrize("m, kwargs, stages, has_cls, has_spectrum", JFLIP_GOLDEN)
def test_jflip_certificate_stage_lists_are_pinned(m, kwargs, stages, has_cls,
                                                  has_spectrum):
    cert = jflip_si_certificate(m, **kwargs)
    assert [(s.name, s.status, s.detail) for s in cert.stages] == stages
    assert (cert.classification is not None) == has_cls
    assert (cert.spectrum is not None) == has_spectrum


def test_jflip_certificate_rejects_unknown_side():
    with pytest.raises(ValueError):
        jflip_si_certificate(identity(2), side="up")


def test_jflip_certificate_checks_arguments_before_any_stage():
    for m in (Matrix([[1, 2], [3, 4]]), Matrix([[1, 1], [0, 1]])):
        with pytest.raises(PositivityViolated):
            jflip_si_certificate(m, power_cap=0)
        for bound in (0, F(-1, 2)):
            with pytest.raises(PositivityViolated):
                jflip_si_certificate(m, width_bound=bound)


# -- tridiagonal criteria ------------------------------------------------------------


def test_jacobi_criteria_frozen():
    good = JacobiSpec((2, 2), (1,), (1,))
    assert jacobi_oscillatory_criterion(good)
    assert anti_tridiagonal_criterion(good)
    boundary = JacobiSpec((1, 1), (1,), (1,))  # second leading minor is 0
    assert not jacobi_oscillatory_criterion(boundary)
    assert not anti_tridiagonal_criterion(boundary)
    with pytest.raises(PositivityViolated):
        jacobi_oscillatory_criterion(JacobiSpec((1, 1), (0,), (1,)))
    with pytest.raises(PositivityViolated):
        anti_tridiagonal_criterion(JacobiSpec((1, 1), (1,), (-1,)))


def test_jacobi_criteria_agree_on_random_specs():
    from interlace import SplitMix64

    rng = SplitMix64(71)
    for trial in range(40):
        n = 2 + rng.below(4)
        spec = JacobiSpec(
            tuple(F(rng.below(5), 1 + rng.below(2)) for _ in range(n)),
            tuple(F(1 + rng.below(4), 1 + rng.below(2)) for _ in range(n - 1)),
            tuple(F(1 + rng.below(4), 1 + rng.below(2)) for _ in range(n - 1)))
        assert jacobi_oscillatory_criterion(spec) == \
            anti_tridiagonal_criterion(spec), (trial, spec)


def test_jacobi_criterion_matches_oscillation_of_the_tridiagonal():
    from interlace import SplitMix64, jacobi_matrix

    rng = SplitMix64(73)
    for trial in range(20):
        n = 2 + rng.below(3)
        spec = JacobiSpec(
            tuple(F(rng.below(4), 1) for _ in range(n)),
            tuple(F(1 + rng.below(3)) for _ in range(n - 1)),
            tuple(F(1 + rng.below(3)) for _ in range(n - 1)))
        assert jacobi_oscillatory_criterion(spec) == \
            is_oscillatory(jacobi_matrix(spec)), (trial, spec)
        assert jacobi_oscillatory_criterion(spec) == \
            is_oscillatory_by_definition(jacobi_matrix(spec)), (trial, spec)

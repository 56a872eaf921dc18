"""Exact certification of self-interlacing spectra and total nonnegativity.

The package decides, with rational arithmetic only, whether a matrix or
polynomial has a self-interlacing spectrum (real simple eigenvalues whose
signs alternate as the modulus strictly decreases), classifies minor sign
patterns (totally nonnegative, strictly totally positive, sign definite of
class n and n+, oscillatory), certifies the anti-identity flip pipeline that
produces such spectra from totally nonnegative matrices, and constructs the
structured families (bidiagonal, anti-bidiagonal, tridiagonal and their
column-reversed variants) plus seeded random examples.
"""

from .classification import (
    CornerConditionReport,
    JFlipCertificate,
    SignClassification,
    SignVerdict,
    StageResult,
    check_corner_conditions,
    classify_sign_definite,
    is_oscillatory,
    is_oscillatory_by_definition,
    is_strictly_totally_positive,
    is_totally_nonnegative,
    jflip_signature,
    jflip_si_certificate,
    stp_violation,
    tnn_violation,
)
from .constructors import (
    AntiBidiagonalSpec,
    JacobiSpec,
    SplitMix64,
    anti_bidiagonal,
    anti_jacobi,
    anti_tridiagonal_criterion,
    bidiagonal_upper,
    equivalent_tridiagonal,
    jacobi_matrix,
    jacobi_oscillatory_criterion,
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
)
from .documents import (
    MatrixDocument,
    build_structured,
    decimal_string,
    format_matrix_document,
    parse_matrix_document,
    parse_polynomial_tokens,
    places_for_width,
)
from .errors import (
    DegreeZero,
    DimensionMismatch,
    InterlaceError,
    InternalInvariantViolation,
    InvalidSelector,
    ModulusTie,
    NonnegativityViolated,
    NotClassNPlus,
    NotSquarefree,
    ParseError,
    PositivityViolated,
    PreconditionFailed,
    ZeroPolynomial,
)
from .matrices import (
    Matrix,
    MinorSelector,
    anti_identity,
    flip_cols,
    flip_rows,
    identity,
)
from .polynomials import (
    Polynomial,
    RootBox,
    SIKind,
    hurwitz_matrix,
    hurwitz_minors,
    hurwitz_stable,
    is_self_interlacing,
    isolate_real_roots,
    poly_from_roots,
    poly_gcd,
    refine_root,
    si_twist,
    squarefree_part,
)
from .spectra import (
    DEFAULT_WIDTH_BOUND,
    SpectrumReport,
    SpectrumVerdict,
    kind_two_report,
    spectrum_report,
    verify_sign_pattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

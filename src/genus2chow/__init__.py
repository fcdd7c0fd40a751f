"""Exact verification of the integral Chow ring computations for the moduli
of stable genus-two curves: graded integer polynomial arithmetic, strong
Groebner bases over ZZ, Smith-normal-form graded pieces, projective-bundle
and classifying-space pushforward calculus, and the end-to-end check pipeline.
"""

from .ring import (
    GradingError,
    InhomogeneousError,
    IntPolynomial,
    NotSymmetricError,
    Ring,
    RingMismatchError,
    VariableSpec,
    chern_series_quotient,
    symmetrize_to_elementary,
)
from .parse import ParseError, parse_polynomial, render_polynomial
from .groebner import (
    Ideal,
    RingSpec,
    StrongGroebnerBasis,
    ideal_equal,
    strong_groebner,
)
from .graded import (
    GradedPieceGroup,
    InfiniteKernelError,
    enumerate_kernel_elements,
    graded_piece,
    membership_matches_normal_form,
    multiplication_kernel,
)
from .bundles import (
    BundleClasses,
    SClassCombo,
    diagonal_class,
    push_multiplication_power,
    root_product,
    segre_pushforward,
    srj_table,
    veronese_pushforward,
)
from .classifying import (
    BgDerivation,
    bg_presentation,
    bt_pushforward,
    wn_chern,
)
from .pipeline import (
    CheckFailure,
    LemmaCheck,
    Pipeline,
    UnknownCheckError,
    VerificationReport,
    pushforward_boundary_to_total,
)

__version__ = "0.1.0"

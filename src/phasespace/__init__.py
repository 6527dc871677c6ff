"""Discrete phase-space analysis of single qudits of odd prime dimension.

Weyl operators, discrete Wigner functions, the metaplectic action of
SL(2, Z_d), stabilizer states, Fourier positivity tests on Z_d, and a
certification battery for the fact that, in odd prime dimension, the pure
states with nonnegative Wigner function are exactly the stabilizer states.
"""

__version__ = "0.1.0"

from .zmod import (
    PhasePoint,
    PrimeDim,
    SymplecticMatrix,
    half,
    sl2_apply,
    sl2_enumerate,
    symplectic_form,
)
from .qudit import (
    DenseOperator,
    StateVector,
    boost_op,
    haar_random_state,
    omega_table,
    projector,
    shift_op,
    weyl,
    weyl_adjoint,
)
from .wigner import (
    CorrelationTable,
    KIND_CHARACTERISTIC,
    KIND_WIGNER,
    PhaseGrid,
    SYMPLECTIC_INVERSE,
    TRANSLATION_SIGN,
    char_from_wigner,
    characteristic,
    metaplectic_image_grid,
    operator_from_char,
    position_marginal,
    probe_covariance_directions,
    self_correlation,
    symplectic_transform_grid,
    translate_grid,
    weyl_translated_grid,
    wigner_from_char,
    wigner_pure,
)
from .clifford import (
    CliffordElement,
    clifford_apply,
    clifford_element,
    compose,
    enumerate_stabilizers,
    is_stabilizer,
    metaplectic,
    projective_equal,
    stabilizer_descriptors,
    stabilizer_from_quadratic,
)
from .bochner import (
    CyclicFunction,
    autocorrelation,
    circulant,
    fourier,
    has_constant_modulus_fourier,
    has_nonneg_fourier,
    inverse_fourier,
)
from .hudson import (
    VerificationReport,
    haar_sample,
    single_point_infeasibility,
    two_point_sample,
    verify_hudson,
)

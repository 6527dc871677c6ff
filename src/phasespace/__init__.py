"""Discrete phase-space analysis of single qudits of odd prime dimension.

Weyl operators, discrete Wigner functions, the metaplectic action of
SL(2, Z_d), stabilizer states, Fourier positivity tests on Z_d, and a
certification battery for the fact that, in odd prime dimension, the pure
states with nonnegative Wigner function are exactly the stabilizer states.
"""

__version__ = "0.1.0"

from .zmod import (
    PrimeDim,
    SymplecticMatrix,
    half,
    sl2_enumerate,
)
from .qudit import (
    DenseOperator,
    StateVector,
    omega_table,
    projector,
    weyl,
)
from .wigner import (
    CorrelationTable,
    KIND_CHARACTERISTIC,
    KIND_WIGNER,
    PhaseGrid,
    characteristic,
    metaplectic_image_grid,
    self_correlation,
    wigner_from_char,
    wigner_pure,
)
from .clifford import (
    metaplectic,
    stabilizer_overlaps,
    stabilizer_rows,
)
from .bochner import (
    CyclicFunction,
    has_nonneg_fourier,
)
from .hudson import (
    VerificationReport,
    haar_sample,
    single_point_infeasibility,
    two_point_sample,
    verify_hudson,
)

"""Discrete phase-space analysis of single qudits of odd prime dimension.

Weyl operators, discrete Wigner functions, the metaplectic action of
SL(2, Z_d), stabilizer states, Fourier positivity tests on Z_d, and a
certification battery for the fact that, in odd prime dimension, the pure
states with nonnegative Wigner function are exactly the stabilizer states.

The root exports the certificate, its sample replays and the types they
are stated in. Every other name, such as `wigner.wigner_pure` or
`clifford.stabilizer_rows`, is read at its module; all but `cli` load here.
"""

__version__ = "0.1.0"

from .zmod import PrimeDim
from .qudit import StateVector
from . import bochner
from .hudson import (
    VerificationReport,
    haar_sample,
    single_point_infeasibility,
    two_point_sample,
    verify_hudson,
)

"""The metaplectic representation of SL(2, Z_d) and stabilizer states.

metaplectic(S) returns the unitary mu(S) satisfying the exact conjugation
identity

    mu(S) w(v) mu(S)^dagger = w(S v)   for every phase point v,

where S = [[a, b], [c, e]] acts as (p, q) -> (a p + b q, c p + e q). Its
entries are written down in closed form, with h = 2^-1 = (d+1)/2 and every
exponent reduced as an exact integer residue before the root-of-unity
lookup:

    c != 0:  mu(S)[j, k] = d^(-1/2) omega^(h c^-1 (a j^2 - 2 j k + e k^2))
    c == 0:  mu(S)|k> = omega^(h b e k^2) |e k>   (e = a^-1 here)

By Schur's lemma the conjugation identity fixes mu(S) up to a global phase.
The convention picks the phase that makes the first nonzero entry in
row-major order real and positive, and both branches meet it as written:
for c != 0 the entry [0, 0] has exponent 0 and equals d^(-1/2); for c == 0
row 0 holds a single 1 at column 0. No rescale is needed. mu is a
projective representation: mu(S) mu(T) equals mu(S T) up to a phase. A
Clifford group element is the product w(v).mat @ mu(S).mat of the two
unitaries; there is no separate type for it.

Stabilizer states of a single qudit of odd prime dimension are the d
position basis states together with the d^2 quadratic-phase states

    psi(q) = d^(-1/2) omega^(theta q^2 + x q),

d(d+1) states in total (an orbit of |0> under the Clifford group; the test
suite certifies this by brute-force orbit closure). Index i names |i> for
i < d and otherwise the quadratic state (theta, x) = divmod(i - d, d).
stabilizer_rows builds just the rows of the indices asked for, so no caller
holds the whole family: hudson.verify_hudson asks for three.

stabilizer_overlaps never builds that family. The largest overlap of psi
with a stabilizer state is

    max( max_k |psi(k)|,  max_{theta, x} d^(-1/2) |sum_q omega^(-theta q^2 - x q) psi(q)| ),

and for each theta the inner sums over x are one DFT of the chirped row
omega^(-theta q^2) psi(q); stabilizer_overlaps evaluates them exactly for a
block of states, as one product with the cached dft_matrix(d), O(d^3) per
state. Each quadratic term has modulus d^(-1/2) |psi(q)|, so by the triangle
inequality the maximum is at most
max(max_k |psi(k)|, d^(-1/2) sum_q |psi(q)|), an O(d) bound;
hudson.verify_hudson runs stabilizer_overlaps only on the samples whose
bound comes within rounding of a match.
"""

from __future__ import annotations

import operator

import numpy as np

from .qudit import DenseOperator, dft_matrix, omega_table
from .zmod import SymplecticMatrix, half


def metaplectic(S: SymplecticMatrix) -> DenseOperator:
    """The unitary mu(S) with mu(S) w(v) mu(S)^dagger = w(S v)."""
    d = S.dim.d
    a, b, c, e = S.as_ints()
    h = half(S.dim)
    omega = omega_table(d)
    k = np.arange(d)
    if c:
        # h c^-1 (a j^2 - 2 j k + e k^2) with 2 h = 1, so the cross term is -c^-1 j k
        ci = pow(c, -1, d)
        j = k[:, None]
        exps = (h * ci * a % d * (j * j) - ci * (j * k) + h * ci * e % d * (k * k)) % d
        mat = omega[exps] / np.sqrt(d)
    else:
        mat = np.zeros((d, d), dtype=complex)
        mat[e * k % d, k] = omega[h * b * e % d * (k * k) % d]
    return DenseOperator(S.dim, mat)


# ---------------------------------------------------------------------------
# Stabilizer states
# ---------------------------------------------------------------------------


def stabilizer_rows(d: int, indices) -> np.ndarray:
    """The stabilizer states of the given indices as an (n, d) amplitude
    block: row i is |i> for i < d, and otherwise the quadratic state with
    (theta, x) = divmod(i - d, d), gathered from the root table at exact
    residues. An index outside [0, d(d+1)) raises ValueError."""
    idx = [operator.index(i) for i in indices]
    if idx and not (min(idx) >= 0 and max(idx) < d * (d + 1)):
        raise ValueError(f"stabilizer indices must lie in [0, {d * (d + 1)})")
    i = np.array(idx, dtype=np.intp)
    theta, x = np.divmod(i - d, d)
    q = np.arange(d)
    rows = omega_table(d)[(theta[:, None] * (q * q) + x[:, None] * q) % d] / np.sqrt(d)
    basis = i < d
    rows[basis] = i[basis, None] == q  # |i>: 1 at column i
    return rows


def stabilizer_overlaps(amps: np.ndarray) -> np.ndarray:
    """Largest |<s|psi>| over the d(d+1) stabilizer states s, for each row psi
    of an (n, d) block.

    For each theta the overlaps with the quadratic states are sqrt(d) times
    the DFT (through dft_matrix(d)) of the chirped row omega^(-theta q^2) psi(q),
    an (n, d, d) temporary for the whole block.
    """
    n, d = amps.shape
    q = np.arange(d)
    chirped = amps[:, None, :] * omega_table(d)[np.outer(q, -(q * q)) % d]  # [n, theta, q]
    sums = np.abs(chirped.reshape(n * d, d) @ dft_matrix(d)).reshape(n, d * d)
    return np.maximum(np.abs(amps).max(axis=1), sums.max(axis=1) * np.sqrt(d))

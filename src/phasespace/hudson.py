"""Certification that nonnegative Wigner functions single out stabilizer states.

verify_hudson runs, for one dimension d, the full battery:

  * every enumerated stabilizer state has a nonnegative Wigner function
    (minimum entry >= -1e-12), certified from two rows of
    clifford.stabilizer_rows as described below;
  * seeded Haar-random states all have a strictly negative minimum
    (below -tol) and are confirmed non-stabilizer;
  * seeded states supported on exactly two positions all have a strictly
    negative minimum;
  * on every state that passes positivity: the modulus inequality
    |psi(q)|^2 >= |psi(q - x)| |psi(q + x)| holds pairwise, the support size
    is 1 or d, and full-support states have constant modulus d^(-1/2);
  * the Wigner grid concentrated at the origin comes from no density
    operator, read off one entry of a witness's grid
    (single_point_infeasibility), recorded as point_mass_infeasible.

Sample i is drawn from a substream keyed by (seed, stream, i), the
package's one seeding scheme, so reports are reproducible and independent of
evaluation order. Every sub-check failure is counted in the report's
failures_total, and the first MAX_FAILURE_MESSAGES of them are kept as
messages in index order; a report passes iff the count is zero.

The battery runs on (n, d) amplitude blocks, one state per row: the
stabilizer bases, and the samples drawn from their per-index substreams.
verify_hudson alone sets n for the samples: it draws them in blocks of whole
chunks, and hands the O(d^3) kernels chunks of at most CHUNK_ELEMENTS / d^2
of them. Every Wigner grid it computes, with its lag products, goes into the
one wigner.wigner_workspace it allocates per call, for its largest chunk or
one row: each base's grid in turn, then each sample chunk or q range. That is
about 1 MB at d = 61, reused rather than faulted in again for each chunk, and
64 MB at d = 2003. clifford.stabilizer_overlaps and modulus_violations build
temporaries of at most n d^2 entries for the block they are given.
One sampler, _sample_rows, draws, assembles and flags a block of either
stream; _seeded_blocks hashes each stream once per call and yields its
blocks, and haar_sample and two_point_sample replay one sample, hashing its index.

The substream of (seed, stream, i) is numpy's PCG64 seeded as
np.random.SeedSequence([seed, stream, i]) would seed it, and a sample's
draws are those of np.random.Generator on it, bit for bit, which the tests
use as the oracle; but neither the SeedSequence hash nor a Generator runs
once per sample. _seed_words(seed, stream, start, stop), the one index
form, computes the generate_state(4, np.uint64) words (w0, w1, w2, w3) of
the indices [start, stop) in one pass of uint32 array arithmetic: the
entropy is the little-endian 32-bit words of seed and stream, of any size,
then np.arange(start, stop) as one uint32 column, hashed into a pool of four
words and read out with numpy's published constants; a replay hashes
[i, i + 1). Indices lie in [0, 2^32): verify_hudson rejects a sample count
above 2^32, and haar_sample and two_point_sample raise ValueError past it,
as they do for a negative seed or index, and TypeError for a bool one.

A block of rows of at most _VECTOR_DRAWS draws each (Haar rows at d <= 13,
two-point rows at every d) takes the vector path, on uint64 arrays over the
whole block:

  * PCG64 (O'Neill, "PCG: a family of simple fast space-efficient
    statistically good algorithms", 2014) steps s -> s M + inc mod 2^128.
    numpy seeds it with s = 0 and inc = (w2:w3) 2 + 1, steps, adds (w0:w1)
    and steps again; each draw steps, then outputs XSL-RR: hi ^ lo rotated
    right by hi >> 58. So the state of draw j is
    M^(j+1) ((w0:w1) + inc) + (1 + M + ... + M^j) inc, and _pcg64 computes
    every state of a block in one pass, in 64-bit limbs that wrap as C's do.
  * standard_normal, a 256-layer ziggurat (Marsaglia and Tsang, J. Stat.
    Softw. 5(8), 2000), takes idx = r & 0xFF, the sign from bit 8 and
    rabs = (r >> 9) & (2^52 - 1) of a draw r, and returns x = +-rabs wi[idx]
    at once if rabs < ki[idx]. Otherwise it takes a slow path that draws
    again. _fast_normals forms x by the same float64 product.
  * choice(d, 2, replace=False) runs Floyd's algorithm: a in [0, d - 2] from
    the low half of the first output (next_uint32 buffers the high half),
    b in [0, d - 1] from its high half, b = d - 1 if b == a; then its shuffle
    draws one bit from the low half of the second output, and 0 orders the
    pair [b, a]. Each is Lemire's draw, m = u n for a 32-bit u and n values:
    the result is m >> 32 unless the low word of m is below n, where the
    rejection test starts. The four normals come from the next four outputs.

numpy does not export its ziggurat table, so _normal_table reads wi from it
once per process: from 256 crafted states whose next output is idx | 1 << 9,
standard_normal returns 1 * wi[idx] exactly (ki[1] is 0, and the slow path's
wedge test accepts that draw too). numpy's ki[i] is 2^52 wi[i - 1] / wi[i]
for i >= 2, 2^52 wi[255] / wi[0] for i = 0, and 0 for i = 1, rounded down
(measured: the floor of the float64 quotient is its ki or one below). The
float64 quotient is within 1/2 of 2^52 times the exact ratio of the rounded
entries, and the rounding of the entries moves that ratio by at most 1 more,
so the floor minus _KI_MARGIN = 2 is a lower bound on ki; the tests check it
against numpy's exact ki, found by bisection on crafted states. A row stays
on the vector path only if every draw of it is below its bound, which numpy
takes on its fast path to the same float, and every Lemire draw of it is
short of the rejection test; then it is the row numpy draws. Every other row,
and every row of a block that does not take the vector path, numpy draws
itself: a Generator on numpy's own PCG64, seeded from the row's words through
_Words, a stand-in SeedSequence that returns them (_substream). A self-check
guards the numpy version: _normal_table draws a fixed block, 16 Haar rows at
d = 13 and 16 two-point rows at d = 5, on both paths, and on any mismatch it
returns None and every row takes the per-row path. At d = 3, 5, 7 and 13,
6-9, 11, 16 and 29 % of the Haar rows take it, and about 6.6 % of the
two-point rows. Both paths stay: the vector path is faster at d <= 13, gains
nothing at d = 17, and past it (d = 61, say) the per-row path is faster.

The sample minima are bounded in float32 and certified in float64
(_block_minima). Only two facts of a stream's float64 minima reach the
report: which rows are at least -tol (the failures) and the largest of them.
verify_hudson draws each stream in blocks of whole chunks (_block_rows: 119
rows, 7 chunks, at d = 61), and each block runs two phases.

  * Bound. The float32 minima of a row are taken over the q ranges
    [0, d/8), [d/8, d/4), [d/4, d/2) and [d/2, d) in turn (wigner.wigner_rows
    on the one workspace), and its running upper bound min W32 + beta(d),
    added in float64, is kept. A range runs only on the rows still open:
    those whose bound still reaches ceiling = min(best, -tol), best being
    the largest float64 minimum of the stream so far. A NaN bound stays open,
    and a NaN float64 minimum fails its row and leaves best to the others.
  * Certify. Before any bound, a stream's chunks of _chunk_rows(d) rows run
    whole in float64, in order, until the stream has a finite minimum (its
    first chunk, unless every row of it is NaN), since that sets the first
    best. After the ranges, while a row is open, the row with the largest
    open bound runs alone in float64, and best rises to its minimum.

So every float64 minimum comes from wigner_rows(amps[rows], 0, d, work) on
a whole chunk before the stream has a finite minimum and on one row after
it: the same call on the same rows as when every row ran in float64 so
(tests/oracles.chunked_minima). A dropped row returns its bound, and
it can neither fail nor be the maximum. Its float64 minimum is at most its
bound, which lies below ceiling, so below -tol, and below the best of that
moment, which only rises. So every row at least -tol stays open until it
runs in float64, and so does the row with the stream's largest minimum,
whose bound is at least that minimum; the report is bit for bit the one the
all-float64 calls give. A bound over some of the ranges is an upper
bound already: the minimum over every q is at most the minimum over a part.

At d <= 7 each stream is one chunk, so no bound runs. At d = 61 (seeds 1, 7
and 42) the first range takes the 1,066 rows after the two first chunks, 110
to 141 rows reach the last range, the float32 work is a third of the full
grids, and 3 to 6 single rows run in float64 besides the two first chunks
(37 to 40 rows in all). At d = 401, where a chunk is one row, 102 to 128 of
the 1,100 rows reach the last range and 8 or 9 rows run in float64.

beta(d) (_screen_bound) bounds |W32 - W64| on every grid entry of a sample
row, so |min W32 - min W64| <= beta(d) too. It is derived with Higham's model
(Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1):
fl(x op y) = (x op y)(1 + delta) with |delta| <= u, u = 2^-24 in float32 and
2^-53 in float64, and gamma_n = n u / (1 - n u). One entry is sum_j P_j F_j
over d + 1 reals: P holds the (Re, Im) pairs of the lags L(q, u), F a column
of wigner._real_dft(d, ...). Compare both precisions with that sum taken
exactly on the float64 factor:

  * the terms are small: |F_j| <= 2/d, |Re L| + |Im L| <= sqrt(2) |L|, and by
    Cauchy-Schwarz sum_u |L(q, u)| <= |psi|^2 <= s, the largest squared norm
    a row of qudit.normalize_rows can have, (1 + NORM_TOL) / (1 - gamma_2d);
    so sum_j |P_j F_j| <= 2 sqrt(2) s / d;
  * float32 rounds the amplitudes and then the complex product, a relative
    (1 + u)^2 (1 + sqrt(2) gamma_2) - 1 on each lag, about (2 + 2 sqrt(2)) u;
    it rounds the factor, u, and its sum of d + 1 terms adds gamma_{d+1}
    (for any order of summation, blocked or fused);
  * float64 starts from exact amplitudes and factor: a relative
    (1 + sqrt(2) gamma_2)(1 + gamma_{d+1}) - 1;
  * underflow, outside the model, adds at most 2^-150 to a float32 product
    or conversion, (d + 16) 2^-150 to an entry in all;
  * the bound itself is evaluated in float64 without cancellation, and a
    factor 1 + 2^-40 covers its own rounding.

A grid entry on a q range of wigner.wigner_rows is the same sum: the lag
pairs of its row q against the same column of the factor, d + 1 terms, so
beta(d) covers it however the product is blocked. The errors of the two
sides add: beta(d) is about 2 sqrt(2)(1 + 7/d) u32, 1.9e-7 at d = 61 and
1.7e-7 at d = 401, and at most 5.6e-7, at d = 3. The measured
|min W32 - min W64| is about 2e-9 at d = 61 and 4e-10 at d = 401, while one
chunk's minima at d = 61 spread over about 2e-3.

A sample matches a stabilizer state when its stabilizer_overlaps value is at
least 1 - STABILIZER_MATCH_TOL. That value costs a chirp DFT, O(d^3) per
sample, so an O(d) bound comes first: a quadratic-phase state has modulus
d^(-1/2) everywhere, so by the triangle inequality

    |<s|psi>| <= max( max_k |psi(k)|,  d^(-1/2) sum_q |psi(q)| )

for every stabilizer state s. Only the samples whose bound, inflated by
4 d eps for rounding, reaches 1 - STABILIZER_MATCH_TOL get the chirp DFT. On
Haar samples the bound is about sqrt(pi)/2 ~ 0.886, so in practice none do.

The stabilizer family is not swept grid by grid. It is the Clifford orbit
of |0> (Gross 2006), and Wigner covariance moves each state's grid onto a
line: (1/d) 1[q = k] for |k> and (1/d) 1[p = 2 theta q + x] for the
quadratic-phase state (theta, x), as

    stabilizer k < d           = |0> moved to k: the grid moves by k along q
    stabilizer d + theta d + x = omega^(x q) omega^(theta q^2) uniform: the grid
                                 is sheared p -> p + 2 theta q, then moved by x along p

So the whole family is nonnegative with two bases, and verify_hudson asks
clifford.stabilizer_rows for them alone: |0> (stabilizer 0, on the line
q = 0) stands for the d basis rows, and stabilizer d + 1 (theta = 0, x = 1,
on the line p = 1) for the d^2 quadratic rows, whose grids are its grid
sheared p -> p + 2 theta q, then moved by x - 1 along p. Each base is
processed once: its grid's minimum, its largest deviation from its line (the
report's stabilizer_line_deviation, at most STABILIZER_NONNEG_TOL), a negative
base's first argmin, and, if it is positive, its lemma statistics: modulus
inequality count, support, spread and offset. Every quadratic row gathers its
entries from omega_table(d) / sqrt(d), and row d + 1 holds every entry, so
its spread and offset are the family's maxima. Each value is weighted by the
rows its base stands for; a failing base writes its line failure once and
its other failures for every row it stands for, a negative row at its base's
argmin moved as above. The laws above are identities on integer residues, so
nothing at run time re-checks them; the test suite checks them, and every
index of stabilizer_rows against a second construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .clifford import stabilizer_overlaps, stabilizer_rows
from .qudit import NORM_TOL, StateVector, normalize_rows
from .wigner import lag_products, wigner_rows, wigner_workspace
from .zmod import PrimeDim

SUPPORT_THRESHOLD = 1e-8
STABILIZER_NONNEG_TOL = 1e-12
LEMMA_TOL = 1e-12
STABILIZER_MATCH_TOL = 1e-9
POINT_MASS_TOL = 1e-9
MAX_FAILURE_MESSAGES = 20
# verify_hudson hands the block kernels c consecutive rows at a time, with c
# chosen so that each (c, d, d) temporary holds at most this many complex
# entries (1 MiB): peak memory stays flat however many states it checks, and
# small-d runs of a thousand samples still take one chunk.
CHUNK_ELEMENTS = 1 << 16


def _chunk_rows(d: int) -> int:
    """The rows in one chunk at dimension d: max(1, CHUNK_ELEMENTS // d^2)."""
    return max(1, CHUNK_ELEMENTS // (d * d))


def _block_rows(d: int) -> int:
    """The rows in one sample block at dimension d: the most whole chunks
    whose amplitudes number at most CHUNK_ELEMENTS / 8 (128 KiB as
    complex128), and at least one chunk. 119 rows (7 chunks) at d = 61."""
    step = _chunk_rows(d)
    return max(1, CHUNK_ELEMENTS // 8 // (step * d)) * step


def modulus_violations(moduli: np.ndarray) -> np.ndarray:
    """For each row m of an (n, d) block of moduli, the number of pairs
    (q, x) with m(q)^2 < m(q - x) m(q + x) - LEMMA_TOL."""
    # [n, q, x] -> m(q + x) m(q - x) for x <= (d-1)/2; x = 0 gives m(q)^2. The
    # product is the same float at x and -x, and x = 0 never counts.
    pairs = lag_products(moduli)
    return 2 * np.count_nonzero(pairs[:, :, :1] < pairs - LEMMA_TOL, axis=(1, 2))


def _overlap_bound(amps: np.ndarray) -> np.ndarray:
    """For each row psi of an (n, d) block, an upper bound on its
    stabilizer_overlaps value in O(d): max(max_k |psi(k)|, d^(-1/2) sum_q |psi(q)|).
    A quadratic state has modulus d^(-1/2) everywhere, so by the triangle
    inequality its overlap with psi is at most the second term."""
    moduli = np.abs(amps)
    return np.maximum(moduli.max(axis=1), moduli.sum(axis=1) / math.sqrt(amps.shape[1]))


def _stabilizer_matches(amps: np.ndarray) -> np.ndarray:
    """Per row of an (n, d) block, whether its stabilizer_overlaps value is at
    least 1 - STABILIZER_MATCH_TOL. The chirp DFT runs only on the rows whose
    _overlap_bound, inflated by 4 d eps for rounding in both, reaches that,
    at most _chunk_rows(d) of them per call."""
    n, d = amps.shape
    threshold = 1.0 - STABILIZER_MATCH_TOL
    gated = np.flatnonzero(_overlap_bound(amps) * (1.0 + 4 * d * np.finfo(float).eps) >= threshold)
    matched = np.zeros(n, dtype=bool)
    step = _chunk_rows(d)  # the chirp DFT builds (rows, d, d) temporaries
    for i in range(0, len(gated), step):
        rows = gated[i:i + step]
        matched[rows] = stabilizer_overlaps(amps[rows]) >= threshold
    return matched


def _screen_bound(d: int) -> float:
    """beta(d): a bound on |W32 - W64| over every grid entry of a sample row,
    wigner_rows on the row as complex64 against complex128 (see the module
    docstring for the derivation)."""
    u, v = 2.0**-24, 2.0**-53  # unit roundoff of float32 and float64

    def gamma(n: int, r: float) -> float:
        return n * r / (1 - n * r)

    def compound(*errors: float) -> float:
        """(1 + e_1)(1 + e_2)... - 1, evaluated without cancellation."""
        return math.expm1(sum(map(math.log1p, errors)))

    # float32: the two rounded amplitudes, the complex product, the rounded
    # factor, the sum of d + 1 terms; float64: the last two but the factor's
    single = compound(u, u, math.sqrt(2) * gamma(2, u), u, gamma(d + 1, u))
    double = compound(math.sqrt(2) * gamma(2, v), gamma(d + 1, v))
    norm = (1 + NORM_TOL) / (1 - gamma(2 * d, v))
    bound = 2 * math.sqrt(2) / d * norm * (single + double) + (d + 16) * 2.0**-150
    # every step above has a relative error of at most about 2^-53, and there
    # are fewer than 40 of them
    return bound * (1 + 2.0**-40)


def _block_minima(amps: np.ndarray, work: np.ndarray, best: float, tol: float,
                  beta: float) -> tuple[np.ndarray, float]:
    """Per row of a block of whole sample chunks, its float64 Wigner minimum,
    or an upper bound on it below both -tol and the stream's largest float64
    minimum; and that largest minimum, best before the block (-inf for a
    stream's first block) and after it. The bound and certify phases, and why
    a dropped row can neither fail nor be the maximum, are in the module
    docstring."""
    n, d = amps.shape
    step = _chunk_rows(d)
    minima = np.full(n, math.inf)  # upper bounds, exact once certified
    certified = np.zeros(n, dtype=bool)

    def certify(rows: slice) -> None:
        nonlocal best
        minima[rows] = wigner_rows(amps[rows], 0, d, work).min(axis=(1, 2))
        certified[rows] = True
        best = float(np.fmax.reduce(minima[rows], initial=best))  # the largest non-NaN minimum

    def still_open() -> np.ndarray:
        # written so that a NaN bound stays open
        return np.flatnonzero(~certified & ~(minima < min(best, -tol)))

    for start in range(0, n, step):  # whole chunks until the stream has a finite minimum, the first best
        if best > -math.inf:
            break
        certify(slice(start, start + step))
    # bound: the float32 minima of the open rows over four q ranges in turn
    single = amps.astype(np.complex64)
    edges = [d * k // 8 for k in (0, 1, 2, 4, 8)]
    for start, stop in ((a, b) for a, b in zip(edges, edges[1:]) if b > a):
        if not len(rows := still_open()):
            break
        batch = 2 * work.size // ((stop - start) * (2 * d + 1))  # rows whose range fits work as float32
        for i in range(0, len(rows), batch):
            part = rows[i:i + batch]
            grids = wigner_rows(single[part], start, stop, work)
            minima[part] = np.minimum(minima[part], grids.min(axis=(1, 2)).astype(np.float64) + beta)
    # certify: the row of the largest open bound, until none is open
    while len(rows := still_open()):
        r = int(rows[np.argmax(minima[rows])])
        certify(slice(r, r + 1))
    return minima, best


def support_rows(moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membership mask moduli > SUPPORT_THRESHOLD, and per row whether the
    classification is stable: no modulus within a factor 10 of the threshold."""
    near = (moduli >= SUPPORT_THRESHOLD / 10) & (moduli <= SUPPORT_THRESHOLD * 10)
    return moduli > SUPPORT_THRESHOLD, ~near.any(axis=1)


# ---------------------------------------------------------------------------
# Seeded sampling (per-index substreams)
# ---------------------------------------------------------------------------

_HAAR_STREAM = 0
_TWO_POINT_STREAM = 1


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words filled by hashmix and mix, then read out by generate_state.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pool_state(entropy: list[np.ndarray], n: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for n entropy
    vectors at once; entropy holds one uint32 column per word, each of length
    n or 1. uint32 arrays wrap on overflow as the C code does."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, k] = value ^ (value >> _XSHIFT)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _seed_words(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """Row k is SeedSequence([seed, stream, start + k]).generate_state(4,
    np.uint64) for the indices [start, stop), computed in one pass. The entropy
    is the 32-bit words of seed, then stream, then the index as one uint32
    column. A bool seed or start raises TypeError; a negative seed, or indices
    outside 0 <= start <= stop <= 2^32, ValueError."""
    if isinstance(seed, bool) or isinstance(start, bool):
        raise TypeError("seeds and sample indices must be integers, not bool")
    seed, start, stop = map(operator.index, (seed, start, stop))
    if seed < 0:
        raise ValueError(f"seeds must be nonnegative, got {seed}")
    if not 0 <= start <= stop <= _MASK32 + 1:
        raise ValueError("sample indices must lie in [0, 2^32)")
    prefix = [np.array([w], dtype=np.uint32) for w in _int_words(seed) + _int_words(stream)]
    return _pool_state(prefix + [np.arange(start, stop, dtype=np.uint32)], stop - start)


@functools.cache
def _words_type() -> type:
    """_Words, a stand-in SeedSequence that hands PCG64 one precomputed row
    of _seed_words, so that numpy's own PCG64 seeding runs on exactly what the
    SeedSequence would generate. The class is made on first use: its base
    loads numpy.random (about 10 ms and 5 MB), which the subcommands that draw
    no samples never need."""

    class _Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype):
            return self.words

    return _Words


def _substream(words: np.ndarray) -> np.random.Generator:
    """The generator of one substream, from its row of _seed_words: numpy's
    per-row path."""
    return np.random.Generator(np.random.PCG64(_words_type()(words)))


# numpy's PCG64 (pcg64.h): a 128-bit LCG state -> state * _PCG_MULT + inc,
# held here as (hi, lo) pairs of uint64 arrays, and the XSL-RR output
_MASK64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Rows of at most this many draws take the vector path. The share of rows
# that leave its fast paths grows with the draws, and each costs a per-row
# draw besides: on verify's blocks of Haar rows the vector path took 0.49,
# 0.71 and 0.82 of the per-row path's time at d = 7, 11 and 13, 0.99 at d = 17
# (34 draws) and 1.08 at d = 19 (2-core machine, paired medians).
_VECTOR_DRAWS = 26
# The floor of the quotient that derives ki from wi lies at most this far
# above numpy's ki (see the module docstring)
_KI_MARGIN = 2


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2^128 on (hi, lo) pairs of uint64 arrays, broadcast: the high
    word of lo * lo from 32-bit limbs, uint64 products wrapping as C's do."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    w = a0 * b1 + (u & _MASK32)
    return a1 * b1 + (u >> 32) + (w >> 32) + ah * bl + al * bh, al * bl


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128 on (hi, lo) pairs of uint64 arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


@functools.cache
def _jumps(draws: int) -> tuple:
    """(M^(j+1), 1 + M + ... + M^j) mod 2^128 for j = 1..draws, as (hi, lo)
    uint64 rows, M being _PCG_MULT."""
    mask, power, total, jumps = (1 << 128) - 1, _PCG_MULT, 1, []
    for _ in range(draws):
        total, power = (total + power) & mask, power * _PCG_MULT & mask
        jumps.append((power, total))
    return tuple((np.array([v >> 64 for v in vs], np.uint64), np.array([v & _MASK64 for v in vs], np.uint64))
                 for vs in zip(*jumps))


def _pcg64(words: np.ndarray, draws: int) -> np.ndarray:
    """The first draws outputs of numpy's PCG64 seeded from each row
    (w0, w1, w2, w3) of a block of _seed_words, (n, draws) uint64. Seeding sets
    state 0 and inc = (w2:w3) 2 + 1, steps, adds (w0:w1) and steps, and each
    draw steps, so the state of draw j is M^(j+1) ((w0:w1) + inc) +
    (1 + M + ... + M^j) inc: every state of the block in one pass."""
    w0, w1, w2, w3 = (words[:, k, None] for k in range(4))
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    powers, sums = _jumps(draws)
    hi, lo = _add128(_mul128(_add128((w0, w1), inc), powers), _mul128(inc, sums))
    # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _fast_normals(outputs: np.ndarray, table: tuple) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard_normal on each of the (n, draws) outputs by its fast
    path, x = +-rabs wi[idx]; and per row whether every draw takes it,
    rabs < ki[idx] with ki the derived lower bound."""
    wi, ki = table
    idx = (outputs & 0xFF).astype(np.intp)
    rabs = outputs >> 9 & (1 << 52) - 1
    values = rabs.astype(np.float64) * wi[idx]
    np.negative(values, out=values, where=(outputs & 0x100).astype(bool))
    return values, (rabs < ki[idx]).all(axis=1)


def _fast_pairs(outputs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's choice(d, 2, replace=False) from each row's first two outputs:
    per row the pair, and whether no Lemire draw reached its rejection test.
    Floyd's two steps draw a in [0, d - 2] from the low half of the first
    output and b in [0, d - 1] from its high half (next_uint32 buffers the
    high half), b = d - 1 if b == a; the shuffle's one draw in [0, 1], from
    the low half of the second output, swaps them to [b, a] if 0."""

    def lemire(halves: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
        m = halves * np.uint64(bound)
        return m >> 32, (m & _MASK32) < bound

    a, ra = lemire(outputs[:, 0] & _MASK32, d - 1)
    b, rb = lemire(outputs[:, 0] >> 32, d)
    swap, rs = lemire(outputs[:, 1] & _MASK32, 2)
    b = np.where(b == a, d - 1, b)
    pos = np.where((swap == 0)[:, None], np.stack((b, a), axis=1), np.stack((a, b), axis=1))
    return pos.astype(np.intp), ~(ra | rb | rs)


def _sample_draws(d: int, stream: int, words: np.ndarray,
                  table: tuple | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a block of stream's _seed_words: its positions (all d for Haar,
    one shared arange; choice(d, 2, replace=False) for two-point), its 2d or 4
    standard normals (real parts, then imaginary parts) and whether the vector
    path drew it. table turns that path on; None sends every row to numpy's."""
    n, haar = len(words), stream == _HAAR_STREAM
    count = 2 * d if haar else 4
    pos = np.arange(d) if haar else np.empty((n, 2), dtype=np.intp)
    if table:
        outputs = _pcg64(words, count if haar else count + 2)
        raw, fast = _fast_normals(outputs[:, -count:], table)
        if not haar:
            pos, paired = _fast_pairs(outputs, d)
            fast &= paired
    else:
        raw, fast = np.empty((n, count)), np.zeros(n, bool)
    for k in np.flatnonzero(~fast).tolist():
        rng = _substream(words[k])
        if not haar:
            pos[k] = rng.choice(d, size=2, replace=False)
        rng.standard_normal(out=raw[k])
        del rng  # freed before the next one is built, which is 1.5 % faster per row
    return pos, raw, fast


@functools.cache
def _normal_table() -> tuple[np.ndarray, np.ndarray] | None:
    """(wi, ki) of numpy's standard_normal fast path, wi read from numpy and ki
    the derived lower bounds; None, and every row on numpy's per-row path, if
    the vector path fails its self-check (see the module docstring). Read and
    checked once per process, in about 2 ms."""
    rng = _substream(np.zeros(4, dtype=np.uint64))
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    state = {"state": 0, "inc": 1}
    wi = np.empty(256)
    for idx in range(256):
        # inc 1: the next state is (0 : idx | 1 << 9), which XSL-RR outputs as
        # it is: index idx, sign +, rabs 1. ki[1] is 0, and the slow path's
        # wedge test accepts the draw too.
        state["state"] = ((idx | 1 << 9) - 1) * inverse % (1 << 128)
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        wi[idx] = rng.standard_normal()
    ratios = np.concatenate(([wi[255] / wi[0], 0.0], wi[1:-1] / wi[2:]))
    table = wi, np.maximum(np.floor(ratios * 2.0**52) - _KI_MARGIN, 0).astype(np.uint64)
    # the self-check block: every row of it on both paths
    words = _seed_words(0, _HAAR_STREAM, 0, 16)
    same = all(np.array_equal(a, b) for d, stream in ((_VECTOR_DRAWS // 2, _HAAR_STREAM), (5, _TWO_POINT_STREAM))
               for a, b in zip(_sample_draws(d, stream, words, table)[:2], _sample_draws(d, stream, words, None)[:2]))
    return table if same else None


def _sample_rows(d: int, stream: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit rows of stream from a block of its _seed_words, and per row
    whether the vector path drew it: the one cutover sends the rows of at most
    _VECTOR_DRAWS draws (2d Haar, 6 two-point) to that path."""
    haar = stream == _HAAR_STREAM
    table = _normal_table() if (2 * d if haar else 6) <= _VECTOR_DRAWS else None
    pos, raw, fast = _sample_draws(d, stream, words, table)
    if haar:
        # the same floats as raw[:, :d] + 1j * raw[:, d:], built in place; raw goes before normalize_rows copies
        amps = 1j * raw[:, d:]
        amps += raw[:, :d]
    else:
        amps = np.zeros((len(words), d), dtype=complex)
        amps[np.arange(len(words))[:, None], pos] = raw[:, :2] + 1j * raw[:, 2:]
    del raw
    return normalize_rows(amps), fast


def _seeded_blocks(n: int, d: int, seed: int, stream: int) -> Iterator[tuple[range, np.ndarray]]:
    """range(n) of one stream as (indices, rows) pairs: blocks of _block_rows(d)
    indices and their _sample_rows. The words are hashed in runs of whole blocks,
    at most CHUNK_ELEMENTS indices (2 MiB) each: one run per stream by default."""
    step = _block_rows(d)
    run = max(1, CHUNK_ELEMENTS // step) * step
    for start in range(0, n, run):
        indices = range(start, min(start + run, n))
        words = _seed_words(seed, stream, indices.start, indices.stop)
        for i in range(0, len(indices), step):
            yield indices[i : i + step], _sample_rows(d, stream, words[i : i + step])[0]


def haar_sample(dim: PrimeDim, seed: int, index: int) -> StateVector:
    """Haar-random state i of the run; depends only on (seed, index)."""
    words = _seed_words(seed, _HAAR_STREAM, index, operator.index(index) + 1)
    return StateVector(dim, _sample_rows(dim.d, _HAAR_STREAM, words)[0][0])


def two_point_sample(dim: PrimeDim, seed: int, index: int) -> StateVector:
    """State supported on two uniformly chosen positions, amplitudes uniform
    on the unit sphere of the two-dimensional subspace."""
    words = _seed_words(seed, _TWO_POINT_STREAM, index, operator.index(index) + 1)
    return StateVector(dim, _sample_rows(dim.d, _TWO_POINT_STREAM, words)[0][0])


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one verify_hudson run; passes iff failures_total is zero.

    failures holds the first MAX_FAILURE_MESSAGES failure messages in index
    order; failures_total counts all of them.
    """

    dim: int
    seed: int
    tol: float
    stabilizer_tol: float
    stabilizer_count: int
    stabilizers_all_nonneg: bool
    stabilizer_min_wigner: float
    stabilizer_line_deviation: float
    random_samples: int
    random_all_negative: bool
    random_all_nonstabilizer: bool
    random_max_min_wigner: float
    two_point_samples: int
    two_point_all_negative: bool
    two_point_max_min_wigner: float
    lemma4_violations: int
    lemma5_support_sizes: dict[int, int]
    lemma6_max_modulus_spread: float
    lemma6_max_modulus_offset: float
    support_guard_stable: bool
    point_mass_infeasible: bool
    failures: list[str]
    failures_total: int

    @property
    def passed(self) -> bool:
        return self.failures_total == 0

    def to_dict(self) -> dict:
        """asdict, JSON-ready: a non-finite float (-inf for an all-NaN stream) becomes None."""
        doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in asdict(self).items()}
        doc["lemma5_support_sizes"] = {str(k): v for k, v in sorted(self.lemma5_support_sizes.items())}
        doc["passed"] = self.passed
        return doc


class _Failures:
    """Failure count plus the first MAX_FAILURE_MESSAGES messages."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.total = 0

    def add(self, count: int, messages: Iterable[str]) -> None:
        """Count count failures; messages yields their messages in order and
        is read only as far as the kept messages go, so a failing base costs
        O(MAX_FAILURE_MESSAGES) however many rows it stands for."""
        self.total += count
        self.messages += itertools.islice(messages, max(0, MAX_FAILURE_MESSAGES - len(self.messages)))


def verify_hudson(
    dim: PrimeDim,
    samples: int,
    seed: int,
    tol: float = 1e-9,
    two_point_samples: int = 100,
) -> VerificationReport:
    """Run the full certification battery for one dimension.

    Stabilizer states must be nonnegative at the fixed 1e-12 tolerance;
    random and two-point states must dip below -tol. The report is a pure
    function of (dim, samples, seed, tol, two_point_samples).

    tol must be a finite, nonnegative real number: with a negative or NaN tol no
    sample could fail the negativity check, so the report would certify nothing,
    and with an infinite one every sample would fail. The seed must be a
    nonnegative integer, not a bool; the sample counts too, and at most 2^32
    (the substream indices). All three are stored as ints and tol as a float,
    so the report is JSON-ready.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise TypeError(f"tol must be a real number, got {type(tol).__name__}")
    if any(isinstance(n, bool) for n in (seed, samples, two_point_samples)):
        raise TypeError("the seed and sample counts must be integers, not bool")
    seed, samples, two_point_samples = map(operator.index, (seed, samples, two_point_samples))
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if samples < 0 or two_point_samples < 0:
        raise ValueError(f"sample counts must be nonnegative, got {samples!r} and {two_point_samples!r}")
    if max(samples, two_point_samples) > _MASK32 + 1:
        raise ValueError(f"sample counts must be at most 2^32, got {samples!r} and {two_point_samples!r}")
    if seed < 0:
        raise ValueError(f"seeds must be nonnegative, got {seed!r}")
    failures = _Failures()
    d = dim.d

    # Two rows stand for the whole family (see the module docstring). Each base:
    # its index, the rows it stands for, its line, and where each row's grid
    # takes the base grid's (p, q)
    bases = ((0, range(d), (0, slice(None)), lambda idx, p, q: (p, (q + idx) % d)),
             (d + 1, range(d, d * (d + 1)), (slice(None), 1),
              lambda idx, p, q: ((p + 2 * (idx // d - 1) * q + idx % d - 1) % d, q)))
    rows = stabilizer_rows(d, [0, d + 1])
    m = np.abs(rows)
    violations = modulus_violations(m)
    inside, stable = support_rows(m)
    size = inside.sum(axis=1)
    spread = m.max(axis=1) - m.min(axis=1)
    offset = np.abs(m - 1.0 / math.sqrt(d)).max(axis=1)
    # the one Wigner workspace, once the lemma temporaries are gone: each base grid, then the sample chunks
    work = wigner_workspace(max(1, min(_chunk_rows(d), max(samples, two_point_samples))), d)
    base_minima, deviations, sizes = [], [], {}
    lemma4_violations, max_spread, max_offset, guard_stable = 0, 0.0, 0.0, True
    for b, (index, members, line, where) in enumerate(bases):
        grid = wigner_rows(rows[b:b + 1], 0, d, work)[0]  # [q, p], overwritten by the next call
        minimum = float(grid.min())
        positive = minimum >= -STABILIZER_NONNEG_TOL
        if not positive:
            p, q = divmod(int(grid.T.argmin()), d)  # the first argmin, in (p, q) order
        grid[line] -= 1.0 / d
        deviation = float(np.abs(grid, out=grid).max())
        base_minima.append(minimum)
        deviations.append(deviation)
        if not deviation <= STABILIZER_NONNEG_TOL:  # written so that NaN fails too
            failures.add(1, [f"stabilizer {index} is off its exact Wigner line by {deviation!r}"])
        if not positive:  # a NaN minimum is at no position of the grid, so it names none
            failures.add(len(members), (f"stabilizer {idx} has no finite Wigner minimum" if math.isnan(minimum)
                                        else f"stabilizer {idx} has Wigner minimum {minimum!r} at {where(idx, p, q)}"
                                        for idx in members))
            continue
        # the lemma checks apply to states that passed positivity, each count
        # weighted by the rows the base stands for
        full = size[b] == d
        lemma4_violations += len(members) * int(violations[b])
        sizes[int(size[b])] = sizes.get(int(size[b]), 0) + len(members)
        guard_stable = guard_stable and bool(stable[b])
        if full:
            max_spread, max_offset = max(max_spread, float(spread[b])), max(max_offset, float(offset[b]))
        # each failed lemma check, as a template of the row index {0} and its value {1}
        checks = [(template, value) for failed, template, value in (
            (violations[b] > 0, "stabilizer {0} violates the modulus inequality {1} times", int(violations[b])),
            (not stable[b], "support threshold guard tripped on stabilizer {0}; run inconclusive", None),
            (not (size[b] == 1 or full), "stabilizer {0} has support size {1}, expected 1 or " + str(d),
             int(size[b])),
            (full and spread[b] > LEMMA_TOL, "stabilizer {0} has modulus spread {1!r}", float(spread[b])),
            (full and offset[b] > LEMMA_TOL, "stabilizer {0} modulus is off d^-1/2 by {1!r}", float(offset[b])),
        ) if failed]
        if checks:  # else the messages would walk every row the base stands for, and yield none
            failures.add(len(checks) * len(members), (template.format(idx, value)
                                                       for idx in members for template, value in checks))
    stabilizer_min = float(np.min(base_minima))  # NaN, if a base's is

    beta = _screen_bound(d)

    random_all_nonstabilizer = True
    all_negative, max_minima = [], []
    for stream, n, label in ((_HAAR_STREAM, samples, "random sample"),
                             (_TWO_POINT_STREAM, two_point_samples, "two-point sample")):
        negative, best = True, -math.inf
        for indices, amps in _seeded_blocks(n, d, seed, stream):
            minima, best = _block_minima(amps, work, best, tol, beta)
            nonneg = ~(minima < -tol)  # written so that a NaN minimum fails too
            # only the Haar samples are matched against the stabilizer states
            matched = _stabilizer_matches(amps) if stream == _HAAR_STREAM else np.zeros_like(nonneg)
            negative = negative and not nonneg.any()
            random_all_nonstabilizer = random_all_nonstabilizer and not matched.any()
            for k in np.flatnonzero(nonneg | matched).tolist():
                if nonneg[k]:
                    m = float(minima[k])
                    value = "no finite Wigner minimum" if math.isnan(m) else f"Wigner minimum {m!r} >= -{tol!r}"
                    failures.add(1, [f"{label} {indices[k]} has {value}"])
                if matched[k]:
                    failures.add(1, [f"{label} {indices[k]} matches a stabilizer state"])
        all_negative.append(negative)
        max_minima.append(best if n else 0.0)

    point_mass = single_point_infeasibility(dim)
    if not point_mass:
        failures.add(1, ["the point mass at the origin is not certified infeasible"])

    return VerificationReport(
        dim=d,
        seed=seed,
        tol=tol,
        stabilizer_tol=STABILIZER_NONNEG_TOL,
        stabilizer_count=d * (d + 1),
        stabilizers_all_nonneg=stabilizer_min >= -STABILIZER_NONNEG_TOL,
        stabilizer_min_wigner=stabilizer_min,
        stabilizer_line_deviation=float(np.max(deviations)),
        random_samples=samples,
        random_all_negative=all_negative[0],
        random_all_nonstabilizer=random_all_nonstabilizer,
        random_max_min_wigner=max_minima[0],
        two_point_samples=two_point_samples,
        two_point_all_negative=all_negative[1],
        two_point_max_min_wigner=max_minima[1],
        lemma4_violations=lemma4_violations,
        lemma5_support_sizes=sizes,
        lemma6_max_modulus_spread=max_spread,
        lemma6_max_modulus_offset=max_offset,
        support_guard_stable=guard_stable,
        point_mass_infeasible=point_mass,
        failures=failures.messages,
        failures_total=failures.total,
    )


def single_point_infeasibility(dim: PrimeDim) -> bool:
    """True iff the Wigner grid concentrated at the origin (value 1) cannot
    come from a positive semidefinite operator.

    That grid's operator A is the parity |q> -> |-q>, which sends the unit
    witness v = (|1> - |-1>) / sqrt(2) to -v. Operators pair through their
    grids, <v|A|v> = tr(A |v><v|) = d sum W_A W_v (Gross 2006), so for the
    point mass <v|A|v> = d W_v(0, 0): one entry of the witness's grid, from
    its q = 0 row alone. A value below -POINT_MASS_TOL, which no positive
    semidefinite operator takes, certifies infeasibility; it is -1.
    """
    d = dim.d
    v = np.zeros((1, d), dtype=complex)
    v[0, 1], v[0, -1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    row = wigner_rows(v, 0, 1)  # [0, 0, p] -> W_v(p, 0)
    return bool(d * row[0, 0, 0] < -POINT_MASS_TOL)

"""Finite-size empirical oracle for the extreme sparse singular values.

Samples m x n standard Gaussian matrices, walks supports of size k
(exhaustively when C(n, k) fits the budget, otherwise a deterministic
sample), and records

    uric = max over supports of sigma_max(A[:, S]) / sqrt(m)
    lric = min over supports of sigma_min(A[:, S]) / sqrt(m)

per matrix trial.  The extremes sandwich the theoretical bounds at
finite n and are the package's ground truth for acceptance checks.

Randomness is counter-based: every matrix entry is a pure function of
(seed, trial, row, col) through a splitmix64-style mixer feeding a
Box-Muller transform.  Trials are therefore reproducible independently
of evaluation order and safe to fan out.

Sampled supports come from the same kind of counter: counter c of a
trial's sequence draws one uniform k-subset by Floyd's algorithm, run
in numpy across a batch of counters in the narrowest unsigned dtype
that holds n - 1, and the first `budget` distinct subsets in counter
order are the trial's supports.  Repeats are found by a uint64
colex-rank key, injective while C(n, k) < 2^64; only rows that share a
key are compared in full, so the result is exact when it wraps too.

Per-support extreme singular values come from the k x k Gram form of
the submatrix (symmetric PSD eigenproblem); the Gram matrices are
gathered from a single precomputed A^T A per trial.  Only the per-trial
extremes are needed, so the blocks with extreme diagonals in an evenly
strided sample of the supports set incumbents, a batched Cholesky
screen then discards every support that provably cannot beat the
current extremes, and eigvalsh runs on the rest.  The screen runs in
float32 on a copy of A^T A rescaled by a power of two, gathering each
block's lower triangle once and factoring both sides in one pass, with
a margin sized by the backward error of float32 Cholesky; eigvalsh runs
in float64 on the original.  The reported extremes are exactly those of
eigvalsh over all supports.  In sampled mode each empirical_ric call
allocates the screen's arrays once and reuses them across chunks and
trials; the sampler allocates its own per batch, as reusing them did not
pay.

In exhaustive mode the supports are not listed.  A lex subset lattice
builds each block's factor row by row: the last row of S comes from
those of S[:-1] and S[:-2] + (s_j,), so a row is computed once for all
the supports that share it, in O(k) per support.  Its float32 operations
and their order are those of the chunked screen, so at the incumbents'
shifts it skips exactly the blocks that screen skips; only the rest are
listed, and they go through the chunked screen and eigvalsh.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Stream separators for the two Box-Muller uniforms.
_STREAM_A = 0x243F6A8885A308D3
_STREAM_B = 0x13198A2E03707344

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"


def _mix64_array(z: np.ndarray, out: np.ndarray | None = None,
                 spare: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wrapping), into out (may be z) via spare."""
    z = np.add(z, np.uint64(_GOLDEN), out=out)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=spare)
        z *= np.uint64(mul)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=spare), out=z)


def _trial_base(seed: int, trial: int) -> np.ndarray:
    """Key of one (seed, trial) pair, as a 1-element uint64 array."""
    keys = _mix64_array(np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64))
    return _mix64_array(keys[:1] ^ keys[1:])


def _entry_normals(seed: int, trial: int, m: int, n: int) -> np.ndarray:
    """m x n standard normals keyed per entry by (seed, trial, row, col)."""
    base = _trial_base(seed, trial)
    rows = np.arange(m, dtype=np.uint64)[:, None]
    cols = np.arange(n, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        key = _mix64_array((rows << np.uint64(32) | cols) ^ base)
        a = _mix64_array(key ^ np.uint64(_STREAM_A))
        b = _mix64_array(key ^ np.uint64(_STREAM_B))
    # 53-bit uniforms offset into (0, 1) so log never sees zero.
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u2 = ((b >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class GaussianMatrix(namedtuple("GaussianMatrix", ("m", "n", "seed", "trial", "entries"))):
    """An m x n matrix of i.i.d. standard normals, reproducible from its key."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, seed: int, trial: int, entries: np.ndarray) -> GaussianMatrix:
        if not 0 < m < n:
            raise ValueError(f"requires 0 < m < n, got m={m}, n={n}")
        if entries.shape != (m, n):
            raise ValueError(f"entries shape {entries.shape} != ({m}, {n})")
        return super().__new__(cls, m, n, seed, trial, entries)


class EmpiricalEstimate(namedtuple("EmpiricalEstimate", ("quantity", "mean", "stddev", "trials",
                                                         "mode", "supports_per_trial",
                                                         "per_trial"))):
    """Across-trial statistics of one normalized extreme.

    ``quantity`` is "uric" or "lric", ``mode`` MODE_EXHAUSTIVE or
    MODE_SAMPLED, and ``per_trial`` a tuple of the per-trial values.  In
    sampled mode the per-trial uric values are lower bounds on the
    exhaustive extreme and the lric values upper bounds (max/min over a
    subset of supports).
    """

    __slots__ = ()


def sample_matrix(m: int, n: int, seed: int, trial: int = 0) -> GaussianMatrix:
    """Draw the (seed, trial)-keyed Gaussian matrix and sanity-check it.

    The entries must look like standard normals in bulk: sample mean
    within 4/sqrt(mn) and sample variance within 1 +- 4*sqrt(2/(mn)).
    A violation indicates a generator defect, not an unlucky draw, and
    raises ArithmeticError.
    """
    if not 0 < m < n:
        raise ValueError(f"sample_matrix requires 0 < m < n, got m={m}, n={n}")
    entries = _entry_normals(seed, trial, m, n)
    entries.setflags(write=False)
    count = m * n
    mean = float(entries.mean())
    var = float(entries.var())
    if abs(mean) > 4.0 / math.sqrt(count):
        raise ArithmeticError(f"generator sanity check failed: mean {mean} at m={m}, n={n}")
    if abs(var - 1.0) > 4.0 * math.sqrt(2.0 / count):
        raise ArithmeticError(f"generator sanity check failed: variance {var} at m={m}, n={n}")
    return GaussianMatrix(m=m, n=n, seed=seed, trial=trial, entries=entries)


def _buffer(work: dict | None, name: str, shape: tuple, dtype: type) -> np.ndarray:
    """An uninitialized C-contiguous array on the memory of work[name],
    which is replaced only when it is too small; a new one without work."""
    work = {} if work is None else work
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if name not in work or work[name].size < nbytes:
        work[name] = np.empty(nbytes, dtype=np.uint8)
    return work[name][:nbytes].view(dtype).reshape(shape)


def _first_distinct(rows: np.ndarray, key: np.ndarray) -> np.ndarray | None:
    """Ascending indices of each distinct row's first occurrence; None if all keys differ.

    Equal rows must have equal keys.  A row whose key no other row has is
    a first occurrence; only the rows that share a key are compared in
    full, as opaque byte strings."""
    ordered = np.sort(key)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if not repeated.size:
        return None
    shared = np.isin(key, repeated)
    keep = ~shared
    rest = np.flatnonzero(shared)
    if rest.size:
        sub = rows[rest]
        _, first = np.unique(sub.view(np.dtype((np.void, sub.itemsize * sub.shape[1]))).ravel(),
                             return_index=True)
        keep[rest[first]] = True
    return np.flatnonzero(keep)


def _sort_columns(a: np.ndarray) -> None:
    """Sort every column of a (k, B) array in place, by an odd-even
    transposition network of k rounds over its rows."""
    k = a.shape[0]
    spare = np.empty_like(a[0])
    for r in range(k):
        for i in range(r % 2, k - 1, 2):
            np.minimum(a[i], a[i + 1], out=spare)
            np.maximum(a[i], a[i + 1], out=a[i + 1])
            a[i] = spare


@functools.lru_cache(maxsize=8)
def _colex_weights(n: int, k: int) -> np.ndarray:
    """Read-only (k, n) table of C(s, i + 1) mod 2^64, the colex rank
    weight of value s in sorted position i."""
    binom = np.array(
        [[math.comb(s, i + 1) & _MASK64 for s in range(n)] for i in range(k)], dtype=np.uint64
    )
    binom.setflags(write=False)
    return binom


def _sampled_supports(n: int, k: int, budget: int, seed: int, trial: int) -> np.ndarray:
    """First `budget` distinct supports of the deterministic (seed, trial)
    sequence.  Prefixes of the same sequence are nested, so growing the
    budget can only extend the support set.

    Counter c of the sequence draws Floyd's uniform k-subset of {0..n-1}
    from the mixer state keyed by (base, c); a batch of counters runs the
    k Floyd steps on a (k, batch) array, one row per step, in the
    narrowest unsigned dtype that holds n - 1.  Repeats are keyed by the
    colex rank sum_i C(s_i, i+1) of the sorted row, which wraps in uint64
    and is injective while C(n, k) < 2^64.  The budget-th distinct support
    must come from a counter below 50 * budget + 1000."""
    base = _mix64_array(_trial_base(seed, trial) ^ np.uint64(0x5851F42D4C957F2D))
    binom = _colex_weights(n, k)
    narrow = np.min_scalar_type(n - 1)
    limit = 50 * budget + 1000
    found = np.empty((0, k), dtype=narrow)
    start = 0
    # The first batch covers the expected number of counters up to the
    # budget-th distinct support, -C ln(1 - budget/C) with C = C(n, k),
    # plus a few standard deviations of the repeats, so one batch nearly
    # always suffices; later batches double.  The result does not depend
    # on the batch sizes.
    frac = budget / math.comb(n, k)
    draws = budget * (-math.log1p(-frac) / frac if 0.0 < frac < 1.0 else 1.0)
    stop = min(math.ceil(draws + 4.0 * math.sqrt(max(draws - budget, 0.0))) + 16, limit)
    while True:
        count, size = stop - start, found.shape[0] + stop - start
        spare, key = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        hits, chosen = np.empty((k, count), dtype=bool), np.empty((k, count), dtype=narrow)
        state = _mix64_array(np.arange(start, stop, dtype=np.uint64), spare=spare[:count])
        state ^= base
        _mix64_array(state, state, spare[:count])
        for i, j in enumerate(range(n - k, n)):
            _mix64_array(state, state, spare[:count])
            np.remainder(state, np.uint64(j + 1), out=chosen[i], casting="unsafe")
            np.equal(chosen[:i], chosen[i], out=hits[:i])
            np.copyto(chosen[i], j, where=hits[:i].any(axis=0))
        _sort_columns(chosen)
        rows = np.concatenate([found, chosen.T])
        # mode="clip" lets take write to out directly; every index is < n.
        np.take(binom[0], rows[:, 0], out=key, mode="clip")
        for i in range(1, k):
            key += np.take(binom[i], rows[:, i], out=spare, mode="clip")
        first = _first_distinct(rows, key)
        found = rows if first is None else rows[first]
        if found.shape[0] >= budget:
            return found[:budget].astype(np.intp)
        if stop == limit:
            raise RuntimeError(
                f"could not draw {budget} distinct supports from C({n},{k})={math.comb(n, k)}"
            )
        start, stop = stop, min(2 * stop, limit)


# Supports per screened chunk, and incumbents per side.
_CHUNK = 4096
_INCUMBENTS = 32


def _cholesky_succeeds(mats: np.ndarray) -> np.ndarray:
    """Per matrix, whether floating-point Cholesky completes with positive
    pivots.  mats is (k, k, B); only its lower triangle is read, and it
    is overwritten."""
    k = mats.shape[0]
    ok = np.ones(mats.shape[2], dtype=bool)
    for j in range(k):
        ok &= mats[j, j] > 0.0
        # A failed matrix gets an infinite pivot, which zeroes its column
        # and leaves its trailing block finite.
        col = mats[j + 1 :, j] / np.sqrt(np.where(ok, mats[j, j], np.inf))
        for i in range(j + 1, k):  # lower triangle of the trailing block
            mats[i, j + 1 : i + 1] -= col[i - j - 1] * col[: i - j]
    return ok


def _screen_copy(gram_full: np.ndarray, k: int) -> tuple[float, int, np.ndarray, float]:
    """(max diag, shift, row-major flat float32 copy of 2^shift * gram_full,
    margin per unit of max(max diag, lambda_max)) for the k x k screens;
    see _extreme_gram_eigs."""
    top = float(np.diagonal(gram_full).max())
    shift = 1 - math.frexp(top)[1]
    gram32 = np.ldexp(gram_full, shift).astype(np.float32).ravel()
    return top, shift, gram32, 4.0 * k * (k + 1) * float(np.finfo(np.float32).eps)


def _chunk_skips(gram32: np.ndarray, n: int, block: np.ndarray, lower: np.float32,
                 upper: np.float32, work: dict | None = None) -> np.ndarray:
    """Per support of block, whether _cholesky_succeeds holds for both
    G - lower I and upper I - G (G its block of the flat float32 gram32)
    in one pass over (k, k, 2B), the second half the negated first; only
    lower triangles are gathered and read.  The arrays live in work."""
    size, k = block.shape
    idx, row = _buffer(work, "idx", (k, size), np.intp), _buffer(work, "row", (k, size), np.float32)
    mats = _buffer(work, "mats", (k, k, 2 * size), np.float32)
    for i in range(k):
        np.take(gram32, np.add(block.T[: i + 1], n * block[:, i], out=idx[: i + 1]),
                out=row[: i + 1], mode="clip")
        mats[i, : i + 1, :size] = row[: i + 1]
        np.negative(row[: i + 1], out=mats[i, : i + 1, size:])
    on_diag = mats.reshape(k * k, 2 * size)[:: k + 1]
    on_diag[:, :size] -= lower
    on_diag[:, size:] += upper
    ok = _cholesky_succeeds(mats)
    return ok[:size] & ok[size:]


def _extreme_gram_eigs(gram_full: np.ndarray, supports: np.ndarray,
                       work: dict | None = None) -> tuple[float, float]:
    """(min, max) eigenvalue over all k x k Gram blocks indexed by supports.

    Exactly the extremes of per-block eigvalsh, found without running
    eigvalsh on most blocks.  First, among an evenly strided sample of at
    most about _CHUNK supports, the blocks with the smallest and the
    largest diagonal entries (lambda_min <= min diag <= max diag <=
    lambda_max) go through eigvalsh and give incumbents lo and hi.  Then,
    chunk by chunk, a block G is skipped when _chunk_skips proves in one
    float32 pass that it cannot beat the current extremes: G - (lo + margin) I
    and (hi - margin) I - G both factor.  The remaining blocks go through
    the same eigvalsh on the float64 gram_full, so the extremes do not
    depend on which incumbents were chosen.  The arrays live in work.

    The screen reads a float32 copy of s * gram_full, where s is the power
    of two that puts the largest diagonal entry d into [1, 2): the copy
    cannot overflow, and scaling by s is exact.  Let u = eps32 / 2 and
    r = max(d, hi).  For a block G that passes, the margin has to cover,
    in the 2-norm:
    - the cast: |fl(g_ij) - g_ij| <= u |g_ij| <= u sqrt(g_ii g_jj) in a
      Gram block, at most u tr(G) <= u k r in all (gradual underflow
      adds at most 2^-149 per entry, far below u s d >= u);
    - the diagonal shift: rounding lo + margin or hi - margin to float32
      and one subtraction per diagonal entry, at most 3 u r;
    - Cholesky: if it completes with positive pivots on the float32
      matrix A, then R^T R = A + dA is positive definite with
      |dA| <= g |R^T| |R|, g = (k + 1) u / (1 - (k + 1) u) (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3).
      The squared column norms of R are the diagonal of A + dA, so
      ||dA|| <= g tr(A) / (1 - g) <= k (k + 1) u r (1 + O(k u)): each
      diagonal entry of G - (lo + margin) I or (hi - margin) I - G is at
      most r;
    - eigvalsh: a backward-stable float64 solve errs by O(k eps64 tr(G)),
      some 2^-28 of the Cholesky term.
    So a skipped block has an eigvalsh minimum of at least
    lo + margin - (k^2 + 2 k + 3) u r (1 + O(k u)) and a maximum of at
    most hi - margin + the same.  margin = 4 k (k + 1) eps32 r, which is
    8 k (k + 1) u r, exceeds that error at every k >= 1 while
    k (k + 1) eps32 is small; it is 3.4e-5 r at k = 8.  hi enters r
    because (hi - margin) I - G has diagonal entries up to hi, and hi
    can reach k d."""
    n = gram_full.shape[0]
    k = supports.shape[1]
    diag = np.diagonal(gram_full)
    top, shift, gram32, slack = _screen_copy(gram_full, k)
    lam_min = math.inf
    lam_max = -math.inf

    def solve(rows: np.ndarray) -> None:
        nonlocal lam_min, lam_max
        eigs = np.linalg.eigvalsh(gram_full[rows[:, :, None], rows[:, None, :]])
        lam_min = min(lam_min, float(eigs[:, 0].min()))
        lam_max = max(lam_max, float(eigs[:, -1].max()))

    step = -(-supports.shape[0] // _CHUNK)
    sample = supports[::step]
    count = min(_INCUMBENTS, sample.shape[0])
    sample_diag = diag[np.ascontiguousarray(sample.T)]  # (k, count): elementwise reductions
    solve(sample[np.union1d(
        np.argpartition(sample_diag.min(axis=0), count - 1)[:count],
        np.argpartition(-sample_diag.max(axis=0), count - 1)[:count],
    )])

    for start in range(0, supports.shape[0], _CHUNK):
        block = supports[start : start + _CHUNK]
        margin = slack * max(top, lam_max)
        skip = _chunk_skips(gram32, n, block, np.float32(math.ldexp(lam_min + margin, shift)),
                            np.float32(math.ldexp(lam_max - margin, shift)), work)
        if not skip.all():
            solve(block[~skip])
    return lam_min, lam_max


@functools.lru_cache(maxsize=8)
def _lex_lattice(n: int, k: int) -> tuple[tuple, ...]:
    """Read-only tables (counts, u, g, pieces) of levels 2..k of the lex
    subset lattice.  Level 1 is the n singletons; level j lists in lex
    order the j-subsets S whose prefix T = S[:-1] can start a k-subset, so
    level k is every k-subset.  The records sharing T are contiguous, so
    an array over level j - 1 repeated by counts lines up with level j.
    u indexes U = S[:-2] + (s_j,) in level j - 1, g = s_j n + s_{j-1} is
    the flat index of the pair's lower-triangle entry, and pieces cuts the
    level at prefix boundaries into runs (p0, p1, r0, r1) of about _CHUNK
    records r0..r1 - 1 with prefixes p0..p1 - 1."""
    index = np.int32 if max(n * n, k * math.comb(n, k)) < 2**31 else np.intp
    last, base = np.arange(n), np.zeros(n, dtype=np.intp)  # u = base[T] + s_j
    levels = []
    for j in range(2, k + 1):
        counts = np.where(last <= n - k + j - 2, n - 1 - last, 0)
        first = np.concatenate([[0], np.cumsum(counts)])
        t = np.repeat(np.arange(counts.size), counts)
        prev, last = last[t], last[t] + 1 + np.arange(t.size) - first[t]
        tables = [a.astype(index) for a in (counts, base[t] + last, last * n + prev)]
        base = first[t] - prev - 1
        for table in tables:
            table.setflags(write=False)
        cuts = np.unique(np.append(np.searchsorted(first, np.arange(0, t.size, _CHUNK)), counts.size))
        levels.append((*tables, tuple(zip(cuts[:-1], cuts[1:], first[cuts[:-1]], first[cuts[1:]]))))
    return tuple(levels)


def _lattice_rows(n: int, k: int, index: np.ndarray) -> np.ndarray:
    """The k-subsets at the given lex ranks, one row each."""
    rows = np.empty((index.size, k), dtype=np.intp)
    for j, (counts, _, g, _) in reversed(list(enumerate(_lex_lattice(n, k), start=2))):
        rows[:, j - 1] = g[index] // n
        index = np.searchsorted(np.cumsum(counts), index, side="right")
    rows[:, 0] = index
    return rows


def _lattice_skips(gram32: np.ndarray, n: int, k: int, lower: np.float32,
                   upper: np.float32) -> np.ndarray:
    """Per k-subset in lex order, whether _cholesky_succeeds holds for both
    G - lower I and upper I - G, G its block of the flat float32 gram32.

    The last factor row of a level-j record S is (off(U), x), where
    x = (g_{s_j s_{j-1}} - off(T) . off(U)) / lambda(T); its pivot is
    pivot(U) - x^2 and lambda(S) = sqrt(pivot(S)).  The dot product is
    subtracted term by term and a failed record gets an infinite lambda,
    as in _cholesky_succeeds, so each pivot is the one it computes.  The
    two sides run side by side in the last axis, a piece at a time."""
    pair = np.stack([gram32, -gram32], axis=1)
    diag = gram32[:: n + 1]
    piv = np.stack([diag - lower, -diag + upper], axis=1)
    ok = piv > 0.0
    off: list[np.ndarray] = []
    for j, (counts, u, g, pieces) in enumerate(_lex_lattice(n, k), start=2):
        parts = []
        for p0, p1, r0, r1 in pieces:
            runs = counts[p0:p1]
            lam_t = np.repeat(np.sqrt(np.where(ok[p0:p1], piv[p0:p1], np.inf)), runs, axis=0)
            num = np.take(pair, g[r0:r1], axis=0)
            off_u = [np.take(row, u[r0:r1], axis=0) for row in off]
            for row, row_u in zip(off, off_u):
                num -= np.repeat(row[p0:p1], runs, axis=0) * row_u
            x = np.divide(num, lam_t, out=num)
            piv_s = np.take(piv, u[r0:r1], axis=0) - x * x
            ok_s = (lam_t < np.inf) & (piv_s > 0.0)
            parts.append([ok_s[:, 0] & ok_s[:, 1]] if j == k else [ok_s, piv_s, *off_u, x])
        ok, *rest = (np.concatenate(part) for part in zip(*parts))
        if j == k:
            return ok
        piv, *off = rest
    return ok[:, 0] & ok[:, 1]


def _exhaustive_extremes(gram_full: np.ndarray, k: int) -> tuple[float, float]:
    """_extreme_gram_eigs over every k-subset of the columns.  Its extremes
    over the strided sample are the incumbents; the lattice screens every
    support against them, and only the blocks it keeps are listed for
    _extreme_gram_eigs."""
    n = gram_full.shape[0]
    total = math.comb(n, k)
    sample = _lattice_rows(n, k, np.arange(0, total, -(-total // _CHUNK)))
    lam_min, lam_max = _extreme_gram_eigs(gram_full, sample)
    top, shift, gram32, slack = _screen_copy(gram_full, k)
    margin = slack * max(top, lam_max)
    skip = _lattice_skips(gram32, n, k, np.float32(math.ldexp(lam_min + margin, shift)),
                          np.float32(math.ldexp(lam_max - margin, shift)))
    # The sample's extreme blocks cannot pass the screen, so some are kept.
    lo, hi = _extreme_gram_eigs(gram_full, _lattice_rows(n, k, np.flatnonzero(~skip)))
    return min(lam_min, lo), max(lam_max, hi)


def empirical_ric(
    m: int,
    n: int,
    k: int,
    trials: int,
    support_budget: int,
    seed: int,
) -> tuple[EmpiricalEstimate, EmpiricalEstimate]:
    """Per-trial extremes of the normalized sparse singular values.

    Exhausts all C(n, k) supports per trial when that count fits within
    support_budget, otherwise evaluates support_budget distinct sampled
    supports.  Returns (uric estimate, lric estimate).
    """
    if not 0 < k < m < n:
        raise ValueError(f"requires 0 < k < m < n, got k={k}, m={m}, n={n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if support_budget < 1:
        raise ValueError(f"support_budget must be >= 1, got {support_budget}")

    total = math.comb(n, k)
    exhaustive = total <= support_budget

    sqrt_m = math.sqrt(m)
    uric_per_trial: list[float] = []
    lric_per_trial: list[float] = []
    work: dict = {}  # the screen's buffers, reused across sampled trials
    for trial in range(trials):
        matrix = sample_matrix(m, n, seed, trial)
        gram_full = matrix.entries.T @ matrix.entries
        if exhaustive:
            lam_min, lam_max = _exhaustive_extremes(gram_full, k)
        else:
            # One call, so each trial's supports are freed before the next's.
            lam_min, lam_max = _extreme_gram_eigs(
                gram_full, _sampled_supports(n, k, support_budget, seed, trial), work)
        uric_per_trial.append(math.sqrt(max(lam_max, 0.0)) / sqrt_m)
        lric_per_trial.append(math.sqrt(max(lam_min, 0.0)) / sqrt_m)

    def build(quantity: str, values: list[float]) -> EmpiricalEstimate:
        arr = np.asarray(values)
        return EmpiricalEstimate(
            quantity=quantity,
            mean=float(arr.mean()),
            stddev=float(arr.std(ddof=1)) if trials > 1 else 0.0,
            trials=trials,
            mode=MODE_EXHAUSTIVE if exhaustive else MODE_SAMPLED,
            supports_per_trial=total if exhaustive else support_budget,
            per_trial=tuple(values),
        )

    return build("uric", uric_per_trial), build("lric", lric_per_trial)

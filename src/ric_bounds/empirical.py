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
in numpy across a batch of counters, and the first `budget` distinct
subsets in counter order are the trial's supports.  Repeats are found
by a uint64 colex-rank key, which is injective while C(n, k) < 2^64;
only the rows that share a key are compared in full, so the result is
exact when the key wraps too.

Per-support extreme singular values come from the k x k Gram form of
the submatrix (symmetric PSD eigenproblem); the Gram matrices are
gathered from a single precomputed A^T A per trial.  Only the per-trial
extremes are needed, so the blocks with extreme diagonals in an evenly
strided sample of the supports set incumbents, a batched Cholesky
screen then discards every support that provably cannot beat the
current extremes, and eigvalsh runs on the rest.  The screen runs in
float32 on a copy of A^T A rescaled by a power of two, gathering each
block's lower triangle once, with a margin sized by the backward error
of float32 Cholesky; eigvalsh runs in float64 on the original.  The
reported extremes are exactly those of eigvalsh over all supports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wrapping arithmetic)."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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


@dataclass(frozen=True)
class GaussianMatrix:
    """An m x n matrix of i.i.d. standard normals, reproducible from its key."""

    m: int
    n: int
    seed: int
    trial: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.m < self.n:
            raise ValueError(f"requires 0 < m < n, got m={self.m}, n={self.n}")
        if self.entries.shape != (self.m, self.n):
            raise ValueError(f"entries shape {self.entries.shape} != ({self.m}, {self.n})")


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing 0-based column indices of one sparse support."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("support must be nonempty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing, got {self.indices}")
        if self.indices[0] < 0:
            raise ValueError(f"indices must be nonnegative, got {self.indices}")


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Across-trial statistics of one normalized extreme.

    In sampled mode the per-trial uric values are lower bounds on the
    exhaustive extreme and the lric values upper bounds (max/min over a
    subset of supports).
    """

    quantity: str  # "uric" | "lric"
    mean: float
    stddev: float
    trials: int
    mode: str  # MODE_EXHAUSTIVE | MODE_SAMPLED
    supports_per_trial: int
    per_trial: tuple[float, ...]


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


def extremal_singular(matrix: GaussianMatrix, support: SupportSet) -> tuple[float, float]:
    """(sigma_min, sigma_max) of the column submatrix on one support.

    Computed from the eigenvalues of the k x k Gram form, which is
    symmetric PSD; tiny negative eigenvalues from rounding are clamped.
    """
    idx = np.asarray(support.indices, dtype=np.intp)
    if idx[-1] >= matrix.n:
        raise ValueError(f"support {support.indices} out of range for n={matrix.n}")
    sub = matrix.entries[:, idx]
    eigs = np.linalg.eigvalsh(sub.T @ sub)
    return math.sqrt(max(float(eigs[0]), 0.0)), math.sqrt(max(float(eigs[-1]), 0.0))


def _first_distinct(rows: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    Equal rows must have equal keys.  A row whose key no other row has is
    a first occurrence; only the rows that share a key are compared in
    full, as opaque byte strings."""
    ordered = np.sort(key)
    shared = np.isin(key, ordered[1:][ordered[1:] == ordered[:-1]])
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
    k Floyd steps on a (k, batch) array, one row per step.  Repeats are
    keyed by the colex rank sum_i C(s_i, i+1) of the sorted row, which
    wraps in uint64 and is injective while C(n, k) < 2^64.  The budget-th
    distinct support must come from a counter below 50 * budget + 1000."""
    base = _mix64_array(_trial_base(seed, trial) ^ np.uint64(0x5851F42D4C957F2D))
    binom = _colex_weights(n, k)
    limit = 50 * budget + 1000
    found = np.empty((0, k), dtype=np.intp)
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
        state = _mix64_array(base ^ _mix64_array(np.arange(start, stop, dtype=np.uint64)))
        chosen = np.empty((k, stop - start), dtype=np.intp)
        for i, j in enumerate(range(n - k, n)):
            state = _mix64_array(state)
            t = (state % np.uint64(j + 1)).astype(np.intp)
            taken = np.zeros(t.shape[0], dtype=bool)
            for c in range(i):
                taken |= chosen[c] == t
            chosen[i] = np.where(taken, j, t)
        _sort_columns(chosen)
        rows = np.concatenate([found, chosen.T])
        key = sum(binom[i][col] for i, col in enumerate(rows.T))
        found = rows[_first_distinct(rows, key)]
        if found.shape[0] >= budget:
            return found[:budget]
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


def _extreme_gram_eigs(gram_full: np.ndarray, supports: np.ndarray) -> tuple[float, float]:
    """(min, max) eigenvalue over all k x k Gram blocks indexed by supports.

    Exactly the extremes of per-block eigvalsh, found without running
    eigvalsh on most blocks.  First, among an evenly strided sample of at
    most about _CHUNK supports, the blocks with the smallest and the
    largest diagonal entries (lambda_min <= min diag <= max diag <=
    lambda_max) go through eigvalsh and give incumbents lo and hi.  Then,
    chunk by chunk, a block G is skipped when a float32 Cholesky proves
    that it cannot beat the current extremes: G - (lo + margin) I and
    (hi - margin) I - G both factor.  The remaining blocks go through the
    same eigvalsh on the float64 gram_full, so the extremes do not depend
    on which incumbents were chosen.

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
    top = float(diag.max())
    shift = 1 - math.frexp(top)[1]
    # Row-major flat float32 copy of s * gram_full, s = 2^shift.
    gram32 = np.ldexp(gram_full, shift).astype(np.float32).ravel()
    slack = 4.0 * k * (k + 1) * float(np.finfo(np.float32).eps)
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
    solve(sample[np.union1d(
        np.argpartition(diag[sample].min(axis=1), count - 1)[:count],
        np.argpartition(-diag[sample].max(axis=1), count - 1)[:count],
    )])

    on_diag = (np.arange(k), np.arange(k))
    for start in range(0, supports.shape[0], _CHUNK):
        block = supports[start : start + _CHUNK]
        # The blocks come out (k, k, B), so each Cholesky step is a few
        # vector ops; only the lower triangle is gathered, and only it is
        # read.
        cols = np.ascontiguousarray(block.T)
        offsets = cols * n
        lower = np.empty((k, k, block.shape[0]), dtype=np.float32)
        for i in range(k):
            np.take(gram32, offsets[i] + cols[: i + 1], out=lower[i, : i + 1])
        upper = np.negative(lower)
        margin = slack * max(top, lam_max)
        lower[on_diag] -= np.float32(math.ldexp(lam_min + margin, shift))
        upper[on_diag] += np.float32(math.ldexp(lam_max - margin, shift))
        skip = _cholesky_succeeds(lower) & _cholesky_succeeds(upper)
        if not skip.all():
            solve(block[~skip])
    return lam_min, lam_max


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
    if exhaustive:
        all_supports = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.intp,
            count=total * k,
        ).reshape(total, k)

    sqrt_m = math.sqrt(m)
    uric_per_trial: list[float] = []
    lric_per_trial: list[float] = []
    for trial in range(trials):
        matrix = sample_matrix(m, n, seed, trial)
        gram_full = matrix.entries.T @ matrix.entries
        supports = all_supports if exhaustive else _sampled_supports(n, k, support_budget, seed, trial)
        lam_min, lam_max = _extreme_gram_eigs(gram_full, supports)
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

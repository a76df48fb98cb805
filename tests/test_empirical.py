"""Finite-size oracle: keyed sampling, per-support extremes, aggregation."""

import hashlib
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from ric_bounds import GaussianMatrix, empirical_ric, sample_matrix
from ric_bounds.empirical import (
    _CHUNK,
    _INCUMBENTS,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    _cholesky_succeeds,
    _chunk_skips,
    _exhaustive_extremes,
    _extreme_gram_eigs,
    _first_distinct,
    _lattice_rows,
    _lattice_skips,
    _lex_lattice,
    _sampled_supports,
    _screen_copy,
    _sort_columns,
)

from oracles import (
    SupportSet,
    extremal_singular,
    extreme_gram_eigs_unscreened,
    gram_extremes_power_iteration,
    sampled_supports_loop,
)


class TestSampleMatrix:
    def test_deterministic_in_seed(self):
        a = sample_matrix(12, 30, seed=7)
        b = sample_matrix(12, 30, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_seed_sensitivity(self):
        a = sample_matrix(12, 30, seed=7)
        b = sample_matrix(12, 30, seed=8)
        assert not np.array_equal(a.entries, b.entries)

    def test_trial_sensitivity(self):
        a = sample_matrix(12, 30, seed=7, trial=0)
        b = sample_matrix(12, 30, seed=7, trial=1)
        assert not np.array_equal(a.entries, b.entries)

    def test_normality_band(self):
        """Law-of-large-numbers check on the pinned acceptance-scale draw."""
        m = sample_matrix(20, 40, seed=7)
        count = 20 * 40
        assert abs(float(m.entries.mean())) <= 4.0 / math.sqrt(count)
        assert abs(float(m.entries.var()) - 1.0) <= 4.0 * math.sqrt(2.0 / count)

    def test_rejects_wide_before_tall(self):
        with pytest.raises(ValueError):
            sample_matrix(30, 12, seed=1)
        with pytest.raises(ValueError):
            sample_matrix(12, 12, seed=1)

    def test_schedule_independent_entries(self):
        """Per-entry keying: any submatrix of a bigger draw equals the
        corresponding entries drawn standalone with the same key."""
        big = sample_matrix(10, 25, seed=3).entries
        small = sample_matrix(6, 25, seed=3).entries
        assert np.array_equal(big[:6], small)


class TestSupportSet:
    @pytest.mark.parametrize("indices", [(), (2, 2), (3, 1), (-1, 0)])
    def test_rejects_invalid(self, indices):
        with pytest.raises(ValueError):
            SupportSet(indices)


class TestExtremalSingular:
    def test_single_column_is_its_norm(self):
        matrix = sample_matrix(8, 16, seed=5)
        for j in (0, 7, 15):
            lo, hi = extremal_singular(matrix, SupportSet((j,)))
            norm = float(np.linalg.norm(matrix.entries[:, j]))
            assert lo == pytest.approx(norm, rel=1e-12)
            assert hi == pytest.approx(norm, rel=1e-12)

    def test_embedded_orthonormal_columns(self):
        entries = np.zeros((6, 9))
        entries[:4, :4] = np.eye(4)
        entries[:, 4:] = 3.0  # irrelevant padding columns
        matrix = GaussianMatrix(m=6, n=9, seed=0, trial=0, entries=entries)
        lo, hi = extremal_singular(matrix, SupportSet((0, 1, 2, 3)))
        assert (lo, hi) == (1.0, 1.0)

    def test_against_power_iteration_oracle(self):
        matrix = sample_matrix(20, 30, seed=42)
        support = SupportSet((2, 9, 17, 25))
        sub = matrix.entries[:, list(support.indices)]
        oracle = gram_extremes_power_iteration(sub.T @ sub)
        got = extremal_singular(matrix, support)
        assert got[0] == pytest.approx(oracle[0], abs=1e-6)
        assert got[1] == pytest.approx(oracle[1], abs=1e-6)

    def test_scale_equivariance(self):
        matrix = sample_matrix(10, 20, seed=9)
        scaled = GaussianMatrix(m=10, n=20, seed=9, trial=0, entries=2.0 * matrix.entries)
        support = SupportSet((1, 5, 11))
        base = extremal_singular(matrix, support)
        doubled = extremal_singular(scaled, support)
        assert doubled[0] == pytest.approx(2.0 * base[0], rel=1e-12)
        assert doubled[1] == pytest.approx(2.0 * base[1], rel=1e-12)

    def test_rejects_out_of_range_support(self):
        matrix = sample_matrix(5, 8, seed=1)
        with pytest.raises(ValueError):
            extremal_singular(matrix, SupportSet((3, 8)))


class TestEmpiricalRic:
    def test_near_square_case_straddles_one(self):
        """k = m-1, n = m+1 at m=10: ||A x||/sqrt(m) concentrates near 1 for
        a fixed direction, so the exhaustive extremes straddle 1 within
        sampling noise."""
        uric, lric = empirical_ric(10, 11, 9, trials=10, support_budget=100, seed=2)
        assert uric.mode == MODE_EXHAUSTIVE and uric.supports_per_trial == 55
        assert lric.mean <= 1.0 <= uric.mean

    def test_ordering_every_trial(self):
        uric, lric = empirical_ric(6, 10, 3, trials=8, support_budget=300, seed=5)
        for lo, hi in zip(lric.per_trial, uric.per_trial):
            assert lo <= hi

    def test_exhaustive_matches_dense_direction_grid(self):
        """For k = 2 the unit sparse vectors on one support are a circle;
        a dense angle sweep of ||A x|| must reproduce the exhaustive
        extremes to grid resolution."""
        m, n, k = 4, 6, 2
        uric, lric = empirical_ric(m, n, k, trials=1, support_budget=100, seed=3)
        matrix = sample_matrix(m, n, seed=3, trial=0)
        thetas = np.linspace(0.0, 2.0 * np.pi, 40001)
        directions = np.stack([np.cos(thetas), np.sin(thetas)])
        best_hi = 0.0
        best_lo = math.inf
        for support in itertools.combinations(range(n), k):
            sub = matrix.entries[:, list(support)]
            norms = np.linalg.norm(sub @ directions, axis=0)
            best_hi = max(best_hi, float(norms.max()))
            best_lo = min(best_lo, float(norms.min()))
        assert uric.per_trial[0] == pytest.approx(best_hi / math.sqrt(m), abs=1e-5)
        assert lric.per_trial[0] == pytest.approx(best_lo / math.sqrt(m), abs=1e-5)

    def test_sampled_mode_budget_monotonicity(self):
        """Deterministic nested sampling: a larger budget sees a superset of
        supports, so uric cannot drop and lric cannot rise."""
        small_u, small_l = empirical_ric(8, 24, 3, trials=4, support_budget=50, seed=13)
        large_u, large_l = empirical_ric(8, 24, 3, trials=4, support_budget=400, seed=13)
        assert small_u.mode == MODE_SAMPLED
        for s, l in zip(small_u.per_trial, large_u.per_trial):
            assert l >= s
        for s, l in zip(small_l.per_trial, large_l.per_trial):
            assert l <= s

    def test_sampled_supports_are_nested_and_distinct(self):
        first = _sampled_supports(24, 3, 50, seed=13, trial=0)
        second = _sampled_supports(24, 3, 400, seed=13, trial=0)
        assert np.array_equal(first, second[:50])
        as_tuples = {tuple(row) for row in second.tolist()}
        assert len(as_tuples) == 400

    def test_statistics_fields(self):
        uric, lric = empirical_ric(5, 8, 2, trials=5, support_budget=1000, seed=1)
        assert uric.quantity == "uric" and lric.quantity == "lric"
        assert uric.trials == 5 and len(uric.per_trial) == 5
        assert uric.mean == pytest.approx(float(np.mean(uric.per_trial)))
        assert uric.stddev == pytest.approx(float(np.std(uric.per_trial, ddof=1)))

    def test_single_trial_stddev_is_zero(self):
        uric, _ = empirical_ric(5, 8, 2, trials=1, support_budget=1000, seed=1)
        assert uric.stddev == 0.0

    @pytest.mark.parametrize(
        "m,n,k,trials,budget",
        [(5, 8, 8, 1, 10), (8, 8, 2, 1, 10), (5, 8, 0, 1, 10), (5, 8, 2, 0, 10), (5, 8, 2, 1, 0)],
    )
    def test_rejects_infeasible(self, m, n, k, trials, budget):
        with pytest.raises(ValueError):
            empirical_ric(m, n, k, trials, budget, seed=1)

    @pytest.mark.parametrize("seed,digest", [
        (0, "d8f178288f3377a380abaec731c8638ffcebc55fb02c799484dd7a16f46b7c10"),
        (1, "ce8bb7cc0b5eacb3199b81f5512e4dff050023416673f159d655a161cccaabb6"),
        (2, "637eb1bd462d3e5d8009fb89c4ca9bc602215621531878dc1a74e7ff01de4458"),
    ])
    def test_sampled_benchmark_shape_is_pinned(self, seed, digest):
        """The per-trial extremes at the benchmark's sampled shape, to the
        bit: the sampler, the screen and its buffers must not move them."""
        uric, lric = empirical_ric(40, 80, 8, trials=20, support_budget=20000, seed=seed)
        assert uric.mode == MODE_SAMPLED
        got = hashlib.sha256(repr((uric.per_trial, lric.per_trial)).encode()).hexdigest()
        assert got == digest

    def test_concurrent_calls_match_serial(self):
        """Each call owns its buffers: two threads running sampled calls
        side by side return what serial calls return."""
        args = [(10, 30, 3, 6, 900, seed) for seed in (4, 5)]
        want = [empirical_ric(*a) for a in args]
        got = [[] for _ in args]

        def run(index):
            for _ in range(3):
                got[index].append(empirical_ric(*args[index]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(args))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert want[0][0].mode == MODE_SAMPLED
        for results, (uric, lric) in zip(got, want):
            assert len(results) == 3
            for u, l in results:
                assert u.per_trial == uric.per_trial and l.per_trial == lric.per_trial


class TestSampledUnderstatesExhaustive:
    def test_sampled_extremes_are_inside_exact_ones(self):
        """Sampling supports can only shrink the max and grow the min."""
        exact_u, exact_l = empirical_ric(6, 12, 3, trials=4, support_budget=10_000, seed=21)
        samp_u, samp_l = empirical_ric(6, 12, 3, trials=4, support_budget=40, seed=21)
        assert exact_u.mode == MODE_EXHAUSTIVE and samp_u.mode == MODE_SAMPLED
        for s, e in zip(samp_u.per_trial, exact_u.per_trial):
            assert s <= e + 1e-12
        for s, e in zip(samp_l.per_trial, exact_l.per_trial):
            assert s >= e - 1e-12


class TestSamplerMatchesReference:
    """The batched sampler against the one-counter-at-a-time loop."""

    @pytest.mark.parametrize(
        "n,k,budget",
        # (12, 3, 219): C(12, 3) = 220, so the tail of the sequence is
        # almost all repeats and the first batch cannot finish the draw.
        # (200, 40, 300) and (300, 150, 200): C(n, k) >= 2^64, so the
        # colex key wraps.
        # (256, 5, 300) and (257, 5, 300): the sampler's dtype widens from
        # uint8 to uint16 between them.
        [(80, 8, 20000), (40, 4, 5000), (12, 6, 900), (24, 3, 50), (24, 3, 400), (12, 3, 219),
         (200, 40, 300), (300, 150, 200), (256, 5, 300), (257, 5, 300)],
    )
    @pytest.mark.parametrize("seed,trial", [(0, 0), (1, 3), (7, 19)])
    def test_bit_for_bit(self, n, k, budget, seed, trial):
        got = _sampled_supports(n, k, budget, seed, trial)
        want = sampled_supports_loop(n, k, budget, seed, trial)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 40])
    def test_sorting_network_matches_np_sort(self, k):
        """The in-place network sorts each column like np.sort, ties and
        already sorted or reversed columns included."""
        a = np.random.default_rng(k).integers(0, 5, size=(k, 300)).astype(np.intp)
        a[:, 0] = np.arange(k)
        a[:, 1] = np.arange(k)[::-1]
        want = np.sort(a, axis=0)
        _sort_columns(a)
        assert np.array_equal(a, want)

    def test_shared_key_resolves_by_full_rows(self):
        """With one key for every row, all rows are compared in full, and
        the first occurrences are those of np.unique on the row bytes."""
        rows = np.random.default_rng(5).integers(0, 4, size=(500, 3)).astype(np.intp)
        got = _first_distinct(rows, np.zeros(rows.shape[0], dtype=np.uint64))
        _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * 3))).ravel(),
                             return_index=True)
        assert np.array_equal(got, np.sort(first))

    @pytest.mark.parametrize("n,k", [(12, 3), (6, 2)])
    def test_budget_beyond_support_count_raises(self, n, k):
        budget = math.comb(n, k) + 1
        with pytest.raises(RuntimeError, match="could not draw"):
            sampled_supports_loop(n, k, budget, seed=0, trial=0)
        with pytest.raises(RuntimeError, match="could not draw"):
            _sampled_supports(n, k, budget, seed=0, trial=0)


def _random_gram(m, n, seed, duplicate=False):
    a = np.random.default_rng(seed).standard_normal((m, n))
    if duplicate:
        a[:, n - 1] = a[:, 0]
    return a.T @ a


class TestScreenMatchesReference:
    """The Cholesky-screened extremes against eigvalsh on every block:
    survivors run the same eigvalsh, so the extremes agree to the bit."""

    @pytest.mark.parametrize(
        "m,n,k,count",
        [
            (6, 20, 1, 20),
            (6, 30, 2, 435),
            (8, 14, 7, 3432),  # k = m - 1
            (5, 60, 4, _CHUNK - 1),
            (5, 60, 4, _CHUNK + 1),
            (8, 16, 3, _INCUMBENTS - 5),  # fewer supports than incumbents
            (14, 24, 12, 3000),  # margin beyond the benchmark's k = 8
        ],
    )
    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_for_bit(self, m, n, k, count, duplicate, seed):
        gram = _random_gram(m, n, seed, duplicate)
        supports = np.array(list(itertools.islice(itertools.combinations(range(n), k), count)),
                            dtype=np.intp)
        if duplicate and k > 1:
            # The last support holds both copies of column 0.
            supports[-1, 0], supports[-1, -1] = 0, n - 1
        got = _extreme_gram_eigs(gram, supports)
        assert got == extreme_gram_eigs_unscreened(gram, supports)
        if duplicate and k > 1:
            assert abs(got[0]) < 1e-12 * gram.diagonal().max()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_independent_of_support_order(self, seed):
        """The incumbents come from a strided sample, so they change with
        the order of the supports; the extremes must not."""
        gram = _random_gram(5, 60, seed)
        supports = np.array(list(itertools.islice(itertools.combinations(range(60), 4),
                                                  3 * _CHUNK + 7)), dtype=np.intp)
        want = _extreme_gram_eigs(gram, supports)
        assert _extreme_gram_eigs(gram, supports[::-1]) == want
        shuffled = supports[np.random.default_rng(seed).permutation(supports.shape[0])]
        assert _extreme_gram_eigs(gram, shuffled) == want
        assert want == extreme_gram_eigs_unscreened(gram, supports)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 3e-8, 1e-8, 1e-9])
    def test_near_tie_needs_the_float32_margin(self, delta):
        """Two supports are twins of the extreme blocks: columns 52-55 copy
        the block with the largest eigenvalue scaled by sqrt(1 + delta),
        columns 56-59 the one with the smallest scaled by sqrt(1 - delta).
        Each twin beats its original by a relative delta, closer than
        float32 can tell, and sits in the last chunk where the strided
        incumbent sample does not look, so only the screen's margin sends
        it to eigvalsh."""
        n, k = 60, 4
        others = np.array(list(itertools.islice(itertools.combinations(range(n - 2 * k), k),
                                                3 * _CHUNK - 2)), dtype=np.intp)
        supports = np.concatenate([others, [np.arange(n - 2 * k, n - k), np.arange(n - k, n)]])
        step = -(-supports.shape[0] // _CHUNK)
        assert supports.shape[0] % step == 0  # the sample skips the last step - 1 supports
        for seed in range(20):
            a = np.random.default_rng(seed).standard_normal((12, n))
            gram = a.T @ a
            eigs = np.linalg.eigvalsh(gram[others[:, :, None], others[:, None, :]])
            a[:, n - 2 * k : n - k] = a[:, others[eigs[:, -1].argmax()]] * math.sqrt(1.0 + delta)
            a[:, n - k :] = a[:, others[eigs[:, 0].argmin()]] * math.sqrt(1.0 - delta)
            gram = a.T @ a
            assert _extreme_gram_eigs(gram, supports) == extreme_gram_eigs_unscreened(
                gram, supports), f"seed {seed}"

    @pytest.mark.parametrize("case", ["2^130", "2^-130", "2^200", "2^-200", "2^600", "2^-600",
                                      "2^1000", "2^-1000", "column 0 by 2^150"])
    def test_extreme_scales(self, case):
        """Grams far outside the float32 range screen without a warning and
        keep the extremes of eigvalsh on every block."""
        gram = _random_gram(6, 40, 0)
        if case.startswith("column"):
            gram[0, :] *= 2.0**150
            gram[:, 0] *= 2.0**150
        else:
            gram *= 2.0 ** int(case[2:])
        supports = np.array(list(itertools.combinations(range(40), 3)), dtype=np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _extreme_gram_eigs(gram, supports)
        assert got == extreme_gram_eigs_unscreened(gram, supports)

    def test_screen_skips_most_blocks(self, monkeypatch):
        """At both benchmark shapes, few blocks reach eigvalsh."""
        exhaustive = np.array(list(itertools.combinations(range(40), 4)), dtype=np.intp)
        sampled = _sampled_supports(80, 8, 20000, seed=0, trial=0)
        for m, n, supports in ((40, 80, sampled), (20, 40, exhaustive)):
            matrix = sample_matrix(m, n, seed=0)
            gram = matrix.entries.T @ matrix.entries
            solved = []
            eigvalsh = np.linalg.eigvalsh

            def counting(a):
                solved.append(a.shape[0])
                return eigvalsh(a)

            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            got = _extreme_gram_eigs(gram, supports)
            assert sum(solved) < 0.05 * supports.shape[0]
            monkeypatch.undo()
            assert got == extreme_gram_eigs_unscreened(gram, supports)


def _lex_supports(n, k):
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)


def _fixed_shift_case(where, seed):
    """(n, k, gram32, lex supports, lower, upper, want) at fixed float32
    shifts, want the blocks whose separate factorizations of G - lower I
    and upper I - G both succeed (the unfused chunked screen)."""
    n, k = 40, 4
    gram = _random_gram(20, n, seed)
    supports = _lex_supports(n, k)
    _, shift, gram32, _ = _screen_copy(gram, k)
    eigs = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    lo, hi = eigs[:, 0].min(), eigs[:, -1].max()
    lower, upper = {"tight": (lo * 1.001, hi * 0.999),
                    "lower at the median": (np.median(eigs[:, 0]), 2.0 * hi),
                    "upper at the median": (0.5 * lo, np.median(eigs[:, -1]))}[where]
    lower, upper = np.float32(math.ldexp(lower, shift)), np.float32(math.ldexp(upper, shift))
    cols = supports.T
    lower_blocks = np.empty((k, k, supports.shape[0]), dtype=np.float32)
    for i in range(k):
        lower_blocks[i, : i + 1] = gram32[cols[i] * n + cols[: i + 1]]
    upper_blocks = np.negative(lower_blocks)
    on_diag = (np.arange(k), np.arange(k))
    lower_blocks[on_diag] -= lower
    upper_blocks[on_diag] += upper
    want = _cholesky_succeeds(lower_blocks) & _cholesky_succeeds(upper_blocks)
    return n, k, gram32, supports, lower, upper, want


class TestLatticeScreen:
    """The exhaustive path: the lex subset lattice screens every support
    with the pivots of the chunked float32 Cholesky, and its extremes are
    those of eigvalsh on every block."""

    SHAPES = [(4, 6, 1), (6, 20, 2), (8, 14, 7), (10, 12, 9), (22, 24, 20), (20, 40, 4)]

    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_rows_are_the_lex_combinations(self, m, n, k):
        total = math.comb(n, k)
        got = _lattice_rows(n, k, np.arange(total))
        assert got.dtype == np.intp
        assert np.array_equal(got, _lex_supports(n, k))
        index = np.array([total - 1, 0, total // 3])
        assert np.array_equal(_lattice_rows(n, k, index), _lex_supports(n, k)[index])

    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_tables_are_read_only_and_small(self, m, n, k):
        """Each level is cut into pieces that tile its records and their
        prefixes, and the tables hold at most k C(n, k) records."""
        levels = _lex_lattice(n, k)
        assert len(levels) == k - 1
        records = 0
        for counts, u, g, pieces in levels:
            for table in (counts, u, g):
                assert not table.flags.writeable
            assert counts.sum() == u.size == g.size
            first = np.concatenate([[0], np.cumsum(counts)])
            assert [p[0] for p in pieces] == [0] + [p[1] for p in pieces[:-1]]
            assert pieces[-1][1] == counts.size
            assert all(first[p0] == r0 and first[p1] == r1 for p0, p1, r0, r1 in pieces)
            assert max(r1 - r0 for _, _, r0, r1 in pieces) <= _CHUNK + n
            records += u.size
        assert records <= k * math.comb(n, k)

    def test_record_count_when_k_exceeds_half_n(self):
        assert sum(level[1].size for level in _lex_lattice(24, 20)) == 187_701

    @pytest.mark.parametrize("where", ["tight", "lower at the median", "upper at the median"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_skips_equal_the_chunked_screen(self, where, seed):
        """At fixed shifts the lattice skips exactly the blocks whose two
        float32 Cholesky factorizations succeed; at a median shift about
        half the blocks fail on that side, at each of the k pivots."""
        n, k, gram32, supports, lower, upper, want = _fixed_shift_case(where, seed)
        got = _lattice_skips(gram32, n, k, lower, upper)
        assert np.array_equal(got, want)
        assert 0 < want.sum() < want.size

    @pytest.mark.parametrize("where", ["tight", "lower at the median", "upper at the median"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fused_chunks_equal_both_sides(self, where, seed):
        """The chunked screen factors both sides in one (k, k, 2B) pass and
        skips exactly the blocks whose two separate factorizations
        succeed, chunk by chunk down to a last chunk shorter than _CHUNK,
        on buffers last used by a larger call (k = 6 on a full chunk)."""
        n, k, gram32, supports, lower, upper, want = _fixed_shift_case(where, seed)
        assert 0 < supports.shape[0] % _CHUNK < _CHUNK
        work = {}
        big = np.array(list(itertools.islice(itertools.combinations(range(n), 6), _CHUNK)),
                       dtype=np.intp)
        _chunk_skips(gram32, n, big, np.float32(-1.0), np.float32(1.0), work)
        got = np.concatenate([_chunk_skips(gram32, n, supports[start : start + _CHUNK], lower,
                                           upper, work)
                              for start in range(0, supports.shape[0], _CHUNK)])
        assert np.array_equal(got, want)
        assert np.array_equal(_chunk_skips(gram32, n, supports, lower, upper), want)

    @pytest.mark.parametrize("m,n,k", SHAPES)
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_extremes_bit_for_bit(self, m, n, k, duplicate):
        gram = _random_gram(m, n, 3, duplicate)
        got = _exhaustive_extremes(gram, k)
        assert got == extreme_gram_eigs_unscreened(gram, _lex_supports(n, k))
        if duplicate and k > 1:
            assert abs(got[0]) < 1e-12 * gram.diagonal().max()

    @pytest.mark.parametrize("case", ["2^130", "2^-130", "2^200", "2^-200", "2^600", "2^-600",
                                      "2^1000", "2^-1000", "column 0 by 2^150"])
    def test_extreme_scales(self, case):
        gram = _random_gram(6, 40, 0)
        if case.startswith("column"):
            gram[0, :] *= 2.0**150
            gram[:, 0] *= 2.0**150
        else:
            gram *= 2.0 ** int(case[2:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _exhaustive_extremes(gram, 3)
        assert got == extreme_gram_eigs_unscreened(gram, _lex_supports(40, 3))

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 3e-8, 1e-8, 1e-9])
    def test_near_tie_needs_the_float32_margin(self, delta):
        """Columns 21-24 and 25-28 are twins of the blocks of columns 0-20
        in the strided incumbent sample with the largest and the smallest
        eigenvalue: a rotation in row space keeps each twin's Gram block
        that of its original scaled by 1 + delta or 1 - delta, while its
        columns mix with the others like fresh ones.  Each twin beats its
        original by a relative delta, closer than float32 can tell, and
        its support is not in the sample, so only the margin sends it to
        eigvalsh."""
        m, n, k = 12, 29, 4
        supports = _lex_supports(n, k)
        step = -(-supports.shape[0] // _CHUNK)
        for twin in (np.arange(21, 25), np.arange(25, 29)):
            assert int(np.flatnonzero((supports == twin).all(axis=1))[0]) % step != 0
        sample = supports[::step]
        sample = sample[sample.max(axis=1) < 21]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((m, n))
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            eigs = np.linalg.eigvalsh((a.T @ a)[sample[:, :, None], sample[:, None, :]])
            a[:, 21:25] = q @ a[:, sample[eigs[:, -1].argmax()]] * math.sqrt(1.0 + delta)
            a[:, 25:29] = q @ a[:, sample[eigs[:, 0].argmin()]] * math.sqrt(1.0 - delta)
            gram = a.T @ a
            assert _exhaustive_extremes(gram, k) == extreme_gram_eigs_unscreened(
                gram, supports), f"seed {seed}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_shape_end_to_end(self, seed, monkeypatch):
        """empirical_ric at the benchmark's exhaustive shape reports the
        square roots of eigvalsh's extremes over every support, and few
        blocks reach eigvalsh."""
        m, n, k, trials = 20, 40, 4, 2
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        uric, lric = empirical_ric(m, n, k, trials=trials, support_budget=100_000, seed=seed)
        monkeypatch.undo()
        supports = _lex_supports(n, k)
        assert uric.mode == MODE_EXHAUSTIVE
        assert sum(solved) < 0.05 * trials * supports.shape[0]
        for trial in range(trials):
            entries = sample_matrix(m, n, seed, trial).entries
            lo, hi = extreme_gram_eigs_unscreened(entries.T @ entries, supports)
            assert uric.per_trial[trial] == math.sqrt(max(hi, 0.0)) / math.sqrt(m)
            assert lric.per_trial[trial] == math.sqrt(max(lo, 0.0)) / math.sqrt(m)

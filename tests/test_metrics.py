"""Statistics: summaries, bootstrap, robust means, frontiers, costs."""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grantgeo import metrics
from grantgeo.metrics import (
    EmptyInput,
    KTooLarge,
    ZeroHitRate,
    bootstrap_ci,
    bootstrap_cis,
    drop_top_k_mean,
    latency_summary,
    marginal_cost_per_hit,
    pareto_frontier,
    quantile_sorted,
    summarize_errors,
)

REPORT_QUANTILES = [0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0]


class TestQuantileSorted:
    @given(
        st.lists(st.floats(0, 1e6), min_size=1, max_size=40)
        | st.lists(st.sampled_from([0.0, 0.5, 2.25, 7.0, 1e6]), min_size=1, max_size=40),
        st.sampled_from(REPORT_QUANTILES) | st.floats(0, 1),
    )
    @settings(max_examples=1000, deadline=None)
    @example([3.5], 0.5)
    @example([2.0, 2.0, 2.0, 9.0], 0.975)
    def test_equals_numpy_linear_quantile(self, values, q):
        ordered = np.sort(np.asarray(values))
        assert quantile_sorted(ordered, q) == float(np.quantile(np.asarray(values), q))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 997, 10_000])
    def test_report_quantiles_on_bootstrap_sized_samples(self, n):
        values = np.random.default_rng(n).gamma(2.0, 10.0, size=n)
        ordered = np.sort(values)
        got = [quantile_sorted(ordered, q) for q in REPORT_QUANTILES]
        assert got == [float(v) for v in np.quantile(values, REPORT_QUANTILES)]


class TestSummarizeErrors:
    def test_basic(self):
        stats = summarize_errors([1, 2, 3])
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.n == 3

    def test_inclusive_band_counting(self):
        stats = summarize_errors([5, 15, 30])
        assert stats.bands[10.0] == pytest.approx(1 / 3)
        assert stats.bands[25.0] == pytest.approx(2 / 3)
        assert stats.bands[50.0] == 1.0

    def test_band_edge_inclusive(self):
        stats = summarize_errors([10.0, 20.0])
        assert stats.bands[10.0] == 0.5

    def test_five_number_summary_identity(self):
        # for n=5 the linear-interpolation quartiles land on order stats
        values = [2.67, 8.17, 14.27, 36.85, 87.35]
        stats = summarize_errors(values)
        assert stats.min == 2.67
        assert stats.q1 == pytest.approx(8.17)
        assert stats.median == pytest.approx(14.27)
        assert stats.q3 == pytest.approx(36.85)
        assert stats.max == 87.35

    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_quartiles_equal_numpy_quantile(self, values):
        stats = summarize_errors(values)
        q1, median, q3 = np.quantile(np.asarray(values), [0.25, 0.5, 0.75])
        assert (stats.q1, stats.median, stats.q3) == (float(q1), float(median), float(q3))

    def test_sample_sd(self):
        stats = summarize_errors([1, 2, 3, 4])
        assert stats.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_bands_monotone_and_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(50):
            values = [rng.uniform(0, 80) for _ in range(rng.randint(1, 40))]
            stats = summarize_errors(values)
            previous = 0.0
            for t in sorted(stats.bands):
                brute = sum(1 for v in values if v <= t) / len(values)
                assert stats.bands[t] == pytest.approx(brute)
                assert stats.bands[t] >= previous
                previous = stats.bands[t]

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyInput):
            summarize_errors([])
        with pytest.raises(ValueError):
            summarize_errors([-1.0])
        with pytest.raises(ValueError):
            summarize_errors([float("nan")])


class TestBootstrapCI:
    def test_constant_vector_degenerate(self):
        ci = bootstrap_ci([7, 7, 7, 7], resamples=1000, seed=1)
        assert (ci.lo, ci.hi) == (7.0, 7.0)

    def test_seed_determinism(self):
        a = bootstrap_ci([1, 5, 9, 2, 8], resamples=2000, seed=42)
        b = bootstrap_ci([1, 5, 9, 2, 8], resamples=2000, seed=42)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_interval_brackets_plausible_means(self):
        rng = random.Random(0)
        data = [rng.gauss(50, 10) for _ in range(43)]
        data = [abs(v) for v in data]
        ci = bootstrap_ci(data, resamples=5000, seed=7)
        assert ci.lo <= float(np.mean(data)) <= ci.hi

    def test_narrows_with_sample_size(self):
        rng = np.random.default_rng(3)
        widths = []
        for n in (10, 100):
            sample_widths = []
            for seed in range(20):
                data = np.abs(rng.normal(50, 10, size=n))
                ci = bootstrap_ci(data, resamples=1000, seed=seed)
                sample_widths.append(ci.hi - ci.lo)
            widths.append(float(np.mean(sample_widths)))
        assert widths[1] < widths[0]


    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("chunk_cells", [1, 333, 4096, 1 << 20])
    def test_chunked_draws_match_single_draw(self, monkeypatch, n, chunk_cells):
        errors = np.random.default_rng(n).gamma(2.0, 10.0, size=n).tolist()
        # Reference: the whole resamples x n index matrix in one draw.
        rng = np.random.default_rng(11)
        means = np.asarray(errors)[rng.integers(0, n, size=(997, n))].mean(axis=1)
        alpha = 1.0 - metrics.CI_LEVEL
        lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
        monkeypatch.setattr(metrics, "_BOOTSTRAP_CHUNK_CELLS", chunk_cells)
        ci = bootstrap_ci(errors, resamples=997, seed=11)
        assert (ci.lo, ci.hi) == (float(lo), float(hi))


class TestBootstrapCIs:
    SIZES = [5, 7, 5, 1, 7, 5]

    @pytest.mark.parametrize("chunk_cells", [1, 333, 4096, 1 << 20])
    def test_each_sample_matches_single_draw(self, monkeypatch, chunk_cells):
        rng = np.random.default_rng(5)
        samples = [rng.gamma(2.0, 10.0, size=n).tolist() for n in self.SIZES]
        expected = []
        for errors in samples:
            # Reference: this sample's whole resamples x n index matrix in one draw.
            idx = np.random.default_rng(11).integers(0, len(errors), size=(997, len(errors)))
            means = np.asarray(errors)[idx].mean(axis=1)
            alpha = 1.0 - metrics.CI_LEVEL
            lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
            expected.append((float(lo), float(hi)))
        monkeypatch.setattr(metrics, "_BOOTSTRAP_CHUNK_CELLS", chunk_cells)
        cis = bootstrap_cis(samples, resamples=997, seed=11)
        assert [(ci.lo, ci.hi) for ci in cis] == expected

    @pytest.mark.parametrize("resamples", [0, -5])
    def test_resamples_below_one_raises(self, resamples):
        with pytest.raises(ValueError, match=f"resamples must be at least 1, got {resamples}"):
            bootstrap_cis([[1.0, 2.0]], resamples=resamples)

    @pytest.mark.parametrize("position", [0, 2, 3])
    def test_empty_sample_anywhere_raises(self, position):
        samples = [[1.0, 2.0], [3.0], [4.0, 5.0]]
        samples.insert(position, [])
        with pytest.raises(EmptyInput):
            bootstrap_cis(samples, resamples=100)


def _serial_means(samples, resamples: int, seed: int, chunk_cells: int = 1 << 16) -> list[np.ndarray]:
    """Each sample's resample means from the one-thread loop the drawer thread replaced, at its block size."""
    arrays = [np.asarray(sample, dtype=float) for sample in samples]
    by_size: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        by_size.setdefault(arr.size, []).append(i)
    means = [np.empty(resamples) for _ in arrays]
    for n, members in by_size.items():
        rng = np.random.default_rng(seed)
        rows = max(1, chunk_cells // n)
        for start in range(0, resamples, rows):
            stop = min(start + rows, resamples)
            idx = rng.integers(0, n, size=(stop - start, n))
            for i in members:
                means[i][start:stop] = arrays[i][idx].mean(axis=1)
    return means


class _Watched(np.ndarray):
    """A sample whose every gather calls ``on_gather`` first."""

    on_gather = staticmethod(lambda: None)

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            type(self).on_gather()
        return super().__getitem__(key)


class TestDrawerThread:
    """The next index block is drawn on a second thread; nothing it yields differs from one thread's loop."""

    @pytest.mark.parametrize("resamples", [1, 7, 10_000])
    @pytest.mark.parametrize(
        "sizes", [[950, 1000, 1000, 1000], [540, 570, 570, 570, 600], [3, 43, 1001]], ids=["packaged", "llm", "odd"]
    )
    def test_every_mean_matches_the_serial_loop(self, monkeypatch, sizes, resamples):
        rng = np.random.default_rng(len(sizes))
        samples = [rng.gamma(2.0, 10.0, size=n).tolist() for n in sizes]
        expected = _serial_means(samples, resamples, seed=42)
        seen = []
        real = metrics.quantile_sorted
        monkeypatch.setattr(metrics, "quantile_sorted", lambda m, q: seen.append(m.copy()) or real(m, q))
        cis = bootstrap_cis(samples, resamples=resamples)
        assert len(seen) == 2 * len(samples)
        for ci, ordered, reference in zip(cis, seen[::2], expected):
            reference.sort()
            assert ordered.tobytes() == reference.tobytes()
            alpha = 1.0 - metrics.CI_LEVEL
            assert (ci.lo, ci.hi) == tuple(float(q) for q in np.quantile(reference, [alpha / 2.0, 1.0 - alpha / 2.0]))

    def _watch(self, monkeypatch, on_gather):
        real = metrics._validated
        monkeypatch.setattr(metrics, "_validated", lambda sample: real(sample).view(_Watched))
        monkeypatch.setattr(_Watched, "on_gather", staticmethod(on_gather))

    def test_the_drawer_ends_with_the_call(self, monkeypatch):
        start = threading.active_count()
        during = []
        self._watch(monkeypatch, lambda: during.append(threading.active_count()))
        bootstrap_cis([[1.0, 2.0, 4.0], [3.0] * 900], resamples=500)
        assert during[0] == start + 1  # the drawer may finish before the last gathers
        assert threading.active_count() == start

    def test_a_failed_gather_stops_and_joins_the_drawer(self, monkeypatch):
        start = threading.active_count()
        gathers = []

        def fail_third():
            gathers.append(threading.active_count())
            if len(gathers) == 3:
                time.sleep(0.05)  # time for the drawer to draw the next block and wait for a slot
                raise RuntimeError("gather failed")

        self._watch(monkeypatch, fail_third)
        with pytest.raises(RuntimeError, match="gather failed"):
            bootstrap_cis([[5.0] * 1000], resamples=10_000)
        assert gathers == [start + 1] * 3
        assert threading.active_count() == start

    def test_the_drawer_runs_one_block_ahead(self, monkeypatch):
        """Drawn blocks the caller has not finished with number at most two, however the threads are scheduled."""
        drawn, ahead = [], []

        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def integers(self, *args, **kwargs):
                drawn.append(None)
                return self.rng.integers(*args, **kwargs)

        def gather():  # one sample, so gather k is block k's only one
            if len(ahead) < 5:
                time.sleep(0.01)  # time for the drawer to get as far ahead as it may
            ahead.append(len(drawn) - len(ahead))

        monkeypatch.setattr(metrics, "default_rng", CountingRng)
        self._watch(monkeypatch, gather)
        bootstrap_cis([[5.0] * 1000], resamples=10_000)
        assert len(drawn) == len(ahead) == 313
        assert max(ahead) == 2

    def test_a_single_block_starts_no_thread(self, monkeypatch):
        start = threading.active_count()
        during = []
        self._watch(monkeypatch, lambda: during.append(threading.active_count()))
        [ci] = bootstrap_cis([[1.0, 2.0, 4.0]], resamples=7)
        assert during == [start]
        reference = np.sort(_serial_means([[1.0, 2.0, 4.0]], 7, seed=42)[0])
        alpha = 1.0 - metrics.CI_LEVEL
        assert (ci.lo, ci.hi) == (quantile_sorted(reference, alpha / 2.0), quantile_sorted(reference, 1.0 - alpha / 2.0))

    def test_a_drawer_error_reaches_the_caller(self, monkeypatch):
        start = threading.active_count()

        class FailingRng:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), 0

            def integers(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 3:
                    raise MemoryError("draw failed")
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(metrics, "default_rng", FailingRng)
        with pytest.raises(MemoryError, match="draw failed"):
            bootstrap_cis([[1.0, 2.0] * 500], resamples=1000)
        assert threading.active_count() == start


class TestDropTopKMean:
    def test_k_zero_unchanged(self):
        out = drop_top_k_mean({"a": [1, 2, 3]}, 0)
        assert out["a"] == (2.0, 2.0)

    def test_single_outlier_removed(self):
        out = drop_top_k_mean({"a": [1, 2, 3, 100]}, 1)
        original, adjusted = out["a"]
        assert original == pytest.approx(26.5)
        assert adjusted == pytest.approx(2.0)

    def test_only_owning_method_changes(self):
        out = drop_top_k_mean({"a": [1, 2, 3], "b": [50, 60, 400, 500]}, 2)
        assert out["a"][0] == out["a"][1]
        assert out["b"][1] == pytest.approx(55.0)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            drop_top_k_mean({"a": [1, 2]}, 2)


def _point(pid, cost, err):
    return {"id": pid, "cost_per_1k": cost, "mean_error_km": err}


class TestParetoFrontier:
    def test_single_point(self):
        p = _point("a", 1.0, 10.0)
        assert pareto_frontier([p]) == [p]

    def test_strict_dominance(self):
        a, b = _point("a", 1.0, 10.0), _point("b", 2.0, 20.0)
        assert pareto_frontier([a, b]) == [a]

    def test_reported_method_dominance(self):
        human = _point("human", 3255.81, 71.4)
        strong = _point("strong", 127.46, 23.4)
        frontier = pareto_frontier([human, strong])
        assert frontier == [strong]

    def test_duplicates_both_survive(self):
        a, b = _point("a", 1.0, 10.0), _point("b", 1.0, 10.0)
        assert len(pareto_frontier([a, b])) == 2

    def test_exhaustive_non_domination(self):
        rng = random.Random(23)
        for _ in range(50):
            pts = [
                _point(f"p{i}", rng.uniform(0, 100), rng.uniform(0, 100))
                for i in range(rng.randint(1, 12))
            ]
            frontier = pareto_frontier(pts)

            def dominates(q, p):
                return (
                    q["cost_per_1k"] <= p["cost_per_1k"]
                    and q["mean_error_km"] <= p["mean_error_km"]
                    and (q["cost_per_1k"] < p["cost_per_1k"] or q["mean_error_km"] < p["mean_error_km"])
                )

            for p in frontier:
                assert not any(dominates(q, p) for q in pts)
            for p in pts:
                if p not in frontier:
                    assert any(dominates(q, p) for q in frontier)
            costs = [p["cost_per_1k"] for p in frontier]
            assert costs == sorted(costs)


class TestMarginalCostPerHit:
    def test_reported_rows(self):
        assert marginal_cost_per_hit(1.05, 16.3) == pytest.approx(0.0644, abs=1e-3)
        assert marginal_cost_per_hit(127.46, 30.2) == pytest.approx(4.22, abs=0.01)

    def test_unit_case(self):
        assert marginal_cost_per_hit(100.0, 100.0) == 1.0

    def test_zero_hit_rate(self):
        with pytest.raises(ZeroHitRate):
            marginal_cost_per_hit(1.0, 0.0)


class TestLatencySummary:
    def test_baseline_self_comparison(self):
        out = latency_summary([502.0, 502.0], baseline_s_per_grant=502.0)
        assert out.speedup_vs_baseline == pytest.approx(1.0)

    def test_reported_speedups_from_hours_inputs(self):
        baseline_h_per_1k = 216.977
        baseline_s = baseline_h_per_1k * 3.6
        fast = latency_summary([0.178 * 3.6], baseline_s_per_grant=baseline_s)
        assert round(fast.speedup_vs_baseline) == 1219
        slow = latency_summary([12.060 * 3.6], baseline_s_per_grant=baseline_s)
        assert round(slow.speedup_vs_baseline) == 18

    def test_hours_conversion(self):
        out = latency_summary([3600.0])
        assert out.hours_per_1k == 1000.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            latency_summary([])

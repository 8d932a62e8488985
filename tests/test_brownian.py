"""Tree topology, determinism, additivity, and distribution checks."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revsde import brownian
from revsde.brownian import (
    BrownianInterval,
    VirtualBrownianTree,
    bridge_sample,
)
from revsde.prng import new_seed, split, standard_normals
from revsde.solvers import SolveConfig


class TestBridgeSample:
    def test_deterministic(self):
        w = np.array([0.7, -1.2, 0.1])
        s = new_seed(4)
        assert np.array_equal(bridge_sample(0.0, 1.0, 0.4, w, s),
                              bridge_sample(0.0, 1.0, 0.4, w, s))

    def test_point_outside_interval_rejected(self):
        w = np.zeros(2)
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError):
                bridge_sample(0.0, 1.0, bad, w, new_seed(0))

    def test_midpoint_moments(self):
        # s = (u+t)/2: conditional mean w/2, per-channel variance (t-u)/4.
        u, t, s = 0.0, 2.0, 1.0
        w = np.full(5, 1.3)
        draws = np.stack([bridge_sample(u, t, s, w, new_seed(k))
                          for k in range(20_000)])
        assert abs(draws.mean() - 0.65) < 0.01
        var = draws.var()
        assert abs(var - 0.5) / 0.5 < 0.01

    def test_quarter_point_moments(self):
        # u=0, t=1, s=0.25: mean 0.25*w, variance 0.75*0.25 = 0.1875.
        w = np.full(5, -0.8)
        draws = np.stack([bridge_sample(0.0, 1.0, 0.25, w, new_seed(k))
                          for k in range(20_000)])
        assert abs(draws.mean() - (-0.2)) < 0.01
        assert abs(draws.var() - 0.1875) / 0.1875 < 0.01


class TestTraverseTopology:
    """The lazy tree's walk: a leaf cut by a query splits at the query's
    endpoint inside it, and only the split points are kept."""

    def test_first_query_builds_two_level_tree(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        assert tree._splits == {(0.0, 1.0): 0.3, (0.3, 1.0): 0.7}
        assert tree.stats().node_count == 5

    def test_overlapping_second_query_splits_both_sides(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        assert tree._cover(0.1, 0.5) == [(0.1, 0.3), (0.3, 0.5)]
        assert tree._splits == {(0.0, 1.0): 0.3, (0.3, 1.0): 0.7,
                                (0.0, 0.3): 0.1, (0.3, 0.7): 0.5}

    def test_exact_match_creates_no_nodes(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        before = dict(tree._splits)
        assert tree._cover(0.3, 0.7) == [(0.3, 0.7)]
        assert tree._splits == before
        assert tree.stats().node_count == 5

    def test_children_seeds_follow_split_order(self):
        # [0, 0.3] is the root's left child, drawn with split(seed)[0];
        # [0.3, 0.7] the left child of the right child [0.3, 1].
        seed = new_seed(7)
        tree = BrownianInterval(1.0, seed, dims=2, batch=3)
        w37 = tree.query(0.3, 0.7)
        root = standard_normals(seed, 6).reshape(3, 2)
        left, right = split(seed)
        w03 = bridge_sample(0.0, 1.0, 0.3, root, left)
        assert np.array_equal(tree.query(0.0, 0.3), w03)
        assert np.array_equal(w37, bridge_sample(0.3, 1.0, 0.7, root - w03,
                                                 split(right)[0]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1),
           ops=st.lists(st.tuples(st.sampled_from(["new", "repeat", "span"]),
                                  st.integers(0, 100), st.integers(0, 100)),
                        min_size=1, max_size=16),
           span=st.tuples(st.integers(0, 99), st.integers(1, 100)))
    def test_walk_bitwise_across_capacities_and_spans_sum(self, seed, ops,
                                                          span):
        # Random overlapping, repeated and spanning queries give the same
        # values at capacities 1 and 10,000; a final span that is no node
        # is bitwise the left-to-right sum of the nodes of its cover, each
        # asked for as a sub-query first.
        queries = []
        for kind, i, j in ops:
            if kind == "new" or not queries:
                lo, hi = min(i, j), max(i, j)
                queries.append((lo, hi + (lo == hi)) if hi < 100
                               else (lo - (lo == hi), hi))
            elif kind == "repeat":
                queries.append(queries[i % len(queries)])
            else:
                (a, b), (c, d) = (queries[i % len(queries)],
                                  queries[j % len(queries)])
                queries.append((min(a, c), max(b, d)))
        s, t = min(span), max(span) + (span[0] >= span[1])

        def run(capacity):
            tree = BrownianInterval(1.0, seed, dims=2, batch=3,
                                    cache_capacity=capacity)
            values = [tree.query(a / 100, b / 100) for a, b in queries]
            cover = tree._cover(s / 100, t / 100)
            assert [a for a, _ in cover] + [t / 100] == ([s / 100]
                                                        + [b for _, b in cover])
            parts = [tree.query(a, b) for a, b in cover]
            whole = tree.query(s / 100, t / 100)
            if len(cover) > 1:
                total = parts[0]
                for part in parts[1:]:
                    total = total + part
                assert np.array_equal(whole, total)
            return values + parts + [whole]

        narrow = run(1)
        assert all(np.array_equal(a, b) for a, b in zip(narrow, run(10_000)))


class TestBrownianIntervalQueries:
    def test_root_query_is_direct_draw_from_seed(self):
        tree = BrownianInterval(4.0, 42, dims=2, batch=3)
        w = tree.query(0.0, 4.0)
        ref = 2.0 * standard_normals(new_seed(42), 6).reshape(3, 2)
        assert np.array_equal(w, ref)

    @pytest.mark.parametrize("t1", [np.inf, np.nan, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_horizon_rejected(self, t1):
        with pytest.raises(ValueError,
                           match=f"positive and finite, got {t1}"):
            BrownianInterval(t1, 0)

    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(1, 8), seed=st.integers(0, 2 ** 63 - 1),
           ends=st.lists(st.lists(st.integers(0, 100), min_size=2,
                                  max_size=2, unique=True),
                         min_size=1, max_size=12))
    def test_random_queries_bitwise_stable_across_repeats(self, capacity,
                                                          seed, ends):
        queries = [(min(e) / 100, max(e) / 100) for e in ends]

        def run(cap):
            tree = BrownianInterval(1.0, seed, dims=2, batch=3,
                                    cache_capacity=cap)
            first = [tree.query(s, t) for s, t in queries]
            again = [tree.query(s, t) for s, t in reversed(queries)]
            return first, again[::-1]

        first, again = run(capacity)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        wide, _ = run(10_000)
        assert all(np.array_equal(a, b) for a, b in zip(first, wide))

    def test_invalid_queries_rejected(self):
        tree = BrownianInterval(1.0, 0)
        for s, t in [(-0.1, 0.5), (0.2, 1.5), (0.5, 0.5), (0.6, 0.4)]:
            with pytest.raises(ValueError):
                tree.query(s, t)

    @pytest.mark.parametrize("make, setting, value", [
        (lambda v: BrownianInterval(1.0, 1).key_on_grid(v, lambda k: k / 4),
         "n", 4.0),
        (lambda v: BrownianInterval(1.0, 1).key_on_grid(v, lambda k: k),
         "n", True),
        (lambda v: BrownianInterval(1.0, 1, dims=v), "dims", 2.5),
        (lambda v: BrownianInterval(1.0, 1, batch=v), "batch", True),
        (lambda v: BrownianInterval(1.0, 1, cache_capacity=v),
         "cache_capacity", 2.5),
        (lambda v: VirtualBrownianTree(1.0, 1, dims=v), "dims", True),
        (lambda v: VirtualBrownianTree(1.0, 1, batch=v), "batch", 2.5),
    ], ids=["grid-n-float", "grid-n-bool", "dims-float", "batch-bool",
            "capacity-float", "vbt-dims-bool", "vbt-batch-float"])
    def test_integer_settings_reject_bools_and_fractions(self, make, setting,
                                                         value):
        # Unchecked, a bool or a fraction is truncated (dims 2.5 to 2), kept
        # (capacity 2.5) or, as a grid's n, breaks every later query.
        with pytest.raises(ValueError, match=rf"\b{setting}\b.*, got "
                                             rf"{re.escape(repr(value))}$"):
            make(value)

    def test_integer_settings_take_numpy_integers(self):
        tree = BrownianInterval(1.0, 1, dims=np.int64(2), batch=np.int32(3),
                                cache_capacity=np.int64(4))
        tree.key_on_grid(np.int64(4), lambda k: k / 4)
        assert tree.query(0.25, 0.5).shape == (3, 2)
        vbt = VirtualBrownianTree(1.0, 1, dims=np.int64(2), batch=np.int8(3))
        assert vbt.query(0, 1).shape == (3, 2)

    def test_rejected_grid_leaves_the_tree_lazy(self):
        tree = BrownianInterval(1.0, 5)
        with pytest.raises(ValueError, match=r"n >= 1 steps, got 4\.0"):
            tree.key_on_grid(4.0, lambda k: k / 4)
        tree.query(0.1, 0.2)
        assert tree.stats().node_count > 1

    def test_additivity_bitwise_for_materialized_parts(self):
        for seed in range(20):
            tree = BrownianInterval(1.0, seed, dims=4, batch=8)
            a = tree.query(0.2, 0.55)
            b = tree.query(0.55, 0.9)
            whole = tree.query(0.2, 0.9)
            assert np.array_equal(a + b, whole)

    def test_spanning_query_coinciding_with_a_node_is_its_own_value(self):
        # [0.2, 1] is an internal node after the two sub-queries: it
        # returns its own value (root minus its left sibling's bridge),
        # which matches the sub-query sum only to rounding, whereas the
        # non-coincident span [0.2, 0.9] is bitwise the sum.
        rounding_differs = False
        for seed in range(20):
            tree = BrownianInterval(1.0, seed, dims=4, batch=8)
            a = tree.query(0.2, 0.55)
            b = tree.query(0.55, 0.9)
            c = tree.query(0.9, 1.0)
            assert np.array_equal(tree.query(0.2, 0.9), a + b)
            root = standard_normals(new_seed(seed), 32).reshape(8, 4)
            left = bridge_sample(0.0, 1.0, 0.2, root, split(new_seed(seed))[0])
            node = tree.query(0.2, 1.0)
            assert np.array_equal(node, root - left)
            assert np.abs(node - (a + b + c)).max() <= 1e-12
            rounding_differs |= not np.array_equal(node, a + b + c)
        assert rounding_differs

    def test_coarse_query_equals_sum_of_prior_fine_queries(self):
        tree = BrownianInterval(1.0, 123, dims=1, batch=16)
        fine = [tree.query(0.2 + k * 0.05, 0.2 + (k + 1) * 0.05)
                for k in range(10)]
        coarse = tree.query(0.2, 0.7)
        acc = fine[0]
        for v in fine[1:]:
            acc = acc + v
        assert np.array_equal(acc, coarse)

    def test_repeat_queries_bitwise_stable_after_interleaving(self):
        tree = BrownianInterval(1.0, 5, dims=2, batch=4)
        first = tree.query(0.25, 0.5).copy()
        tree.query(0.1, 0.3)
        tree.query(0.45, 0.8)
        tree.query(0.26, 0.27)
        assert np.array_equal(tree.query(0.25, 0.5), first)

    def test_determinism_under_full_eviction(self):
        def run(capacity):
            tree = BrownianInterval(1.0, 5, dims=2, batch=4,
                                    cache_capacity=capacity)
            rng = np.random.default_rng(0)
            pts = np.sort(rng.uniform(0.01, 0.99, 40))
            out = [tree.query(pts[i], pts[i + 1]) for i in range(39)]
            out += [tree.query(pts[i], pts[i + 1]) for i in range(39)]
            return np.stack(out)

        base = run(10_000)
        assert np.array_equal(run(1), base)
        assert np.array_equal(run(128), base)

    def test_disjoint_increment_distribution(self):
        # 100 trees x 100 paths: variances (0.3, 0.4, 0.3), correlations ~ 0.
        cols = {0: [], 1: [], 2: []}
        for seed in range(100):
            tree = BrownianInterval(1.0, seed, batch=100)
            cols[0].append(tree.query(0.0, 0.3)[:, 0])
            cols[1].append(tree.query(0.3, 0.7)[:, 0])
            cols[2].append(tree.query(0.7, 1.0)[:, 0])
        x = np.stack([np.concatenate(cols[i]) for i in range(3)])
        for i, expect in enumerate([0.3, 0.4, 0.3]):
            assert abs(x[i].var() - expect) / expect < 0.05
        corr = np.corrcoef(x)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(corr[i, j]) < 0.03

    def test_hint_keeps_sequential_traversal_constant(self):
        tree = BrownianInterval(1.0, 3)
        n = 1000
        for k in range(100):
            tree.query(k / n, (k + 1) / n)
        tree.reset_stats()
        for k in range(100, n):
            tree.query(k / n, (k + 1) / n)
        stats = tree.stats()
        assert stats.mean_traverse_edges < 4.0

    def _sweeps(self, monkeypatch, capacity, n):
        """Forward then reverse sweep of n steps; (values, stats, draws)."""
        draws = []
        counted = standard_normals

        def counting(seed, count):
            draws.append(count)
            return counted(seed, count)

        monkeypatch.setattr(brownian, "standard_normals", counting)
        tree = BrownianInterval(1.0, 9, dims=2, batch=3,
                                cache_capacity=capacity)
        steps = [(k / n, (k + 1) / n if k + 1 < n else 1.0) for k in range(n)]
        values = [tree.query(s, t) for s, t in steps]
        forward_draws = len(draws)
        values += [tree.query(s, t) for s, t in reversed(steps)]
        return np.stack(values), asdict(tree.stats()), forward_draws

    def test_forward_sweep_draws_each_left_sibling_once(self, monkeypatch):
        # A right child reads its cached left sibling instead of redrawing
        # its bridge: about one draw per step, not two.
        n = 300
        _, _, draws = self._sweeps(monkeypatch, 128, n)
        assert draws <= n + 2

    @pytest.mark.parametrize("capacity", [1, 128, 10_000])
    def test_left_sibling_reuse_changes_no_value_or_stat(self, monkeypatch,
                                                         capacity):
        # Reference: every left sibling redrawn. Values, cache hits and
        # misses (hence eviction order) and recomputes must all agree.
        values, stats, _ = self._sweeps(monkeypatch, capacity, 300)
        monkeypatch.setattr(brownian._LRUCache, "peek", lambda self, node: None)
        ref_values, ref_stats, _ = self._sweeps(monkeypatch, capacity, 300)
        assert np.array_equal(values, ref_values)
        assert stats == ref_stats
        wide, _, _ = self._sweeps(monkeypatch, 10_000, 300)
        assert np.array_equal(values, wide)

    def test_stats_record_fields(self):
        tree = BrownianInterval(1.0, 1, cache_capacity=4)
        tree.query(0.1, 0.2)
        tree.query(0.2, 0.3)
        s = tree.stats()
        assert s.queries == 2
        assert s.node_count >= 5
        assert s.cache_hits + s.cache_misses > 0


class TestPrebuildDyadic:
    """`key_on_grid`, the prebuild every gradient solve runs: a fresh tree
    becomes a balanced index tree over the grid, halved at index midpoints,
    that stores no node."""

    @staticmethod
    def _time(n):
        return lambda k: k / n

    def test_grid_not_ending_at_t1_rejected(self):
        # A grid that does not end at t1 is no target to key on: keying
        # raises, naming both ends, and leaves the tree lazy.
        tree = BrownianInterval(1.0, 5)
        with pytest.raises(ValueError, match=r"time\(4\) = 0\.5, not at "
                                             r"t1 = 1\.0$"):
            tree.key_on_grid(4, lambda k: k / 8)
        tree.query(0.1, 0.2)
        assert tree.stats().node_count > 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_step_count_below_one_rejected(self, n):
        tree = BrownianInterval(1.0, 5)
        with pytest.raises(ValueError, match=f"n >= 1 steps, got {n}"):
            tree.key_on_grid(n, self._time(1))
        tree.query(0.1, 0.2)
        assert tree.stats().node_count > 1

    def test_prebuild_bounds_backward_chains(self):
        # Doubly-sequential pass, 5x the cache: keyed, a recompute chain is
        # at most ceil(log2 n) deep; lazy, it grows with the steps per leaf.
        n = 100

        def doubly(prebuild):
            tree = BrownianInterval(1.0, 11, cache_capacity=20)
            if prebuild:
                tree.key_on_grid(n, self._time(n))
            tree.reset_stats()
            for k in range(n):
                tree.query(k / n, (k + 1) / n)
            for k in reversed(range(n)):
                tree.query(k / n, (k + 1) / n)
            return tree.stats()

        with_pre = doubly(True)
        without = doubly(False)
        assert with_pre.max_sample_depth <= math.ceil(math.log2(n))
        assert with_pre.max_sample_depth < 0.3 * without.max_sample_depth
        assert with_pre.sample_recomputes / with_pre.queries < 3.0
        assert with_pre.node_count == 1

    def test_prebuild_then_queries_bitwise_stable(self):
        def run():
            tree = BrownianInterval(1.0, 9, batch=2, cache_capacity=16)
            tree.key_on_grid(50, self._time(50))
            return np.stack([tree.query(k / 50, (k + 1) / 50)
                             for k in range(50)])

        assert np.array_equal(run(), run())

    def test_second_prebuild_is_a_noop(self):
        # Even on another grid: the first grid stays the tree's keys.
        tree = BrownianInterval(1.0, 4, batch=2, cache_capacity=8)
        tree.key_on_grid(100, self._time(100))
        grid = [(k / 100, (k + 1) / 100) for k in range(100)]
        first = np.stack([tree.query(s, t) for s, t in grid])
        before = asdict(tree.stats())
        tree.key_on_grid(64, self._time(64))
        assert asdict(tree.stats()) == before
        assert np.array_equal(np.stack([tree.query(s, t) for s, t in grid]),
                              first)
        with pytest.raises(ValueError, match="off the grid of n = 100"):
            tree.query(0.0, 1 / 64)

    def test_prebuild_after_a_sequential_sweep_makes_no_nodes(self):
        # A tree that queries have split keeps its shape: the prebuild
        # neither reshapes the drawn path nor restricts later queries.
        tree = BrownianInterval(1.0, 9, cache_capacity=8)
        grid = [(k / 100, (k + 1) / 100) for k in range(100)]
        first = np.stack([tree.query(s, t) for s, t in grid])
        before = tree.stats()
        tree.key_on_grid(100, self._time(100))
        after = tree.stats()
        assert after.node_count == before.node_count
        assert after.queries == before.queries
        assert np.array_equal(np.stack([tree.query(s, t) for s, t in grid]),
                              first)
        tree.query(0.005, 0.01)

    def test_determinism_under_eviction(self):
        # Values are pure functions of (root seed, grid): a forward then a
        # reverse sweep gives the same increments whatever the LRU evicts.
        n = 100
        time = SolveConfig("reversible_heun", 0.01, 1.0, None).time

        def sweeps(capacity):
            tree = BrownianInterval(1.0, 21, dims=2, batch=3,
                                    cache_capacity=capacity)
            tree.key_on_grid(n, time)
            order = list(range(n)) + list(reversed(range(n)))
            return np.stack([tree.query(time(i), time(i + 1))
                             for i in order])

        base = sweeps(128)
        for capacity in (1, 2, 3):
            assert np.array_equal(sweeps(capacity), base)

    def test_keying_a_tree_whose_root_was_queried(self):
        # A root drawn before keying must not answer for a grid node: the
        # lazy root's key (0.0, 1.0) equals the first step's index key (0, 1).
        tree = BrownianInterval(1.0, 6, dims=2, batch=3)
        w = tree.query(0.0, 1.0)
        tree.key_on_grid(4, self._time(4))
        fresh = BrownianInterval(1.0, 6, dims=2, batch=3)
        fresh.key_on_grid(4, self._time(4))
        assert np.array_equal(tree.query(0.0, 0.25), fresh.query(0.0, 0.25))
        assert np.array_equal(tree.query(0.0, 1.0), w)

    @pytest.mark.parametrize("n", [5, 7, 12, 65])
    def test_step_increment_distribution(self, n):
        # 12 trees x 16,000 paths per step, read back by a reverse sweep
        # after a forward one: mean 0, variance 1/n, uncorrelated steps,
        # across leaf blocks too (n = 65 spans three of them).
        for capacity in (1, 2, 128):
            steps = []
            for seed in range(12):
                tree = BrownianInterval(1.0, seed, batch=16_000,
                                        cache_capacity=capacity)
                tree.key_on_grid(n, self._time(n))
                for k in range(n):
                    tree.query(k / n, (k + 1) / n)
                steps.append([tree.query(k / n, (k + 1) / n)[:, 0]
                              for k in reversed(range(n))][::-1])
            x = np.concatenate(steps, axis=1) * math.sqrt(n)
            assert x.shape == (n, 192_000)
            assert np.abs(x.mean(axis=1)).max() < 0.01
            assert np.abs(x.var(axis=1) - 1.0).max() < 0.02
            corr = np.corrcoef(x)[np.triu_indices(n, 1)]
            assert np.abs(corr).max() <= 0.015

    def test_off_grid_query_raises_and_changes_no_stat(self):
        tree = BrownianInterval(1.0, 2, cache_capacity=4)
        tree.key_on_grid(100, self._time(100))
        tree.query(0.5, 0.51)
        before = asdict(tree.stats())
        for s, t in ((0.505, 0.51), (0.5, 0.515), (0.0, 0.333)):
            with pytest.raises(ValueError,
                               match=re.escape(f"query [{s}, {t}] is off "
                                               f"the grid of n = 100")):
                tree.query(s, t)
        assert asdict(tree.stats()) == before


class TestKeyedTree:
    """A keyed tree's leaf blocks: a node of at most BLOCK_STEPS grid steps
    draws all its step increments at once, given its own increment."""

    @staticmethod
    def _time(n):
        return lambda k: k / n

    @staticmethod
    def _block(time, lo, hi, w, seed):
        """Steps lo ... hi - 1 of the block with increment w, by hand:
        X_i = sqrt(dt_i) xi_i - (dt_i / T)(sum_j sqrt(dt_j) xi_j - w), the
        normals xi drawn from the left child of the block's seed."""
        t = np.array([time(k) for k in range(lo, hi + 1)])
        dt = np.diff(t)[:, None, None]
        xi = standard_normals(split(seed)[0], (hi - lo) * w.size)
        y = np.sqrt(dt) * xi.reshape(hi - lo, *w.shape)
        return y - dt / (t[-1] - t[0]) * (y.sum(axis=0) - w)

    def test_upper_nodes_bridge_down_to_leaf_blocks(self):
        # n = 2B + 6: the root and its halves [0, h) and [h, n) are upper
        # nodes, and the halves' halves are blocks. Left children are
        # bridges from the parent with the left split seed, right children
        # the parent minus their left sibling; a block's steps follow.
        B = brownian.BLOCK_STEPS
        n, h = 2 * B + 6, B + 3
        time = self._time(n)
        seed = new_seed(5)
        tree = BrownianInterval(1.0, seed, dims=2, batch=3, cache_capacity=1)
        tree.key_on_grid(n, time)
        root = standard_normals(seed, 6).reshape(3, 2)
        left, right = split(seed)
        w_left = bridge_sample(0.0, 1.0, time(h), root, left)
        blocks = []
        for lo, hi, w, node_seed in ((0, h, w_left, left),
                                     (h, n, root - w_left, right)):
            mid = (lo + hi) // 2
            seed_a, seed_b = split(node_seed)
            w_a = bridge_sample(time(lo), time(hi), time(mid), w, seed_a)
            blocks += [(lo, mid, w_a, seed_a), (mid, hi, w - w_a, seed_b)]
        steps = np.concatenate([self._block(time, *blk) for blk in blocks])
        assert len(steps) == n
        assert all(1 < hi - lo <= B for lo, hi, _, _ in blocks)
        for k in list(reversed(range(n))) + list(range(n)):
            assert np.array_equal(tree.query(time(k), time(k + 1)), steps[k])
        for lo, hi, w, _ in blocks:  # a whole block answers as its node
            assert np.array_equal(tree.query(time(lo), time(hi)), w)
        assert np.array_equal(tree.query(0.0, time(h)), w_left)
        assert np.array_equal(tree.query(time(h), 1.0), root - w_left)
        assert np.array_equal(tree.query(0.0, 1.0), root)
        stats = tree.stats()
        assert stats.node_count == 1
        assert stats.max_sample_depth <= math.ceil(math.log2(n / B)) + 1

    def test_grid_aligned_span_is_the_sum_of_its_cover(self):
        # n = 8B: [B - 2, 6B + 8) is covered by the last two rows of the
        # block [0, B), the block [B, 2B), the upper nodes [2B, 4B) and
        # [4B, 6B), and the first eight rows of the block [6B, 7B).
        B = brownian.BLOCK_STEPS
        n, a, b = 8 * B, B - 2, 6 * B + 8
        tree = BrownianInterval(1.0, 3, dims=2, batch=2)
        tree.key_on_grid(n, self._time(n))
        cover = tree._cover(a, b)
        assert cover == ([(B - 2, B - 1), (B - 1, B), (B, 2 * B),
                          (2 * B, 4 * B), (4 * B, 6 * B)]
                         + [(k, k + 1) for k in range(6 * B, b)])
        parts = [tree.query(lo / n, hi / n) for lo, hi in cover]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert np.array_equal(tree.query(a / n, b / n), total)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 63 - 1),
           ops=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199),
                                  st.booleans()), min_size=1, max_size=16))
    def test_random_steps_and_spans_bitwise_across_capacities(self, n, seed,
                                                              ops):
        # One-step and span queries give the same values at capacities 1
        # and 10,000, and each span is bitwise the left-to-right sum of the
        # parts of its cover (nodes and block rows), each asked for alone.
        queries = []
        for i, j, one_step in ops:
            a = i % n
            queries.append((a, a + 1 if one_step else a + 1 + j % (n - a)))

        def run(capacity):
            tree = BrownianInterval(1.0, seed, dims=2, batch=3,
                                    cache_capacity=capacity)
            tree.key_on_grid(n, self._time(n))
            values = []
            for a, b in queries:
                whole = tree.query(a / n, b / n)
                cover = tree._cover(a, b)
                assert [lo for lo, _ in cover] + [b] == ([a] + [
                    hi for _, hi in cover])
                parts = [tree.query(lo / n, hi / n) for lo, hi in cover]
                total = parts[0]
                for part in parts[1:]:
                    total = total + part
                assert np.array_equal(whole, total)
                values += [whole] + parts
            return values

        narrow = run(1)
        assert all(np.array_equal(x, y) for x, y in zip(narrow, run(10_000)))

    def test_sweeps_draw_at_most_one_normal_batch_per_four_steps(
            self, monkeypatch):
        # Forward then reverse over n = 1,024 steps at capacity 128: one
        # bridge per upper node and one draw per block, each way, plus the
        # regrowth of evicted ancestors; one bridge per step without blocks.
        draws = []
        counted = standard_normals

        def counting(seed, count):
            draws.append(count)
            return counted(seed, count)

        monkeypatch.setattr(brownian, "standard_normals", counting)
        n = 1024
        tree = BrownianInterval(1.0, 9, dims=4, batch=8, cache_capacity=128)
        tree.key_on_grid(n, self._time(n))
        for k in list(range(n)) + list(reversed(range(n))):
            tree.query(k / n, (k + 1) / n)
        assert len(draws) <= n / 4

    @pytest.mark.parametrize("capacity", [1, 2, 40, 128])
    def test_cache_holds_at_most_capacity_or_one_block(self, capacity):
        # The LRU counts step increments: a block of m steps costs m, and
        # one larger than the capacity is cached alone.
        n = 200
        tree = BrownianInterval(1.0, 4, dims=2, batch=3,
                                cache_capacity=capacity)
        tree.key_on_grid(n, self._time(n))
        rng = np.random.default_rng(0)
        spans = [sorted(rng.choice(n + 1, 2, replace=False))
                 for _ in range(40)]
        steps = [(k, k + 1) for k in range(n)]
        for a, b in steps + steps[::-1] + spans:
            tree.query(a / n, b / n)
            cached = tree._cache._data.values()
            held = sum(len(v) if v.ndim == 3 else 1 for v in cached)
            assert held == tree._cache.size
            assert held <= max(capacity, brownian.BLOCK_STEPS)


class TestVirtualBrownianTree:
    def test_full_span_is_root_draw(self):
        vbt = VirtualBrownianTree(4.0, 42, dims=2, batch=3)
        ref = 2.0 * standard_normals(new_seed(42), 6).reshape(3, 2)
        assert np.array_equal(vbt.query(0.0, 4.0), ref)

    def test_stateless_between_queries(self):
        vbt = VirtualBrownianTree(1.0, 8, batch=2)
        first = vbt.query(0.25, 0.75).copy()
        vbt.query(0.1, 0.9)
        vbt.query(0.3, 0.4)
        assert np.array_equal(vbt.query(0.25, 0.75), first)

    def test_sub_resolution_endpoints_collapse(self):
        vbt = VirtualBrownianTree(1.0, 8, tol=2.0 ** -10)
        a = vbt.query(0.5, 0.75)
        b = vbt.query(0.5 + 2.0 ** -14, 0.75 + 2.0 ** -14)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("t1", [np.inf, np.nan, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_horizon_rejected(self, t1):
        with pytest.raises(ValueError,
                           match=f"positive and finite, got {t1}"):
            VirtualBrownianTree(t1, 8)

    def test_invalid_queries_rejected(self):
        vbt = VirtualBrownianTree(1.0, 8)
        for s, t in [(-0.1, 0.5), (0.2, 1.5), (0.5, 0.5)]:
            with pytest.raises(ValueError):
                vbt.query(s, t)

    def test_disjoint_increment_variance(self):
        vbt = VirtualBrownianTree(1.0, 9, batch=16, tol=2.0 ** -20)
        n = 1 << 13
        vals = np.stack([vbt.query(k / n, (k + 1) / n) for k in range(n)])
        var = vals.var()
        assert abs(var * n - 1.0) < 0.02

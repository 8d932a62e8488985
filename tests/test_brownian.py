"""Tree topology, determinism, additivity, and distribution checks."""

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
    def test_first_query_builds_two_level_tree(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        root = tree._root
        assert (root.left.a, root.left.b) == (0.0, 0.3)
        assert (root.right.a, root.right.b) == (0.3, 1.0)
        assert (root.right.left.a, root.right.left.b) == (0.3, 0.7)
        assert (root.right.right.a, root.right.right.b) == (0.7, 1.0)
        assert root.left.left is None

    def test_overlapping_second_query_splits_both_sides(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        nodes = tree._traverse(tree._hint, 0.1, 0.5)
        assert [(n.a, n.b) for n in nodes] == [(0.1, 0.3), (0.3, 0.5)]
        root = tree._root
        assert (root.left.left.a, root.left.left.b) == (0.0, 0.1)
        assert (root.left.right.a, root.left.right.b) == (0.1, 0.3)
        mid = root.right.left
        assert (mid.left.a, mid.left.b) == (0.3, 0.5)
        assert (mid.right.a, mid.right.b) == (0.5, 0.7)

    def test_exact_match_creates_no_nodes(self):
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        before = tree.stats().node_count
        nodes = tree._traverse(tree._hint, 0.3, 0.7)
        assert len(nodes) == 1
        assert (nodes[0].a, nodes[0].b) == (0.3, 0.7)
        assert tree.stats().node_count == before

    def test_children_seeds_follow_split_order(self):
        from revsde.prng import split
        tree = BrownianInterval(1.0, 7)
        tree.query(0.3, 0.7)
        root = tree._root
        left, right = split(root.seed)
        assert root.left.seed == left
        assert root.right.seed == right


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
    def test_depth_matches_safety_factor_target(self):
        # step 0.01, cache 20 -> target 0.16 -> leaf width 1/8, depth 3.
        tree = BrownianInterval(1.0, 5, cache_capacity=20)
        tree.prebuild_dyadic(0.01)
        node, depth = tree._root, 0
        while node.left is not None:
            node = node.left
            depth += 1
        assert depth == 3
        assert node.b - node.a == 0.125

    def test_degenerate_target_is_noop(self):
        tree = BrownianInterval(1.0, 5)
        tree.prebuild_dyadic(2.0)
        assert tree.stats().node_count == 1

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_step_rejected(self, step):
        # Before: inf was a silent no-op and NaN died converting to int.
        tree = BrownianInterval(1.0, 5)
        with pytest.raises(ValueError,
                           match=f"positive and finite, got {step}"):
            tree.prebuild_dyadic(step)
        assert tree.stats().node_count == 1

    def test_prebuild_bounds_backward_chains(self):
        # Doubly-sequential pass: recompute chains stay bounded by the
        # per-leaf spine length plus the dyadic depth, instead of growing
        # with the number of steps.
        def doubly(prebuild):
            tree = BrownianInterval(1.0, 11, cache_capacity=20)
            if prebuild:
                tree.prebuild_dyadic(0.01)
            tree.reset_stats()
            n = 100
            for k in range(n):
                tree.query(k / n, (k + 1) / n)
            for k in reversed(range(n)):
                tree.query(k / n, (k + 1) / n)
            return tree.stats()

        with_pre = doubly(True)
        without = doubly(False)
        # leaf width 1/8 -> 12.5 steps per leaf; depth 3.
        assert with_pre.max_sample_depth <= 13 + 3 + 2
        assert with_pre.max_sample_depth < 0.3 * without.max_sample_depth
        assert with_pre.sample_recomputes / with_pre.queries < 3.0

    def test_prebuild_then_queries_bitwise_stable(self):
        def run():
            tree = BrownianInterval(1.0, 9, batch=2, cache_capacity=16)
            tree.prebuild_dyadic(0.02)
            return np.stack([tree.query(k / 50, (k + 1) / 50)
                             for k in range(50)])

        assert np.array_equal(run(), run())

    def test_second_prebuild_is_a_noop(self):
        tree = BrownianInterval(1.0, 4, batch=2, cache_capacity=8)
        tree.prebuild_dyadic(0.01)
        grid = [(k / 100, (k + 1) / 100) for k in range(100)]
        first = np.stack([tree.query(s, t) for s, t in grid])
        nodes, queries = tree.stats().node_count, tree.stats().queries
        tree.prebuild_dyadic(0.01)
        assert (tree.stats().node_count, tree.stats().queries) == (nodes,
                                                                  queries)
        assert np.array_equal(np.stack([tree.query(s, t) for s, t in grid]),
                              first)

    def test_prebuild_after_a_sequential_sweep_makes_no_nodes(self):
        # A tree that queries have split keeps its shape: the prebuild
        # neither reshapes the drawn path nor sums whole halves of it.
        tree = BrownianInterval(1.0, 9, cache_capacity=8)
        grid = [(k / 100, (k + 1) / 100) for k in range(100)]
        first = np.stack([tree.query(s, t) for s, t in grid])
        before = tree.stats()
        tree.prebuild_dyadic(0.01)
        after = tree.stats()
        assert after.node_count == before.node_count
        assert after.queries == before.queries
        assert np.array_equal(np.stack([tree.query(s, t) for s, t in grid]),
                              first)


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

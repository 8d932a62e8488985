"""Determinism, splitting, and distribution checks for the noise streams."""

import sys
import threading

import numpy as np
import pytest

from revsde.prng import SeedState, new_seed, split, standard_normals


class TestNewSeed:
    def test_deterministic(self):
        assert new_seed(0) == new_seed(0)
        assert new_seed(123456789) == new_seed(123456789)

    def test_distinct_over_consecutive_entropies(self):
        seeds = {new_seed(k) for k in range(10_000)}
        assert len(seeds) == 10_000

    def test_low_word_bits_are_balanced(self):
        # Mean of all bits of the low word over 1e4 consecutive entropies.
        bits = []
        for k in range(10_000):
            lo = new_seed(k).lo
            bits.append([(lo >> i) & 1 for i in range(64)])
        mean = np.mean(bits)
        assert abs(mean - 0.5) < 0.02


class TestSplit:
    def test_deterministic(self):
        s = new_seed(7)
        assert split(s) == split(s)

    def test_children_distinct(self):
        for k in range(100):
            s = new_seed(k)
            left, right = split(s)
            assert left != right
            assert left != s
            assert right != s

    def test_sibling_streams_uncorrelated(self):
        # First normal of each sibling stream over 1e4 split pairs.
        xs, ys = [], []
        for k in range(10_000):
            left, right = split(new_seed(k))
            xs.append(standard_normals(left, 1)[0])
            ys.append(standard_normals(right, 1)[0])
        r = np.corrcoef(xs, ys)[0, 1]
        assert abs(r) < 0.03

    def test_descendants_distinct_in_small_tree(self):
        # Breadth-first split to depth 6: all 127 states distinct.
        states = [new_seed(42)]
        frontier = list(states)
        for _ in range(6):
            nxt = []
            for s in frontier:
                nxt.extend(split(s))
            states.extend(nxt)
            frontier = nxt
        assert len(set(states)) == len(states)


class TestStandardNormals:
    def test_bitwise_deterministic(self):
        s = new_seed(3)
        a = standard_normals(s, 1000)
        b = standard_normals(s, 1000)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        s = new_seed(11)
        short = standard_normals(s, 100)
        long = standard_normals(s, 10_000)
        assert np.array_equal(short, long[:100])

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            standard_normals(new_seed(0), 0)

    def test_moments(self):
        x = standard_normals(new_seed(2024), 1_000_000)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01

    def test_tail_probability(self):
        x = standard_normals(new_seed(555), 1_000_000)
        frac = np.mean(np.abs(x) > 1.96)
        assert abs(frac - 0.05) < 0.002

    def test_streams_from_different_seeds_differ(self):
        a = standard_normals(new_seed(0), 16)
        b = standard_normals(new_seed(1), 16)
        assert not np.array_equal(a, b)

    def test_every_key_bit_reaches_the_stream(self):
        # Most of these seeds have a word >= 2**63, which a float64 key
        # would round; flipping bit 0 of either word must change the draw.
        known = SeedState(0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)
        assert not np.array_equal(
            standard_normals(known, 4),
            standard_normals(SeedState(known.hi + 1, known.lo), 4))
        for k in range(1000):
            s = new_seed(k)
            base = standard_normals(s, 4)
            for flipped in (SeedState(s.hi ^ 1, s.lo),
                            SeedState(s.hi, s.lo ^ 1)):
                assert not np.array_equal(base, standard_normals(flipped, 4))

    def test_seed_words_validated(self):
        with pytest.raises(ValueError):
            SeedState(-1, 0)
        with pytest.raises(ValueError):
            SeedState(0, 1 << 64)

    def test_matches_a_freshly_constructed_philox(self):
        # The per-thread re-keyed generator must reproduce a new
        # Philox(key=[hi, lo]) bitwise. Counts rotate per seed, so a draw
        # always follows one of another length from another key: any
        # counter or buffer state left over from the previous draw shows.
        def constructed(s, count):
            key = np.array([s.hi, s.lo], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            return gen.standard_normal(count)

        seeds = [new_seed(k) for k in range(1000)]
        seeds += [SeedState(2**64 - 1, 2**63), SeedState(2**63, 0),
                  SeedState(0, 2**64 - 1)]
        assert sum(s.hi >= 2**63 or s.lo >= 2**63 for s in seeds) > 500
        counts = (1, 3, 2560)
        for k, s in enumerate(seeds):
            for count in counts[k % 3:] + counts[:k % 3]:
                assert np.array_equal(standard_normals(s, count),
                                      constructed(s, count))

    def test_concurrent_threads_draw_their_own_streams(self):
        # Each thread re-keys its own generator; a shared one would let a
        # thread draw under another's key between re-key and draw. More
        # threads than cores and a short switch interval force interleaving.
        names = range(4)
        seeds = {name: [new_seed(1000 * name + k) for k in range(200)]
                 for name in names}
        counts = (1, 2560, 3)
        expected = {name: [standard_normals(s, counts[k % 3])
                           for k, s in enumerate(ss)]
                    for name, ss in seeds.items()}
        got = {}
        barrier = threading.Barrier(len(names))

        def draw(name):
            barrier.wait()
            got[name] = [standard_normals(s, counts[k % 3])
                         for k, s in enumerate(seeds[name])]

        threads = [threading.Thread(target=draw, args=(name,))
                   for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name in names:
            assert all(np.array_equal(a, b)
                       for a, b in zip(got[name], expected[name], strict=True))

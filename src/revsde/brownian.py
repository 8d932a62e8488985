"""Exact Brownian motion over arbitrary time intervals.

Two interchangeable noise sources are provided:

* `BrownianInterval` -- a binary tree of (interval, seed) nodes. The
  increment of any node is a pure function of the root seed and the node's
  ancestry, so increments can be evicted from the bounded LRU cache and
  recomputed bitwise later. A hint to the most recently returned node makes
  the sequential access pattern of an SDE solver O(1) amortized.

* `VirtualBrownianTree` -- the classical baseline: query points are rounded
  to a dyadic grid of resolution `tol` and each evaluation descends from
  the root by repeated bridge conditioning. Stateless and approximate.

Both sample `batch` independent paths of `dims` channels per query and
share the same bridge kernel and seed-splitting, so speed comparisons
between them measure the data structures, not the arithmetic.

Increments are laid out batch-major: a query returns shape (batch, dims),
filled from a single normal draw of length batch*dims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prng import SeedState, new_seed, split, standard_normals


def _as_seed(seed) -> SeedState:
    if isinstance(seed, SeedState):
        return seed
    return new_seed(int(seed))


def bridge_sample(u: float, t: float, s: float, w_ut: np.ndarray,
                  seed: SeedState) -> np.ndarray:
    """Sample W_{u,s} conditional on the increment W_{u,t} = w_ut.

    The conditional law is the Brownian bridge: mean ((s-u)/(t-u)) * w_ut
    and per-channel variance (t-s)(s-u)/(t-u). Deterministic in all
    arguments; the normals come from `seed`.
    """
    if not (u < s < t):
        raise ValueError(f"bridge point must satisfy u < s < t, got {u}, {s}, {t}")
    mean_frac = (s - u) / (t - u)
    std = math.sqrt((t - s) * (s - u) / (t - u))
    xi = standard_normals(seed, w_ut.size).reshape(w_ut.shape)
    return mean_frac * w_ut + std * xi


class _Node:
    """Tree node owning the interval [a, b] plus a splittable seed.

    Children, when present, partition [a, b] exactly at some interior
    point; their seeds are split(seed) in (left, right) order.
    """

    __slots__ = ("a", "b", "seed", "parent", "left", "right")

    def __init__(self, a: float, b: float, seed: SeedState, parent):
        self.a = a
        self.b = b
        self.seed = seed
        self.parent = parent
        self.left = None
        self.right = None


class _LRUCache:
    """Identity-keyed LRU map from node to its sampled increment."""

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data = {}  # insertion order doubles as recency order

    def get(self, node):
        value = self._data.pop(node, None)
        if value is None:
            self.misses += 1
            return None
        self._data[node] = value
        self.hits += 1
        return value

    def put(self, node, value):
        data = self._data
        if node in data:
            del data[node]
        elif len(data) >= self.capacity:
            del data[next(iter(data))]
        data[node] = value

    def __len__(self):
        return len(self._data)


@dataclass
class TreeStats:
    """Counters exposed for the benchmark harness."""

    node_count: int
    cache_hits: int
    cache_misses: int
    queries: int
    traverse_edges: int
    max_traverse_edges: int
    sample_recomputes: int
    max_sample_depth: int

    @property
    def mean_traverse_edges(self) -> float:
        return self.traverse_edges / self.queries if self.queries else 0.0


class BrownianInterval:
    """Exact, constant-memory Brownian increment store over [0, t1].

    The tree starts as a stump; leaves are bisected lazily as queries
    arrive. The increment of a node is recovered from its parent: left
    children by bridge conditioning (normals drawn from the left child's
    seed), right children by subtracting the left sibling's value. Repeated
    queries of the same interval return bitwise-identical values regardless
    of cache evictions or intervening queries, and a query that spans
    already-materialized nodes returns exactly their left-to-right
    floating-point sum, so summing consecutive sub-queries reproduces the
    spanning query bitwise.

    Queries mutate the tree, cache, and hint: a given instance needs
    exclusive access during `query`, but distinct instances are fully
    independent. Returned arrays are owned by the cache -- do not mutate.

    Note the sample path realized for a given seed depends on the query
    order (which determines the tree topology); only the distribution and
    per-instance determinism are guaranteed.
    """

    def __init__(self, t1: float, seed, dims: int = 1, batch: int = 1,
                 cache_capacity: int = 128):
        if not (t1 > 0.0):
            raise ValueError(f"horizon must be positive, got {t1}")
        if dims < 1 or batch < 1:
            raise ValueError("dims and batch must be positive")
        self.t1 = float(t1)
        self.dims = int(dims)
        self.batch = int(batch)
        self._root = _Node(0.0, self.t1, _as_seed(seed), None)
        self._hint = self._root
        self._cache = _LRUCache(cache_capacity)
        self._node_count = 1
        self._queries = 0
        self._traverse_edges = 0
        self._max_traverse_edges = 0
        self._sample_recomputes = 0
        self._max_sample_depth = 0

    @property
    def cache_capacity(self) -> int:
        return self._cache.capacity

    def query(self, s: float, t: float) -> np.ndarray:
        """Return W_t - W_s with shape (batch, dims)."""
        if not (0.0 <= s < t <= self.t1):
            raise ValueError(
                f"query must satisfy 0 <= s < t <= {self.t1}, got [{s}, {t}]")
        nodes = self._traverse(self._hint, s, t)
        self._hint = nodes[-1]
        self._queries += 1
        total = self._sample(nodes[0])
        for node in nodes[1:]:
            total = total + self._sample(node)
        return total

    def prebuild_dyadic(self, step_estimate: float, cache_size: int | None = None):
        """Pre-split the tree dyadically before user queries arrive.

        Issues internal queries [0, t1/2], [t1/2, t1], [0, t1/4], ... until
        leaf width is at most (4/5) * step_estimate * cache_size. A later
        backward sweep then recomputes chains bounded by one leaf's worth
        of steps plus the dyadic depth, instead of chains that grow with
        the total step count. Degenerate targets (>= t1) are a no-op.
        Changes the tree topology, and therefore the realized path, for a
        given seed.
        """
        if step_estimate <= 0:
            raise ValueError(f"step estimate must be positive, got {step_estimate}")
        size = self._cache.capacity if cache_size is None else int(cache_size)
        if size < 1:
            raise ValueError(f"cache size must be >= 1, got {size}")
        target = 0.8 * step_estimate * size
        if target >= self.t1:
            return
        depth = math.ceil(math.log2(self.t1 / target))
        for level in range(1, depth + 1):
            pieces = 1 << level
            width = self.t1 / pieces
            for j in range(pieces):
                b = (j + 1) * width if j + 1 < pieces else self.t1
                self.query(j * width, b)

    def stats(self) -> TreeStats:
        return TreeStats(
            node_count=self._node_count,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            queries=self._queries,
            traverse_edges=self._traverse_edges,
            max_traverse_edges=self._max_traverse_edges,
            sample_recomputes=self._sample_recomputes,
            max_sample_depth=self._max_sample_depth,
        )

    def reset_stats(self):
        """Zero the access counters (node count is structural, kept)."""
        self._cache.hits = 0
        self._cache.misses = 0
        self._queries = 0
        self._traverse_edges = 0
        self._max_traverse_edges = 0
        self._sample_recomputes = 0
        self._max_sample_depth = 0

    # -- tree walking -------------------------------------------------

    def _bisect(self, node: _Node, x: float):
        # Only called on leaves with node.a < x < node.b.
        seed_left, seed_right = split(node.seed)
        node.left = _Node(node.a, x, seed_left, node)
        node.right = _Node(x, node.b, seed_right, node)
        self._node_count += 2

    def _traverse(self, node: _Node, c: float, d: float) -> list:
        """Find or create the nodes partitioning [c, d], left to right.

        Iterative with an explicit work stack so deep trees cannot hit the
        recursion limit. Starts from the hint: ascends while [c, d] escapes
        the current node, then descends, bisecting leaves at the query
        endpoints.
        """
        edges = 0
        while c < node.a or d > node.b:
            node = node.parent
            edges += 1
        out = []
        stack = [(node, c, d)]
        while stack:
            nd, qa, qb = stack.pop()
            if qa == nd.a and qb == nd.b:
                out.append(nd)
            elif nd.left is None:
                if qa == nd.a:
                    self._bisect(nd, qb)
                    edges += 1
                    out.append(nd.left)
                else:
                    self._bisect(nd, qa)
                    edges += 1
                    stack.append((nd.right, qa, qb))
            else:
                m = nd.left.b
                if qb <= m:
                    edges += 1
                    stack.append((nd.left, qa, qb))
                elif qa >= m:
                    edges += 1
                    stack.append((nd.right, qa, qb))
                else:
                    edges += 2
                    stack.append((nd.right, m, qb))
                    stack.append((nd.left, qa, m))
        self._traverse_edges += edges
        if edges > self._max_traverse_edges:
            self._max_traverse_edges = edges
        return out

    def _sample(self, node: _Node) -> np.ndarray:
        """Increment of `node`, memoized through the LRU cache.

        Walks up to the nearest cached ancestor (or the root, whose value
        is N(0, t1 I) drawn from its own seed), then back down: left
        children by bridge, right children by subtracting the left
        sibling's bridge value, recomputed from the same seed either way.
        """
        cache = self._cache
        chain = []
        node_cur = node
        while True:
            value = cache.get(node_cur)
            if value is not None:
                break
            if node_cur.parent is None:
                xi = standard_normals(node_cur.seed, self.batch * self.dims)
                value = math.sqrt(self.t1) * xi.reshape(self.batch, self.dims)
                cache.put(node_cur, value)
                break
            chain.append(node_cur)
            node_cur = node_cur.parent
        depth = len(chain)
        self._sample_recomputes += depth
        if depth > self._max_sample_depth:
            self._max_sample_depth = depth
        for child in reversed(chain):
            parent = child.parent
            left = parent.left
            w_left = bridge_sample(parent.a, parent.b, left.b, value, left.seed)
            value = w_left if child is left else value - w_left
            cache.put(child, value)
        return value


class VirtualBrownianTree:
    """Dyadic bridge-descent Brownian sampler over [0, t1] (baseline).

    Point evaluations round to the dyadic grid of resolution `tol`
    (default t1 * 2**-16) and then descend from the root, conditioning on
    the current interval's endpoints at every level with a seed split per
    descent. No cache and no mutable state: every query recomputes its
    endpoints from the root, which costs O(log(1/tol)) bridge draws.
    """

    def __init__(self, t1: float, seed, dims: int = 1, batch: int = 1,
                 tol: float | None = None):
        if not (t1 > 0.0):
            raise ValueError(f"horizon must be positive, got {t1}")
        if dims < 1 or batch < 1:
            raise ValueError("dims and batch must be positive")
        self.t1 = float(t1)
        self.dims = int(dims)
        self.batch = int(batch)
        self.tol = self.t1 * 2.0 ** -16 if tol is None else float(tol)
        if not (0 < self.tol < self.t1):
            raise ValueError(f"tolerance must lie in (0, t1), got {self.tol}")
        self._levels = max(1, math.ceil(math.log2(self.t1 / self.tol)))
        self._seed = _as_seed(seed)
        xi = standard_normals(self._seed, self.batch * self.dims)
        self._w_end = math.sqrt(self.t1) * xi.reshape(self.batch, self.dims)

    def query(self, s: float, t: float) -> np.ndarray:
        """Return W_t − W_s with endpoints rounded to the dyadic grid."""
        if not (0.0 <= s < t <= self.t1):
            raise ValueError(
                f"query must satisfy 0 <= s < t <= {self.t1}, got [{s}, {t}]")
        return self._value(t) - self._value(s)

    def _value(self, x: float) -> np.ndarray:
        """W at the grid point nearest x, by bridge descent from the root."""
        n = 1 << self._levels
        k = round(x / self.t1 * n)
        if k <= 0:
            return np.zeros((self.batch, self.dims))
        if k >= n:
            return self._w_end
        ia, ib = 0, n
        w_a = np.zeros((self.batch, self.dims))
        w_ab = self._w_end
        seed = self._seed
        scale = self.t1 / n
        while True:
            if k == ia:
                return w_a
            if k == ib:
                return w_a + w_ab
            im = (ia + ib) >> 1
            a, b, m = ia * scale, ib * scale, im * scale
            seed_left, seed_right = split(seed)
            w_am = bridge_sample(a, b, m, w_ab, seed_left)
            if k <= im:
                ib, w_ab, seed = im, w_am, seed_left
            else:
                ia, w_a, w_ab, seed = im, w_a + w_am, w_ab - w_am, seed_right

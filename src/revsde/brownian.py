"""Exact Brownian motion over arbitrary time intervals.

Two interchangeable noise sources are provided:

* `BrownianInterval` -- a binary tree of intervals that stores only where
  its nodes split. A node's seed is a pure function of the root seed and
  the node's ancestry, so increments can be evicted from the bounded LRU
  cache and recomputed bitwise later. One walk serves both split rules: a
  lazy tree splits a leaf at the query endpoint that cuts it and keeps the
  map of those split points; a tree keyed on a solve's grid (`key_on_grid`)
  has grid index ranges for nodes, halved at their midpoints, and stores
  none. Either tree keeps the last query's root-to-leaf path with its
  seeds as a hint, which makes the sequential access pattern of an SDE
  solver O(1) amortized. A keyed node of at most `BLOCK_STEPS` grid steps
  is a leaf block: its step increments are drawn at once, conditioned
  exactly on the node's value, and a step query returns one row.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .prng import SeedState, new_seed, split, standard_normals


# Grid steps in a keyed tree's leaf block: one normal draw serves them all.
# Larger blocks make sweeps cheaper and random access dearer (a row costs B).
BLOCK_STEPS = 32


def _count(value, rule: str) -> int:
    """`value` as an int >= 1; a bool or a non-integral value raises."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{rule}, got {value!r}")
    return int(value)


def _as_seed(seed) -> SeedState:
    return seed if isinstance(seed, SeedState) else new_seed(int(seed))


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


class _LRUCache:
    """LRU map from a node's key -- its interval (a, b), or in a keyed tree
    its index range (lo, hi) -- to its increment, and from a leaf block's
    first step index to its (m, batch, dims) step increments. `capacity`
    and `size` count step increments of `unit` values each, so a block
    costs m; one larger than the capacity is cached alone."""

    __slots__ = ("capacity", "unit", "size", "hits", "misses", "_data")

    def __init__(self, capacity: int, unit: int):
        self.capacity = _count(capacity, "cache_capacity must be an int >= 1")
        self.unit = unit
        self.size = self.hits = self.misses = 0
        self._data = {}  # insertion order doubles as recency order

    def get(self, node):
        value = self._data.pop(node, None)
        if value is None:
            self.misses += 1
            return None
        self._data[node] = value
        self.hits += 1
        return value

    def peek(self, node):
        """The cached value or None; recency and counters untouched."""
        return self._data.get(node)

    def put(self, node, value):
        """Evict the least recent entries until `value` fits, then insert it
        (a cached node is overwritten in place)."""
        data, unit = self._data, self.unit
        while data and self.size + value.size // unit > self.capacity:
            self.size -= data.pop(next(iter(data))).size // unit
        old = data.get(node)
        self.size += (value.size - (0 if old is None else old.size)) // unit
        data[node] = value


@dataclass
class TreeStats:
    """Counters exposed for the benchmark harness."""

    node_count: int
    cache_hits: int
    cache_misses: int
    queries: int
    traverse_edges: int
    sample_recomputes: int
    max_sample_depth: int

    @property
    def mean_traverse_edges(self) -> float:
        return self.traverse_edges / self.queries if self.queries else 0.0


class BrownianInterval:
    """Exact Brownian increment store over [0, t1].

    A node is a key (lo, hi) spanning [time(lo), time(hi)]; its children
    split it at one interior key, and their seeds are split(seed) in (left,
    right) order. The tree stores no node: it holds its split points, the
    LRU cache and the hint path of the last query, ((lo, hi), seed, pair)
    entries from the root down, pair being the split of the parent's seed.
    The two kinds of tree differ in their split rule and their leaves:

    * lazy (as constructed): keys are times and time() is the identity. A
      leaf cut by a query splits at the query's endpoint inside it, and the
      map {(a, b): split point} persists (about n entries after n
      sequential steps). Without parent links it holds no reference
      cycles.
    * keyed (`key_on_grid`): keys are grid indices, node (lo, hi) splits at
      (lo + hi) // 2, and nothing is stored. A node of at most BLOCK_STEPS
      steps is a leaf block: its steps are drawn at once (`_step`), and a
      one-step query returns one row of them.

    The increment of a node is recovered from its parent: left children by
    bridge conditioning (normals drawn from the left child's seed), right
    children by subtracting the left sibling's value. An evicted value
    regrows from its nearest cached ancestor on the hint path. Repeated
    queries of the same interval return bitwise-identical values regardless
    of cache evictions or intervening queries.

    A query is answered by the nodes that partition it, and by the rows of
    a keyed block it cuts. When no existing node is exactly [s, t], the
    answer is exactly the left-to-right floating-point sum of those parts,
    so summing the consecutive sub-queries that materialized them
    reproduces the spanning query bitwise. When [s, t] coincides with an
    existing node -- e.g. [0, t1] itself, a right-spine node [s, t1] or a
    whole block -- the answer is that node's own value, which equals the
    sum of its descendants' values (or its block's rows) only to rounding.

    Queries mutate the split map, cache and hint: an instance needs
    exclusive access during `query`; distinct instances are independent.
    Returned arrays are owned by the cache -- do not mutate. The path
    realized for a seed depends on the query order (the topology) of a
    lazy tree and on the grid alone for a keyed one; only the distribution
    and per-instance determinism are guaranteed.
    """

    def __init__(self, t1: float, seed, dims: int = 1, batch: int = 1,
                 cache_capacity: int = 128):
        if not 0.0 < t1 < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {t1}")
        self.t1 = float(t1)
        self.dims = _count(dims, "dims must be an int >= 1")
        self.batch = _count(batch, "batch must be an int >= 1")
        self._splits = {}  # a lazy tree's split point of each inner node
        self._n = None  # set by key_on_grid
        self._time = lambda x: x
        self._path = [((0.0, self.t1), _as_seed(seed), None)]
        self._block = (0, 0)  # steps [lo, hi) of the last leaf block used
        self._cache = _LRUCache(cache_capacity, self.batch * self.dims)
        self.reset_stats()

    @property
    def cache_capacity(self) -> int:
        return self._cache.capacity

    def query(self, s: float, t: float) -> np.ndarray:
        """Return W_t - W_s with shape (batch, dims)."""
        if not (0.0 <= s < t <= self.t1):
            raise ValueError(
                f"query must satisfy 0 <= s < t <= {self.t1}, got [{s}, {t}]")
        a, b, keyed = s, t, self._n is not None
        if keyed:
            a, b = round(s / self.t1 * self._n), round(t / self.t1 * self._n)
            if self._time(a) != s or self._time(b) != t:
                raise ValueError(f"query [{s}, {t}] is off the grid of n = "
                                 f"{self._n} steps this tree is keyed on")
        self._queries += 1
        if keyed and b - a == 1:  # a solver's query: one row of a block
            return self._step(a)
        parts = [self._step(lo) if keyed and hi - lo == 1  # a block row
                 else self._sample((lo, hi)) for lo, hi in self._cover(a, b)]
        return sum(parts[1:], parts[0])  # left to right

    def key_on_grid(self, n: int, time):
        """Key a fresh tree on the grid time(0) = 0 < ... < time(n) = t1.

        Node (lo, hi) of the balanced index tree this makes spans
        [time(lo), time(hi)] and splits at (lo + hi) // 2, down to leaf
        blocks of at most BLOCK_STEPS steps. No node is stored: an evicted
        value regrows bitwise from its nearest cached ancestor on the hint
        path, at most ceil(log2(n / BLOCK_STEPS)) bridges down, then its
        block in one draw. The LRU is emptied: a value drawn before keying
        is held under a time key. Queries off the grid then raise ValueError.

        n must be an int >= 1. A no-op on a tree that queries have split or
        that is keyed; otherwise time(n) must be t1 (else ValueError), and
        it changes the tree topology, and so the realized path, for a seed.
        """
        n = _count(n, "a grid needs n >= 1 steps")
        if self._splits or self._n is not None:
            return
        if time(n) != self.t1:
            raise ValueError(f"the grid ends at time({n}) = {time(n)!r}, "
                             f"not at t1 = {self.t1!r}")
        self._n, self._time = n, time
        self._path = [((0, n), self._path[0][1], None)]
        self._cache._data.clear()
        self._cache.size = 0

    def stats(self) -> TreeStats:
        return TreeStats(1 + 2 * len(self._splits), self._cache.hits,
                         self._cache.misses, self._queries,
                         self._traverse_edges, self._sample_recomputes,
                         self._max_sample_depth)

    def reset_stats(self):
        """Zero the access counters (node count is structural, kept)."""
        self._cache.hits = self._cache.misses = self._queries = 0
        self._traverse_edges = self._sample_recomputes = 0
        self._max_sample_depth = 0

    # -- tree walking -------------------------------------------------

    def _split_point(self, node: tuple, a, b):
        """Where `node` splits: a keyed node at its index midpoint, a lazy
        one where it split before or, a leaf cut by [a, b], at the query
        endpoint inside it (b if the query starts at the leaf's start)."""
        if self._n is not None:
            return (node[0] + node[1]) >> 1
        mid = self._splits.get(node)
        if mid is None:
            mid = self._splits[node] = b if a == node[0] else a
        return mid

    def _holder(self, a, b) -> int:
        """Index of the deepest hint path entry whose node holds [a, b]."""
        path = self._path
        k = len(path) - 1
        while a < path[k][0][0] or b > path[k][0][1]:
            k -= 1
        return k

    def _cover(self, a, b) -> list:
        """The nodes partitioning [a, b], left to right, found from the
        deepest hint path entry holding it with an explicit work stack (a
        lazy tree can outgrow the recursion limit)."""
        out = []
        stack = [(self._path[self._holder(a, b)][0], a, b)]
        while stack:
            node, qa, qb = stack.pop()
            lo, hi = node
            if qa == lo and qb == hi:
                out.append(node)
            elif self._n is not None and hi - lo <= BLOCK_STEPS:  # its rows
                out.extend((k, k + 1) for k in range(qa, qb))
            else:
                mid = self._split_point(node, qa, qb)
                if qb > mid:
                    stack.append(((mid, hi), max(qa, mid), qb))
                if qa < mid:
                    stack.append(((lo, mid), qa, min(qb, mid)))
        return out

    def _sample(self, node: tuple) -> np.ndarray:
        """Increment of `node`: cut the hint path below its deepest entry
        holding the node and extend it down (the first step reuses the cut
        entry's pair), then walk up the path to the nearest cached entry
        (or the root, whose value is N(0, t1 I) drawn from its own seed)
        and back down: left children by bridge, right children by
        subtracting the left sibling's value. A cached left sibling is
        bitwise its bridge value, so it is read with `peek` (no recency or
        counter change); one drawn for a right child is cached, as a
        reverse sweep asks for it next.
        """
        path = self._path
        a, b = node
        k = self._holder(a, b)
        (lo, hi), seed, _ = path[k]
        ascent = len(path) - 1 - k
        pair = path[k + 1][2] if ascent else None
        del path[k + 1:]
        while lo != a or hi != b:
            pair = pair or split(seed)
            mid = self._split_point((lo, hi), a, b)
            lo, hi, seed = (lo, mid, pair[0]) if b <= mid else (mid, hi,
                                                                pair[1])
            path.append(((lo, hi), seed, pair))
            pair = None
        self._traverse_edges += ascent + len(path) - 1 - k

        cache = self._cache
        for top in range(len(path) - 1, -1, -1):
            value = cache.get(path[top][0])
            if value is not None:
                break
        else:  # top == 0: the root, drawn from its own seed
            xi = standard_normals(path[0][1], self.batch * self.dims)
            value = math.sqrt(self.t1) * xi.reshape(self.batch, self.dims)
            cache.put(path[0][0], value)
        depth = len(path) - 1 - top
        self._sample_recomputes += depth
        if depth > self._max_sample_depth:
            self._max_sample_depth = depth
        time = self._time
        p_lo, p_hi = path[top][0]
        for key, _, pair in path[top + 1:]:
            lo, hi = key
            if lo == p_lo:
                value = bridge_sample(time(lo), time(p_hi), time(hi), value,
                                      pair[0])
            else:
                sibling = (p_lo, lo)
                w_left = cache.peek(sibling)
                if w_left is None:
                    w_left = bridge_sample(time(p_lo), time(p_hi), time(lo),
                                           value, pair[0])
                    cache.put(sibling, w_left)
                value = value - w_left
            cache.put(key, value)
            p_lo, p_hi = key
        return value

    def _step(self, k: int) -> np.ndarray:
        """Increment of grid step k: a row of its leaf block, the last one
        used or found below the hint path. A block is drawn from its node's
        increment W over [a, b], T = b - a, as X_i = sqrt(dt_i) xi_i -
        (dt_i / T)(sum_j sqrt(dt_j) xi_j - W), whose covariance diag(dt) -
        dt dt^T / T is the Brownian bridge's. xi comes from the node seed's
        left child: a left node's own seed drew its bridge normals."""
        lo, hi = self._block
        if not lo <= k < hi:
            lo, hi = self._path[self._holder(k, k + 1)][0]
            while hi - lo > BLOCK_STEPS:
                mid = (lo + hi) >> 1
                lo, hi = (lo, mid) if k < mid else (mid, hi)
            self._block = lo, hi
        rows = self._cache.get(lo)
        if rows is None:
            w = self._sample((lo, hi))
            t = np.array([self._time(i) for i in range(lo, hi + 1)])
            dt = np.diff(t)[:, None, None]
            rows = standard_normals(split(self._path[-1][1])[0],
                                    (hi - lo) * w.size).reshape(-1, *w.shape)
            rows *= np.sqrt(dt)
            rows -= dt / (t[-1] - t[0]) * (rows.sum(axis=0) - w)
            self._cache.put(lo, rows)
        return rows[k - lo]


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
        if not 0.0 < t1 < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {t1}")
        self.t1 = float(t1)
        self.dims = _count(dims, "dims must be an int >= 1")
        self.batch = _count(batch, "batch must be an int >= 1")
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

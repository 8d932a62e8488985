"""Deterministic, splittable Gaussian noise streams.

Every consumer of randomness in this package draws from a `SeedState`: an
opaque 128-bit value that can be split into two child states or expanded
into an i.i.d. standard-normal stream. All operations are pure functions
of their arguments, so a value sampled anywhere in a tree of splits can be
recomputed bitwise at any time.

Construction: normal streams come from numpy's Philox counter-based
generator keyed by the 128-bit state (block j of the output is a fixed
mixing of (key, j), which gives prefix stability: the first n draws of a
longer request equal an n-draw request). Each thread keeps one Philox and
re-keys it per draw, setting its state to exactly the one a freshly
constructed `Philox(key=[hi, lo])` starts from (zero counter, empty
buffer): the stream is bitwise the constructor's, but a draw builds no
generator and reads no OS entropy, and since no two threads share a
generator, distinct noise stores stay safe to use in parallel. Child
states are derived with the splitmix64 finalizer under two fixed tags,
documented below so that the mapping is stable across versions of this
package. No attempt is made at cryptographic strength, nor at bitstream
compatibility with any other library.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# splitmix64 increment and the two child-derivation tags. Changing any of
# these changes every sample path produced by the package.
_GOLDEN = 0x9E3779B97F4A7C15
_TAG_LEFT = 0xD1B54A32D192ED03
_TAG_RIGHT = 0x8BB84B93962EACC9


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with good avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedState:
    """128-bit opaque random state, stored as two 64-bit words."""

    hi: int
    lo: int

    def __post_init__(self):
        if not (0 <= self.hi <= _MASK64 and 0 <= self.lo <= _MASK64):
            raise ValueError("seed words must be 64-bit unsigned integers")


def new_seed(entropy: int) -> SeedState:
    """Expand a 64-bit entropy value into a well-mixed SeedState.

    Same entropy always gives the same state.
    """
    s = entropy & _MASK64
    hi = _mix64((s + _GOLDEN) & _MASK64)
    lo = _mix64((s + 2 * _GOLDEN) & _MASK64)
    return SeedState(hi, lo)


def split(seed: SeedState) -> tuple[SeedState, SeedState]:
    """Derive the (left, right) child states of `seed`.

    Pure function of the input: repeated calls return identical pairs. The
    children are distinct from each other and (for all practical purposes)
    from the parent; each is itself splittable.
    """
    lh = _mix64(seed.hi ^ _TAG_LEFT)
    ll = _mix64((seed.lo + lh) & _MASK64)
    rh = _mix64(seed.hi ^ _TAG_RIGHT)
    rl = _mix64((seed.lo + rh) & _MASK64)
    return SeedState(lh, ll), SeedState(rh, rl)


class _ThreadPhilox(threading.local):
    """One re-keyable Philox generator per thread.

    `state` is the state dict of a fresh `Philox(key=key)`; the setter
    copies it into the generator, so `key` is rewritten in place per draw.
    """

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(key=0))
        # An explicit uint64 key: a word >= 2**63 must not pass through
        # float64, which would round the key to 53 bits.
        self.key = np.zeros(2, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": self.key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_philox = _ThreadPhilox()


def standard_normals(seed: SeedState, count: int) -> np.ndarray:
    """Draw `count` i.i.d. standard normals determined by (seed, count).

    Prefix stable: standard_normals(s, n) equals the first n entries of
    standard_normals(s, m) for any m > n.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # Bitwise Generator(Philox(key=[hi, lo] as uint64)).standard_normal,
    # without constructing a generator: re-key this thread's one.
    local = _philox
    local.key[0] = seed.hi
    local.key[1] = seed.lo
    gen = local.gen
    gen.bit_generator.state = local.state
    return gen.standard_normal(count)

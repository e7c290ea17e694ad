"""Deterministic pseudo-random numbers for every stochastic component.

One algorithm is used everywhere so that reruns (and ports to other
languages) can reproduce streams bit-exactly: a splitmix64 counter
stream.  Output ``i`` of a stream with seed ``s`` is::

    mix64((s + (i + 1) * GAMMA) mod 2**64)

where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the splitmix64
finalizer (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27,
multiply 0x94D049BB133111EB, xor-shift 31).  Because each output depends
only on (seed, i), blocks can be generated with vectorized uint64
arithmetic and still match the scalar stream exactly.

Derived draws, in terms of raw outputs u_0, u_1, ...:

- ``uniform``: ``(u >> 11) * 2**-53``, one raw output each, in [0, 1).
- ``normal``: Box-Muller on consecutive uniform pairs (a, b):
  ``z0 = sqrt(-2 ln(1 - a)) cos(2 pi b)``, ``z1 = same sqrt * sin``.
  For n draws, ceil(n/2) pairs are consumed; a trailing spare z1 is
  discarded.
- ``randint(n)``: ``u mod n``, one raw output (modulo bias is
  negligible for the bounds used here and keeps ports trivial).
- ``shuffle``: Fisher-Yates from the top index down, one ``randint``
  per step.
"""

import math

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Fold integer keys into a seed to get an independent sub-stream.

    Defined as repeated ``s = mix64((s ^ mix64(k)) + GAMMA)`` so that
    (seed, epoch, index)-style derivations are order-sensitive and
    reproducible across ports.
    """
    s = seed & _MASK
    for k in keys:
        s = mix64(((s ^ mix64(k)) + GAMMA) & _MASK)
    return s


class Rng:
    """Counter-based splitmix64 stream (see module docstring).

    `start` skips that many raw outputs: Rng(s, start=k) continues exactly
    where Rng(s) is after k outputs, so a slice of a block can be drawn
    without drawing what precedes it.
    """

    def __init__(self, seed: int, start: int = 0):
        if start < 0:
            raise ValueError(f"stream start must be >= 0, got {start}")
        self._seed = seed & _MASK
        self._i = start  # raw outputs consumed so far

    def next_u64(self) -> int:
        self._i += 1
        return mix64((self._seed + self._i * GAMMA) & _MASK)

    def u64_block(self, n: int) -> np.ndarray:
        """n raw outputs as a uint64 array, advancing the counter by n.
        Computed in place in that array, with one temporary for the shifts."""
        z = np.arange(self._i + 1, self._i + n + 1, dtype=np.uint64)
        self._i += n
        z *= np.uint64(GAMMA)
        z += np.uint64(self._seed)
        t = np.empty_like(z)
        for shift, mult in ((30, _M1), (27, _M2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mult)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        return z

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_block(self, n: int) -> np.ndarray:
        z = self.u64_block(n)
        z >>= np.uint64(11)
        u = z.view(np.float64)  # converted into the same bytes
        np.copyto(u, z, casting="unsafe")
        u *= 2.0**-53
        return u

    def normal(self) -> float:
        a, b = self.uniform(), self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b)

    def normal_block(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniform_block(2 * pairs).reshape(pairs, 2)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def randint(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError(f"randint bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

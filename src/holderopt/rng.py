"""Deterministic random streams on top of the Philox 4x64-10 counter-based generator.

Every random quantity in this package (mixture data, latent samples, network
init) is derived from raw 64-bit Philox words so that a given seed pins the
exact byte content of experiment outputs. The recipe, for reproducing streams
outside numpy:

* generator: Philox 4x64 with 10 rounds, keyed by the 128-bit integer
  ``(stream_id << 64) | seed``; words are the raw counter outputs in order.
* uniforms on (0, 1]: ``((word >> 11) + 1) * 2.0**-53``.
* standard normals: Box-Muller on consecutive uniform pairs (u1, u2):
  ``r = sqrt(-2 log u1)``, then ``r cos(2 pi u2)`` followed by
  ``r sin(2 pi u2)``.

Stream ids are fixed constants, one purpose each, so adding draws to one
consumer never perturbs another.
"""

from __future__ import annotations

import numbers

import numpy as np

STREAM_DATA = 0
STREAM_LATENT = 1
STREAM_INIT = 2

_U64 = 2**64


def _require_u64(field: str, value) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is an unsigned 64-bit integer; a bool is not one."""
    # a bool or a float would key the stream of its int() under another name
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= int(value) < _U64:
        raise ValueError(f"{field} must be an unsigned 64-bit integer, got {value!r}")


class RandomStream:
    """Sequential uniform/normal draws from one keyed Philox stream."""

    def __init__(self, seed: int, stream: int):
        _require_u64("seed", seed)
        _require_u64("stream id", stream)
        self._bitgen = np.random.Philox(key=(int(stream) << 64) | int(seed))

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        raw = self._bitgen.random_raw(n)
        return np.asarray(raw, dtype=np.uint64)

    def uniform(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms on (0, 1]."""
        w = self.words(n)
        return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals (Box-Muller; consumes 2*ceil(n/2) uniforms)."""
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

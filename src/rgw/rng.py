"""Counter-based random streams for reproducible parallel Monte Carlo.

Every variate is a pure function of (seed, stream salt, replica, counter),
computed with the splitmix64 finalizer (`_mix64`) on 64-bit integers.
Results are therefore identical regardless of batching, thread
scheduling, or the order in which replicas are evaluated.  Statistical
quality is that of splitmix64, which is adequate for the 4-sigma
comparisons made here; this is not a cryptographic generator.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0**-53


def _mix64(x: np.ndarray | np.uint64):
    """splitmix64 finalizer, in place on an array (a numpy scalar is rebound);
    callers run it under np.errstate(over="ignore")."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def derive_keys(seed: int, salt: int, replicas: np.ndarray | int) -> np.ndarray | np.uint64:
    """Independent stream key per (seed, salt, replica)."""
    rep = np.asarray(replicas).astype(np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & _U64_MASK) ^ (np.uint64(salt & _U64_MASK) * _GOLDEN))
        return _mix64(base + _mix64(rep * _GOLDEN + np.uint64(1)))


def advance(keys, offsets):
    """Keys whose counter c reads what `keys` read at counter offsets + c:
    `uniforms` hashes keys + counters * _GOLDEN, mod 2**64."""
    with np.errstate(over="ignore"):
        return np.asarray(keys, dtype=np.uint64) + np.asarray(offsets, dtype=np.uint64) * _GOLDEN


def uniforms(keys, counters):
    """U[0,1) variates addressed by (key, counter); vectorized, stateless."""
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters).astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        x = _mix64(keys + counters * _GOLDEN)
    x >>= np.uint64(11)
    return x * _INV_2_53

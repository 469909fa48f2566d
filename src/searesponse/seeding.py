"""Deterministic 64-bit seed derivation.

Every stochastic stage takes one explicit base seed; per-task seeds are
derived with the splitmix64 finalizer, so each task owns an independent
stream whatever the order the tasks run in: one per (realization, hour)
for the simulator, one per realization for a surrogate.
"""

import operator

_MASK = (1 << 64) - 1

# Context tags keep seed streams of different pipeline stages disjoint even
# when the same (base, index) pair occurs in more than one of them.
TAG_WEATHER = 0x11
TAG_SIM = 0x33
TAG_SPLIT = 0x44
TAG_GP_INIT = 0x55
TAG_QOI = 0x99
TAG_SUBSAMPLE = 0xAA


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixer with full avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer coordinates into the base seed, one mix step per part.
    Numpy integers give the seed of the Python int of the same value."""
    s = mix64(operator.index(base) & _MASK)
    for p in parts:
        s = mix64(s ^ (operator.index(p) & _MASK))
    return s

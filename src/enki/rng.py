"""Deterministic random-stream derivation.

One root seed governs a run. Every consumer (prior draw, simulation round,
perturbation round, ...) works on an independent substream derived from the
root through a structured integer key. A simulation round draws all of its
particles from one stream, so a run is reproducible from its seed, not
across changes to how a model lays out its draws.
"""
from __future__ import annotations

import numpy as np

# Stream tags. Fixed integers: changing them changes every stream.
PRIOR = 0
SIMULATE = 1
PERTURB = 2
DATA = 3
PROPOSAL = 4
RESAMPLE = 5
ACCEPT = 6
CHAIN = 7
ALGO = 8


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be int or SeedSequence, got {type(seed).__name__}")


def derive(root: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child SeedSequence at `key` below `root`.

    Keys extend the spawn_key, so derive(root, a, b) and derive(derive(root, a), b)
    agree, and distinct keys give statistically independent streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + tuple(int(k) for k in key)
    )


def substream(root: np.random.SeedSequence, *key: int) -> np.random.Generator:
    """Generator on the substream at `key` below `root`."""
    return np.random.default_rng(derive(root, *key))


# kept for perfbench/tracing.py, which wraps ParticleStreams.shared by name
class ParticleStreams:
    """The random stream of one simulation round.

    `shared()` is the one generator a model's `simulate_batch` draws the
    whole round from.
    """

    def __init__(self, root: np.random.SeedSequence, *prefix: int):
        self._root = root
        self._prefix = tuple(int(k) for k in prefix)

    def shared(self) -> np.random.Generator:
        return substream(self._root, *self._prefix)

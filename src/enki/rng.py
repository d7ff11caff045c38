"""Deterministic random-stream derivation.

One root seed governs a run. Every consumer (prior draw, per-particle
simulation, perturbation round, ...) works on an independent substream
derived from the root through a structured integer key, so results are
identical whether particles are simulated one at a time or in vectorised
batches.
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


class ParticleStreams:
    """Per-particle substreams for one simulation round.

    `particle(i)` creates the i-th stream, and `generators(n)` the first n,
    which is what a model's `simulate_batch` consumes: row i draws only from
    generator i, so a batch matches the serial loop draw for draw in any
    chunking. `shared()` is a single round-level stream for simulators whose
    batched draws need no per-particle separation.
    """

    def __init__(self, root: np.random.SeedSequence, *prefix: int):
        self._root = root
        self._prefix = tuple(int(k) for k in prefix)

    def particle(self, i: int) -> np.random.Generator:
        return substream(self._root, *self._prefix, i)

    def generators(self, n: int) -> list:
        """The streams of particles 0..n-1, in order."""
        return [self.particle(i) for i in range(n)]

    def shared(self) -> np.random.Generator:
        return substream(self._root, *self._prefix)

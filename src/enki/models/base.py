"""The simulator-model interface every inference algorithm consumes.

A model is a prior sampler plus a likelihood simulator. Algorithms never
evaluate a likelihood density; they only draw from the prior and push
parameters through `simulate_batch`, one generator per round. Models work
in an unconstrained parameter space; `constrain` maps particles back to the
natural space for reporting.
"""
from __future__ import annotations

from collections.abc import Iterable
from numbers import Integral, Real

import numpy as np


def _require_int(name: str, value, minimum: int) -> None:
    """Raise unless value is an integer of at least minimum.

    Python and numpy integers pass; bools and floats, even integral ones,
    raise TypeError. A value below minimum raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _require_real(name: str, value) -> float:
    """Return value as a float; TypeError unless it is a real number.

    Python and numpy reals pass; bools, strings and None raise.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _require_sequence(name: str, value) -> tuple:
    """Return value as a tuple; TypeError for a string or a scalar."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise TypeError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def _require_reals(name: str, value) -> np.ndarray:
    """Return value as a finite float array; TypeError unless a (nested) sequence of reals.

    A numpy array counts as its nested list. A value that is not a sequence,
    or a bool, string or None entry, raises TypeError naming name; ragged
    nesting or a non-finite entry raises ValueError naming it.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    value = _require_sequence(name, value)
    pending = [value]
    while pending:
        for item in pending.pop():
            if isinstance(item, (list, tuple)):
                pending.append(item)
            else:
                _require_real(f"{name} entry", item)
    try:
        array = np.asarray(value, dtype=float)
    except ValueError as err:
        raise ValueError(f"{name} must not be ragged") from err
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


class SimulatorModel:
    """Prior sampler + likelihood simulator pair.

    Subclasses set `d_x`, `d_y` and implement `prior_sample`,
    `simulate_batch` and `prior_logpdf`. `simulate` is a batch of one.
    """

    d_x: int
    d_y: int

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` prior particles, shape (count, d_x)."""
        raise NotImplementedError

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Simulate one dataset per row of `params`, shape (n, d_y).

        Every row draws from the one generator `rng`; each model's docstring
        states the layout of its draws.
        """
        raise NotImplementedError

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        """Log prior density at each row of `params`, shape (n,)."""
        raise NotImplementedError

    def _batch(self, params) -> np.ndarray:
        """params as a float (n, d_x) batch, one row a batch of one; else ValueError."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.ndim != 2 or params.shape[1] != self.d_x:
            raise ValueError(f"params must have {self.d_x} columns")
        return params

    def simulate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One dataset, shape (d_y,), for one particle of shape (d_x,): a batch of one."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.d_x,):
            raise ValueError(f"params must have shape ({self.d_x},), got {params.shape}")
        return self.simulate_batch(params[None], rng)[0]

    def constrain(self, params: np.ndarray) -> np.ndarray:
        """Map working-space particles to the natural parameter space."""
        return np.asarray(params, dtype=float)

    def sample_truth(self, rng: np.random.Generator) -> np.ndarray:
        """Working-space parameter used as ground truth in experiments.

        Defaults to a prior draw; benchmark models with a conventional
        fixed truth override this.
        """
        return self.prior_sample(1, rng)[0]

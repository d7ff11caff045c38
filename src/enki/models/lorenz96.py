"""Stochastic Lorenz 96 twin experiment.

A cyclic d_x-dimensional SDE with quadratic advection, linear damping, and
constant forcing, integrated by Euler-Maruyama. The inference target is the
initial state; data are noisy readings of every other dimension at a handful
of times. Simulation cost (thousands of small steps per particle) makes this
the package's vectorisation hotspot: one kernel integrates a batch of
particles in lockstep, and a single path is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import SimulatorModel, _require_int

__all__ = ["L96Config", "l96_drift", "L96Model"]


@dataclass(frozen=True)
class L96Config:
    """Integration grid and observation design.

    observed_dims default to every other dimension starting from the first
    (0-based even indices = 1-based odd dimensions) and must not be empty.
    diffusion (nonnegative) scales the sqrt(dt) path noise and exists mainly
    as a test hook (0 disables it). forcing, obs_noise_var and diffusion
    must be finite.
    """

    d_x: int = 40
    forcing: float = 8.0
    dt: float = 0.001
    obs_times: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    obs_noise_var: float = 0.1
    observed_dims: tuple = None
    diffusion: float = 1.0

    def __post_init__(self):
        _require_int("d_x", self.d_x, 4)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.forcing):
            raise ValueError(f"forcing must be finite, got {self.forcing}")
        for name in ("obs_noise_var", "diffusion"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        times = tuple(float(t) for t in self.obs_times)
        if not times or any(t <= 0 for t in times):
            raise ValueError("obs_times must be positive")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("obs_times must be strictly increasing")
        # observation times must land exactly on the integration grid
        for t in times:
            step = round(t / self.dt)
            if step < 1 or abs(step * self.dt - t) > 1e-9 * max(1.0, t):
                raise ValueError(f"obs_time {t} does not lie on the dt={self.dt} grid")
        object.__setattr__(self, "obs_times", times)
        dims = self.observed_dims
        if dims is None:
            dims = tuple(range(0, self.d_x, 2))
        dims = tuple(int(m) for m in dims)
        if not dims:
            raise ValueError("observed_dims must name at least one dimension")
        if len(set(dims)) != len(dims) or any(m < 0 or m >= self.d_x for m in dims):
            raise ValueError("observed_dims must be distinct indices in [0, d_x)")
        object.__setattr__(self, "observed_dims", dims)

    @property
    def d_y(self) -> int:
        return len(self.obs_times) * len(self.observed_dims)

    @property
    def obs_steps(self) -> tuple:
        return tuple(round(t / self.dt) for t in self.obs_times)

    @property
    def n_steps(self) -> int:
        return self.obs_steps[-1]


def l96_drift(x: np.ndarray, forcing: float, out: np.ndarray = None) -> np.ndarray:
    """Cyclic drift x[m-1](x[m+1] - x[m-2]) - x[m] + F along the last axis.

    Written into out (same shape as x, not overlapping it) when given.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    # m = 2..d-2 from plain slices; m = 0, 1 and d-1 wrap around
    np.subtract(x[..., 3:], x[..., :-3], out=out[..., 2:-1])
    np.subtract(x[..., 1:3], x[..., -2:], out=out[..., :2])
    np.subtract(x[..., 0], x[..., -3], out=out[..., -1])
    out[..., 1:-1] *= x[..., :-2]
    out[..., 0] *= x[..., -1]
    out[..., -1] *= x[..., -2]
    out -= x
    out += forcing
    return out


_CHUNK = 64  # Euler steps of path noise drawn per refill of the noise buffer


class L96Model(SimulatorModel):
    """Initial-state inference for the stochastic Lorenz 96 system.

    Prior is N(forcing * 1, prior_var * I) on the initial state; the
    parameter space is unconstrained so `constrain` is the identity.
    """

    def __init__(self, config: L96Config = None, prior_var: float = 5.0):
        self.config = config if config is not None else L96Config()
        if not (math.isfinite(prior_var) and prior_var > 0):
            raise ValueError(f"prior_var must be finite and positive, got {prior_var}")
        self.prior_var = float(prior_var)
        self.d_x = self.config.d_x
        self.d_y = self.config.d_y

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.config.forcing + np.sqrt(self.prior_var) * rng.standard_normal(
            (count, self.d_x)
        )

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        resid = params - self.config.forcing
        return -0.5 * np.sum(resid**2, axis=1) / self.prior_var - 0.5 * self.d_x * np.log(
            2 * np.pi * self.prior_var
        )

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Flattened noisy observations of the path started from each row.

        Euler-Maruyama with stepsize dt; at each observation time the observed
        dimensions are read and perturbed with independent N(0, obs_noise_var)
        noise; blocks are concatenated time-major. All rows step in lockstep,
        in place. The path noise is one rng.standard_normal((width, n, d_x))
        draw per chunk of up to 64 steps, which equals one (n, d_x) draw per
        step; the observation noise is then one (n, n_obs, n_observed) draw.
        Raises ValueError on a non-finite start, and FloatingPointError naming
        the time reached if any state blows up.
        """
        x = np.atleast_2d(np.asarray(params, dtype=float))
        config = self.config
        if x.shape[1] != config.d_x:
            raise ValueError(f"params must have {config.d_x} columns")
        if not np.all(np.isfinite(x)):
            raise ValueError("initial state must be finite")
        n, d = x.shape
        dims = list(config.observed_dims)
        obs_steps = config.obs_steps
        scale = np.sqrt(config.dt) * config.diffusion
        blocks = np.empty((n, len(obs_steps), len(dims)))
        # state and drift are (n, d) views of (d, n) buffers, so every slice
        # l96_drift takes along d is one contiguous block
        state = np.array(x.T, order="C").T
        drift = np.empty((d, n)).T
        noise = np.empty((_CHUNK, n, d))
        next_obs = 0
        # overflow is detected explicitly at observation reads and reported with
        # the time reached, so the intermediate warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, config.n_steps, _CHUNK):
                width = min(_CHUNK, config.n_steps - start)
                rng.standard_normal(out=noise[:width])
                noise[:width] *= scale
                for t in range(width):
                    step = start + t + 1
                    # x + (drift * dt + scale * noise), one operation at a time
                    l96_drift(state, config.forcing, out=drift)
                    drift *= config.dt
                    drift += noise[t]
                    state += drift
                    if step == obs_steps[next_obs]:
                        if not np.all(np.isfinite(state)):
                            raise FloatingPointError(
                                f"state became non-finite by t={step * config.dt:g}"
                            )
                        blocks[:, next_obs, :] = state[:, dims]
                        next_obs += 1
        eps = rng.standard_normal(blocks.shape)
        return (blocks + np.sqrt(config.obs_noise_var) * eps).reshape(n, config.d_y)

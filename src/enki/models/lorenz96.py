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

import numpy as np

from .base import SimulatorModel, _require_int, _require_real, _require_sequence

__all__ = ["l96_drift", "L96Model"]


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


class L96Model(SimulatorModel):
    """Initial-state inference for the stochastic Lorenz 96 system.

    Prior is N(forcing * 1, prior_var * I) on the initial state; the
    parameter space is unconstrained so `constrain` is the identity. The
    other settings are the integration grid and the observation design.
    observed_dims default to every other dimension starting from the first
    (0-based even indices = 1-based odd dimensions); they must be integers
    and not empty. diffusion (nonnegative) scales the sqrt(dt) path noise and
    exists mainly as a test hook (0 disables it). forcing, obs_noise_var,
    diffusion, dt, prior_var and every obs_times entry must be finite real
    numbers, and obs_times and observed_dims sequences; a wrong type raises
    TypeError naming the setting and a bad value ValueError.
    """

    def __init__(self, d_x: int = 40, forcing: float = 8.0, dt: float = 0.001,
                 obs_times=(1.0, 2.0, 3.0, 4.0, 5.0), obs_noise_var: float = 0.1,
                 observed_dims=None, diffusion: float = 1.0, prior_var: float = 5.0):
        _require_int("d_x", d_x, 4)
        self.d_x = int(d_x)
        self.forcing = _require_real("forcing", forcing)
        self.dt = _require_real("dt", dt)
        self.obs_noise_var = _require_real("obs_noise_var", obs_noise_var)
        self.diffusion = _require_real("diffusion", diffusion)
        self.prior_var = _require_real("prior_var", prior_var)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not math.isfinite(self.forcing):
            raise ValueError(f"forcing must be finite, got {self.forcing}")
        for name in ("obs_noise_var", "diffusion"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        times = _require_sequence("obs_times", obs_times)
        times = tuple(_require_real("obs_times entry", t) for t in times)
        if not times or not all(math.isfinite(t) and t > 0 for t in times):
            raise ValueError(f"obs_times must be finite and positive, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("obs_times must be strictly increasing")
        # observation times must land exactly on the integration grid
        self.obs_steps = tuple(round(t / self.dt) for t in times)
        for t, step in zip(times, self.obs_steps):
            if step < 1 or abs(step * self.dt - t) > 1e-9 * max(1.0, t):
                raise ValueError(f"obs_time {t} does not lie on the dt={self.dt} grid")
        self.obs_times = times
        if observed_dims is None:
            observed_dims = range(0, self.d_x, 2)
        dims = _require_sequence("observed_dims", observed_dims)
        for m in dims:
            _require_int("observed_dims entry", m, 0)
        dims = tuple(int(m) for m in dims)
        if not dims:
            raise ValueError("observed_dims must name at least one dimension")
        if len(set(dims)) != len(dims) or any(m < 0 or m >= self.d_x for m in dims):
            raise ValueError("observed_dims must be distinct indices in [0, d_x)")
        self.observed_dims = dims
        if not (math.isfinite(self.prior_var) and self.prior_var > 0):
            raise ValueError(f"prior_var must be finite and positive, got {prior_var}")
        self.d_y = len(times) * len(dims)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.forcing + np.sqrt(self.prior_var) * rng.standard_normal(
            (count, self.d_x)
        )

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = self._batch(params)
        resid = params - self.forcing
        return -0.5 * np.sum(resid**2, axis=1) / self.prior_var - 0.5 * self.d_x * np.log(
            2 * np.pi * self.prior_var
        )

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Flattened noisy observations of the path started from each row.

        Euler-Maruyama with stepsize dt; at each observation time the observed
        dimensions are read and perturbed with independent N(0, obs_noise_var)
        noise; blocks are concatenated time-major. All rows step in lockstep,
        in place, one observation segment at a time. Each step draws its path
        noise into one (n, d_x) buffer with rng.standard_normal(out=...); the
        observation noise is then one (n, n_obs, n_observed) draw. Raises
        ValueError on a non-finite start, and FloatingPointError naming the
        time reached if any state blows up.
        """
        x = self._batch(params)
        if not np.all(np.isfinite(x)):
            raise ValueError("initial state must be finite")
        n, d = x.shape
        dims = list(self.observed_dims)
        scale = np.sqrt(self.dt) * self.diffusion
        blocks = np.empty((n, len(self.obs_steps), len(dims)))
        # state and drift are (n, d) views of (d, n) buffers, so every slice
        # l96_drift takes along d is one contiguous block
        state = np.array(x.T, order="C").T
        drift = np.empty((d, n)).T
        noise = np.empty((n, d))
        done = 0
        # overflow is detected explicitly at observation reads and reported with
        # the time reached, so the intermediate warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            for obs, stop in enumerate(self.obs_steps):
                for _ in range(stop - done):
                    rng.standard_normal(out=noise)
                    noise *= scale
                    # x + (drift * dt + scale * noise), one operation at a time
                    l96_drift(state, self.forcing, out=drift)
                    drift *= self.dt
                    drift += noise
                    state += drift
                if not np.all(np.isfinite(state)):
                    raise FloatingPointError(f"state became non-finite by t={stop * self.dt:g}")
                blocks[:, obs, :] = state[:, dims]
                done = stop
        eps = rng.standard_normal(blocks.shape)
        return (blocks + np.sqrt(self.obs_noise_var) * eps).reshape(n, self.d_y)

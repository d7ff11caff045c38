"""Twin experiment on the stochastic Lorenz 96 lattice.

Infer the initial state of a chaotic cyclic SDE from noisy readings of every
other dimension at a handful of times. Each particle costs thousands of
integration steps, so this is where vectorised simulation earns its keep.

The script runs the sampling-mode driver and compares the posterior spread
on observed vs unobserved dimensions. At the full 40-dimensional, five-
observation configuration both contract to about half the prior (the extra
edge on the observed dimensions is a percent-level effect that needs larger
ensembles to resolve); on the --reduced lattice (8 dimensions, observations
only at t=1 and t=2) the dynamics have already mixed away almost all
initial-state information and the spreads barely leave the prior -- a
deliberate illustration of how chaos erases the signal.

Run:  python3 demos/lorenz96_twin.py --reduced          (seconds)
      python3 demos/lorenz96_twin.py [--n 200]          (about a minute)
"""
import argparse

import numpy as np

from enki.inversion import EkiConfig, run_eki
from enki.models import build_model
from enki.rng import ALGO, DATA, as_seed_sequence, derive, substream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--n", type=int, default=200, help="ensemble size")
    parser.add_argument(
        "--reduced", action="store_true",
        help="8-dim lattice observed at t=1,2 only (fast, information-poor)",
    )
    args = parser.parse_args()

    overrides = {"d_x": 8, "obs_times": [1.0, 2.0]} if args.reduced else None
    model = build_model("l96", overrides)
    observed_dims = list(model.config.observed_dims)
    unobserved_dims = [m for m in range(model.d_x) if m not in observed_dims]

    root = as_seed_sequence(args.seed)
    data_rng = substream(root, DATA)
    truth = model.sample_truth(data_rng)
    y = model.simulate(truth, data_rng)

    print(
        f"lattice: d_x={model.d_x}, observations at t={list(model.config.obs_times)} "
        f"on dimensions {observed_dims[:5]}{'...' if len(observed_dims) > 5 else ''}"
    )
    try:
        res = run_eki(model, y, EkiConfig(n_particles=args.n), derive(root, ALGO))
    except FloatingPointError as exc:
        print(f"integration failed: {exc}")
        print("small ensembles estimate the update gain noisily in 40 dimensions and")
        print("can overshoot a particle into integrator blow-up; rerun with a larger --n")
        raise SystemExit(1)
    sd = res.ensemble.params.std(axis=0, ddof=1)
    prior_sd = np.sqrt(5.0)
    obs_sd = sd[observed_dims].mean()
    unobs_sd = sd[unobserved_dims].mean()

    print(
        f"finished: {res.termination_reason} after {res.schedule.n_steps} temperings, "
        f"{res.sim_count} simulations"
    )
    print()
    print(f"prior spread per dimension:          {prior_sd:.3f}")
    print(f"posterior spread, observed dims:     {obs_sd:.4f}")
    print(f"posterior spread, unobserved dims:   {unobs_sd:.4f}")
    print()
    if args.reduced:
        print("reduced lattice: by t=1 the chaotic flow has mixed away nearly all")
        print("initial-state information, so both spreads sit at the prior and the")
        print("observed/unobserved gap drowns in Monte Carlo noise.")
    else:
        print("the data are strongly informative here: both spreads contract to half")
        print("the prior. the extra edge on the observed dimensions is a percent-level")
        print("effect that only resolves with larger ensembles and seed averaging.")


if __name__ == "__main__":
    main()

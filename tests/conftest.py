import math

import numpy as np
import pytest

from meanfield_ldp.cost import FluxTrajectory, _mass_balance
from meanfield_ldp.measures import StateDistribution
from meanfield_ldp.models import (interacting_wlan_model, mm1_model,
                                  wlan_const_model, wlan_decay_model)


@pytest.fixture(scope="session")
def mm1():
    return mm1_model(1.0, 2.0)


@pytest.fixture(scope="session")
def wlan_const():
    return wlan_const_model(1.0, 1.0)


@pytest.fixture(scope="session")
def wlan_decay():
    return wlan_decay_model(1.0, 1.0)


@pytest.fixture(scope="session")
def interacting():
    return interacting_wlan_model(0.5)


def random_dist(rng: np.random.Generator, z_max: int,
                concentration: float = 1.0) -> StateDistribution:
    return StateDistribution(rng.dirichlet(np.full(z_max + 1, concentration)),
                             z_max)


def random_feasible(model, rng, z_max, T_max):
    """Random flux plan of 3-5 segments that keeps every mass above 1e-4."""
    p = rng.dirichlet(np.full(z_max + 1, 2.0))
    p = 0.7 * p + 0.3 / (z_max + 1)
    init = StateDistribution(p / p.sum(), z_max)
    durations, rows = [], []
    cur = init.probs.copy()
    n_seg = int(rng.integers(3, 6))
    for _ in range(n_seg):
        d = float(rng.uniform(0.1, T_max / n_seg))
        fwd = model.forward_rates(z_max, cur) * cur
        back = model.backward_rates(z_max, cur) * cur
        scale = [math.exp(rng.uniform(-0.6, 0.6)) for _ in range(2 * z_max)]
        row = np.concatenate([fwd[:-1], back[1:]]) * scale
        for _ in range(50):
            trial = cur + d * _mass_balance(row[None], model.kind)[0]
            if trial.min() > 1e-4:
                break
            row = 0.5 * row
        durations.append(d)
        rows.append(row)
        cur = trial
    return FluxTrajectory(init, model.kind, durations, np.array(rows))

import numpy as np
import pytest

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


def geometric(rho: float, z_max: int) -> StateDistribution:
    """The geometric law (1 - rho) rho^z conditioned on {0..z_max}."""
    return StateDistribution.from_weights(rho ** np.arange(z_max + 1))

import pytest

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

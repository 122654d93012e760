import pytest
from hypothesis import settings

from epibias.outbreak_sim import Scenario, simulate_outbreak

MASTER_SEED = 20140801

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example time limit.
settings.register_profile("epibias", derandomize=True, database=None, deadline=None)
settings.load_profile("epibias")


@pytest.fixture(scope="session")
def ebola_scenario():
    return Scenario(master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def small_scenario():
    """Reduced threshold for fast structural tests."""
    return Scenario(notify_threshold=300, followup=20.0, master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def small_trace(small_scenario):
    rep = 0
    while True:
        trace = simulate_outbreak(small_scenario, rep)
        if trace is not None:
            return trace
        rep += 1


@pytest.fixture(scope="session")
def ebola_rep(ebola_scenario):
    """Replicate index of the first accepted full-size run."""
    rep = 0
    while simulate_outbreak(ebola_scenario, rep) is None:
        rep += 1
    return rep


@pytest.fixture(scope="session")
def ebola_trace(ebola_scenario, ebola_rep):
    """First accepted full-size run (~33,000 persons), shared by every module."""
    return simulate_outbreak(ebola_scenario, ebola_rep)

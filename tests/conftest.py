import pytest
from hypothesis import settings

from epibias.outbreak_sim import Scenario, ensemble_map

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
    """First accepted run of the small scenario."""
    [trace], _ = ensemble_map(small_scenario, 1, lambda trace, rep: trace)
    return trace


@pytest.fixture(scope="session")
def ebola_first_run(ebola_scenario):
    """(replicate index, trace) of the first accepted full-size run."""
    [first], _ = ensemble_map(ebola_scenario, 1, lambda trace, rep: (rep, trace))
    return first


@pytest.fixture(scope="session")
def ebola_rep(ebola_first_run):
    """Replicate index of the first accepted full-size run."""
    return ebola_first_run[0]


@pytest.fixture(scope="session")
def ebola_trace(ebola_first_run):
    """First accepted full-size run (~33,000 persons), shared by every module."""
    return ebola_first_run[1]

import pytest

from uncoiledtl.scalars import sample_env


@pytest.fixture(scope="session")
def env_atl5():
    return sample_env(11, "aTL", 5)


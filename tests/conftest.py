import numpy as np
import pytest

from urpayload import SirDistribution


@pytest.fixture(scope="session")
def main_dist() -> SirDistribution:
    """Serving link 20 m, ten interferers at 10+20j m, exponent 3.5."""
    return SirDistribution.from_geometry(20.0, tuple(10.0 + 20.0 * j for j in range(1, 11)), 3.5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)

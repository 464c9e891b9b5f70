import pytest
from hypothesis import HealthCheck, settings

from hdcam.hvcore import Rng

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return Rng(42)

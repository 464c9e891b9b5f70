import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from hdcam.hvcore import Rng

# scripts/studies.py holds the study loops the acceptance suite shares with the scripts.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

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

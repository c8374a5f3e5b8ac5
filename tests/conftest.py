import numpy as np
import pytest

from ofdmsar import Geometry, PowerAllocation, WaveformSpec


@pytest.fixture
def spec64():
    # Default airborne scenario numerology: 1.5 GHz over 64 subcarriers.
    return WaveformSpec(n_subcarriers=64, bandwidth=1.5e9, power_budget=64.0)


@pytest.fixture
def spec8():
    return WaveformSpec(n_subcarriers=8, bandwidth=8.0, power_budget=8.0)


@pytest.fixture
def geom():
    return Geometry(
        slant_range_center=np.sqrt(2.0) * 1000.0,
        velocity=40.0,
        carrier_freq=9.0e9,
        prf=800.0,
        aperture_time=1.0,
    )


@pytest.fixture
def uniform64():
    return PowerAllocation.uniform(64, 64.0)

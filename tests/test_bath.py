"""Environment parameters and their validation."""

import pytest

from pulseguard.bath import BathSpec


def test_weight():
    bath = BathSpec(coupling=1.0, cutoff=0.5)
    assert bath.weight == pytest.approx(0.25)


def test_validation():
    with pytest.raises(ValueError):
        BathSpec(coupling=-1.0, cutoff=0.5)
    with pytest.raises(ValueError):
        BathSpec(coupling=1.0, cutoff=0.0)
    BathSpec(coupling=0.0, cutoff=0.5)  # zero coupling is a valid limit

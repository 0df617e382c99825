"""Fixtures shared by the test modules."""

import pytest

from quadrec import pell


@pytest.fixture
def computed_units(monkeypatch):
    """Empty the unit memo, then log each unit computed, keyed by m."""
    pell.fundamental_unit.cache_clear()
    compute, units = pell.compute_fundamental_unit, {}

    def logged(m):
        units[m] = compute(m)
        return units[m]

    monkeypatch.setattr(pell, "compute_fundamental_unit", logged)
    return units

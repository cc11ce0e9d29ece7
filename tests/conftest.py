"""Fixtures shared by the test modules."""

import pytest

from vermatools.scalar import Scalar


@pytest.fixture
def inverted(monkeypatch) -> list:
    """Every value that Scalar inverts during the test, in order."""
    values, inverse = [], Scalar._inverse

    def recording(self):
        values.append(self)
        return inverse(self)
    monkeypatch.setattr(Scalar, "_inverse", recording)
    return values

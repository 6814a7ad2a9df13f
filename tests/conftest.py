import pytest

from basisconv import DEFAULT_PRIME, Modulus, modfield


@pytest.fixture(scope="session")
def mod():
    return Modulus(DEFAULT_PRIME)


@pytest.fixture(scope="session")
def mod101():
    # tiny prime: one limb per residue, and precision is capped at n < 101
    return Modulus(101)


@pytest.fixture
def force_kernel(monkeypatch):
    """A function that sends every product of length >= 2 through float
    images, however short."""

    def force():
        monkeypatch.setattr(modfield, "_by_transform", lambda mod, la, lb: la + lb > 2)

    return force

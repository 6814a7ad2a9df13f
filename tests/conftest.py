import pytest

from basisconv import DEFAULT_PRIME, Modulus, modfield


@pytest.fixture(scope="session")
def mod():
    return Modulus(DEFAULT_PRIME)


@pytest.fixture(scope="session")
def mod101():
    # tiny prime: 2-adicity is only 4, so products run through the
    # schoolbook fallback and precision is capped at n < 101
    return Modulus(101)


@pytest.fixture
def transforms_only(monkeypatch):
    """Every product the modulus can transform goes through the NTT, however
    small: the schoolbook is then left to the moduli without the roots."""

    def by_transform(mod, la, lb):
        return modfield._transforms(mod, 1 << (la + lb - 2).bit_length())

    monkeypatch.setattr(modfield, "_by_transform", by_transform)

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


class Transforms(list):
    """(forward, rows, size) of each float transform: forward at
    modfield._transform, of limb rows, and inverse at modfield._limb_coeffs,
    of class rows; every transform enters through one of the two."""

    def counts(self):
        """(forward calls, inverse calls)."""
        forward = sum(f for f, _, _ in self)
        return forward, len(self) - forward

    def rows(self):
        """(forward rows, inverse rows, rows x size)."""
        forward = sum(r for f, r, _ in self if f)
        return forward, sum(r for _, r, _ in self) - forward, sum(r * s for _, r, s in self)


@pytest.fixture
def transforms(monkeypatch):
    """The Transforms made from now on."""
    record, transform, limb_coeffs = Transforms(), modfield._transform, modfield._limb_coeffs

    def forward(X, size, slot=None):
        record.append((True, X.shape[0] * X.shape[1], size))
        return transform(X, size, slot)

    def inverse(p, Z, size, *args):
        record.append((False, Z.shape[0] * Z.shape[1], size))
        return limb_coeffs(p, Z, size, *args)

    monkeypatch.setattr(modfield, "_transform", forward)
    monkeypatch.setattr(modfield, "_limb_coeffs", inverse)
    return record

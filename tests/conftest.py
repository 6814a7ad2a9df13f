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
    """A function that sends every product of length >= 2 through a
    transform, however short: "float" through float limb spectra up to the
    float maximum of the modulus; "rows" likewise, but with float images only
    up to size 16, so that longer products take the Karatsuba split and the
    coefficient-row images."""

    def force(kernel):
        monkeypatch.setattr(modfield, "_by_transform", lambda mod, la, lb: la + lb > 2)
        if kernel == "rows":
            monkeypatch.setattr(modfield, "_float", lambda mod, size: 2 <= size <= 16)

    return force


@pytest.fixture(params=["float", "rows"])
def transforms_only(request, force_kernel):
    """Every product through a transform: each kind in turn (force_kernel)."""
    force_kernel(request.param)

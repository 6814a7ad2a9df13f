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
def force_kernel(monkeypatch):
    """A function that sends every product the modulus can transform through
    a transform, however small: "ntt" sends them all to the NTT, the reference,
    the schoolbook being left to the sizes past the roots of unity of p;
    "float" leaves the kind of each to its size, float limb spectra on int64
    rows at sizes 2 to FLOAT_MAX_SIZE, roots of unity or not, and the NTT
    elsewhere."""

    def by_transform(mod, la, lb):
        return modfield._transforms(mod, 1 << (la + lb - 2).bit_length())

    def force(kernel):
        monkeypatch.setattr(modfield, "_by_transform", by_transform)
        if kernel == "ntt":
            monkeypatch.setattr(modfield, "_float", lambda mod, size: False)

    return force


@pytest.fixture(params=["float", "ntt"])
def transforms_only(request, force_kernel):
    """Every product through a transform: each kernel in turn (force_kernel)."""
    force_kernel(request.param)
    return request.param

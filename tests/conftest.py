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
    a transform, however small and whatever its batch shape: "ntt" sends them
    all to the NTT, the
    schoolbook being left to the sizes past the roots of unity of p; "float"
    sends every one the float kernel may take (int64 rows, sizes 2 to
    FLOAT_MAX_SIZE) to it, roots of unity or not, and the rest to the NTT."""

    def by_transform(mod, la, lb):
        return modfield._transforms(mod, 1 << (la + lb - 2).bit_length())

    def float_always(mod, size, rows):
        # a float image of size 1 has one frequency, which does not tell its size
        return mod.dtype is not object and 2 <= size <= modfield.FLOAT_MAX_SIZE

    def force(kernel):
        monkeypatch.setattr(modfield, "_by_transform", by_transform)
        use_float = {"float": float_always, "ntt": lambda mod, size, rows: False}[kernel]
        monkeypatch.setattr(modfield, "_float", use_float)

    return force


@pytest.fixture(params=["float", "ntt"])
def transforms_only(request, force_kernel):
    """Every product through a transform: each kernel in turn (force_kernel)."""
    force_kernel(request.param)
    return request.param

"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately quadratic (or worse) and touches none of the
transform machinery: schoolbook products, explicit matrices, Gaussian
elimination.  Tests freeze values produced by these routines.
"""

from __future__ import annotations

from .errors import NotInvertible, SingularDiagonal, ZeroCoefficient
from .modfield import Modulus, Poly


def _school_mul(mod, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + ai * bj) % mod.p
    return out


def horner_compose(A: Poly, g: Poly, n: int) -> Poly:
    """A(g) mod x^n by Horner's rule with schoolbook products."""
    mod = A.mod
    gc = g.coeffs[:n]
    acc = [0] * n
    for c in reversed(A.coeffs):
        acc = _school_mul(mod, acc, gc, n)
        acc[0] = (acc[0] + c) % mod.p
    return Poly(mod, acc, n)


def bivariate_matrix(spec, n: int, mod: Modulus):
    """The n x n coefficient matrix of a -> eval_bivariate(a, spec, n).

    Column j holds the monomial coefficients of the basis image of x^j:
    entry [i][j] = [x^i t^j] u(x) v(t) f(g(x) h(t)).
    """
    from .compseq import _output_series

    g = _output_series(spec.g_ops, n, mod).coeffs[:n]
    h = _output_series(spec.h_ops, n, mod).coeffs[:n]
    f = spec.f_coeffs(n)
    M = [[0] * n for _ in range(n)]
    gp = [0] * n
    gp[0] = 1          # g^0
    hp = [0] * n
    hp[0] = 1
    for k in range(n):
        fk = f[k]
        if fk:
            for i in range(n):
                if gp[i]:
                    w = fk * gp[i] % mod.p
                    for j in range(n):
                        if hp[j]:
                            M[i][j] = (M[i][j] + w * hp[j]) % mod.p
        gp = _school_mul(mod, gp, g, n)
        hp = _school_mul(mod, hp, h, n)
    if spec.v_coeffs is not None:
        v = spec.v_coeffs(n)
        # multiply each row of the t-side by v: column convolution
        for i in range(n):
            row = M[i]
            M[i] = [
                sum(row[j - s] * v[s] for s in range(j + 1)) % mod.p
                for j in range(n)
            ]
    if spec.u_coeffs is not None:
        u = spec.u_coeffs(n)
        cols = [[M[i][j] for i in range(n)] for j in range(n)]
        for j in range(n):
            cols[j] = _school_mul(mod, cols[j], u, n)
        M = [[cols[j][i] for j in range(n)] for i in range(n)]
    return M


def matvec(mod: Modulus, M, a):
    n = len(M)
    return [
        sum(M[i][j] * (a[j] if j < len(a) else 0) for j in range(n)) % mod.p
        for i in range(n)
    ]


def matrix_inverse(mod: Modulus, M):
    """Inverse of a square matrix over F_p by Gaussian elimination."""
    n = len(M)
    aug = [list(M[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise NotInvertible("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = mod.inv(aug[col][col])
        aug[col] = [x * inv % mod.p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [
                    (aug[r][j] - factor * aug[col][j]) % mod.p
                    for j in range(2 * n)
                ]
    return [row[n:] for row in aug]


def naive_convert(a, fam, n: int, direction: str, mod: Modulus):
    """Dense matrix-apply conversion; the quadratic baseline."""
    M = bivariate_matrix(fam.spec, n, mod)
    cs = fam.prefactor(n)
    for j, c in enumerate(cs):
        if c % mod.p == 0:
            raise ZeroCoefficient(f"prefactor c_{j} vanishes")
    if direction == "to-monomial":
        b = [a[j] * mod.inv(cs[j]) % mod.p if j < len(a) else 0 for j in range(n)]
        return matvec(mod, M, b)
    if direction == "from-monomial":
        f = fam.spec.f_coeffs(n)
        for k, fk in enumerate(f):
            if fk % mod.p == 0:
                raise SingularDiagonal(f"f coefficient at index {k} vanishes")
        try:
            Minv = matrix_inverse(mod, M)
        except NotInvertible:
            raise SingularDiagonal("conversion matrix is singular") from None
        y = matvec(mod, Minv, list(a))
        return [y[j] * cs[j] % mod.p for j in range(n)]
    raise ValueError(f"unknown direction {direction!r}")


def stirling_matrices(mod: Modulus, n: int):
    """(signed first kind, second kind) as n x n lower-triangular matrices.

    s[i][j] with x^(falling i) = sum_j s[i][j] x^j, and S[i][j] with
    x^i = sum_j S[i][j] x^(falling j); the two matrices are inverse.
    """
    s = [[0] * n for _ in range(n)]
    S = [[0] * n for _ in range(n)]
    s[0][0] = S[0][0] = 1
    for i in range(1, n):
        for j in range(n):
            below = s[i - 1][j - 1] if j else 0
            s[i][j] = (below - (i - 1) * s[i - 1][j]) % mod.p
            belowS = S[i - 1][j - 1] if j else 0
            S[i][j] = (belowS + j * S[i - 1][j]) % mod.p
    return s, S

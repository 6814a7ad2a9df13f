import json
import subprocess
import sys

import numpy as np
import pytest

from basisconv import cli

P = 2013265921
P40 = 1099489607681


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "basisconv.cli", *args],
        input=stdin, capture_output=True, text=True,
    )


def vec(coeffs, modulus=P):
    return json.dumps({"modulus": str(modulus), "coeffs": [str(c) for c in coeffs]})


def out_coeffs(proc):
    return [int(c) for c in json.loads(proc.stdout)["coeffs"]]


def test_convert_hermite_from_monomial():
    # 4x^2 - 2 is H_2
    proc = run_cli(
        ["convert", "--family", "hermite", "--dir", "from-monomial", "--n", "3"],
        stdin=vec([P - 2, 0, 4]),
    )
    assert proc.returncode == 0, proc.stderr
    assert out_coeffs(proc) == [0, 0, 1]


def test_convert_falling_to_monomial():
    proc = run_cli(
        ["convert", "--family", "falling", "--dir", "to-monomial", "--n", "3"],
        stdin=vec([0, 0, 1]),
    )
    assert proc.returncode == 0, proc.stderr
    assert out_coeffs(proc) == [0, P - 1, 1]   # x^2 - x


def test_convert_round_trip():
    coeffs = [17, 3, 999, 42, 5]
    one = run_cli(
        ["convert", "--family", "jacobi(alpha=3,beta=5)", "--dir", "to-monomial"],
        stdin=vec(coeffs),
    )
    assert one.returncode == 0, one.stderr
    two = run_cli(
        ["convert", "--family", "jacobi(alpha=3,beta=5)", "--dir", "from-monomial"],
        stdin=one.stdout,
    )
    assert two.returncode == 0, two.stderr
    assert out_coeffs(two) == coeffs


def test_compose_and_flags():
    proc = run_cli(
        ["compose", "--sequence", "A:1;Inv", "--n", "3"], stdin=vec([1, 1, 1])
    )
    assert proc.returncode == 0
    assert out_coeffs(proc) == [3, P - 3, 4]
    # diagonal example
    proc = run_cli(
        ["compose", "--sequence", "M:2", "--n", "3"], stdin=vec([1, 1, 1])
    )
    assert out_coeffs(proc) == [1, 2, 4]
    # transpose of a diagonal map is itself
    proc = run_cli(
        ["compose", "--sequence", "M:2", "--n", "3", "--transpose"],
        stdin=vec([1, 1, 1]),
    )
    assert out_coeffs(proc) == [1, 2, 4]
    # inverse undoes forward
    fwd = run_cli(
        ["compose", "--sequence", "A:1;Inv", "--n", "4"], stdin=vec([5, 6, 7, 8])
    )
    inv = run_cli(
        ["compose", "--sequence", "A:1;Inv", "--n", "4", "--inverse"],
        stdin=fwd.stdout,
    )
    assert out_coeffs(inv) == [5, 6, 7, 8]


def test_compose_domain_error_exit():
    proc = run_cli(["compose", "--sequence", "Inv", "--n", "2"], stdin=vec([0, 1]))
    assert proc.returncode == 1
    assert "DomainViolation" in proc.stderr


def test_matrix_dump():
    proc = run_cli(["matrix", "--family", "hermite", "--n", "3"])
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    # columns are 1, 2x, 4x^2 - 2
    assert [int(r[2]) for r in rows] == [P - 2, 0, 4]
    # n=1 scalar
    proc = run_cli(["matrix", "--family", "hermite", "--n", "1"])
    assert proc.stdout.strip() == "1"


def test_matrix_spread_inverse_refused():
    fwd = run_cli(["matrix", "--family", "spread", "--n", "4"])
    assert fwd.returncode == 0
    inv = run_cli(
        ["matrix", "--family", "spread", "--n", "4", "--dir", "from-monomial"]
    )
    assert inv.returncode == 1
    assert "SingularDiagonal" in inv.stderr


def test_bench_csv_shape():
    proc = run_cli(
        ["bench", "--family", "laguerre(alpha=3)", "--n-max", "64",
         "--naive-max", "32"]
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,fast_s,naive_s,naive_with_setup_s"
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [16, 32, 64]
    # beyond naive-max the baseline columns are empty
    assert lines[-1].endswith(",,")


def test_usage_errors():
    # malformed JSON
    proc = run_cli(
        ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "2"],
        stdin="not json",
    )
    assert proc.returncode == 2
    # modulus mismatch between flag and payload
    proc = run_cli(
        ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "2",
         "--modulus", "101"],
        stdin=vec([1, 2], modulus=P),
    )
    assert proc.returncode == 2
    # composite modulus
    proc = run_cli(
        ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "2",
         "--modulus", "100"],
        stdin=vec([1, 2], modulus=100),
    )
    assert proc.returncode == 2
    # unknown subcommand: argparse exits 2
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


@pytest.mark.parametrize("p", [P, P40])
def test_selftest_quick(p):
    # the kernel checks and conversions on int64 rows and on rows of Python
    # ints (four limbs)
    proc = run_cli(["selftest", "--quick", "--modulus", str(p)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout


def test_selftest_checks_the_float_kernel(monkeypatch, capsys):
    # an FFT that errs by more than 1/2 (a numpy build off the bound) fails
    # the kernel check; the small products of the --quick conversions go
    # through the float kernel too, so some of them fail as well
    import numpy as np

    from basisconv import cli

    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.75)
    assert cli.main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kernel")


def test_selftest_checks_the_dense_leaf_product(monkeypatch, capsys):
    # a matrix product off by 3/4 (a BLAS that does not sum doubles exactly)
    # fails the leaf-product check; the --quick conversions, whose grid trees
    # are all leaf, fail as well
    import numpy as np

    from basisconv import cli

    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kw: matmul(*args, **kw) + 0.75)
    assert cli.main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kernel: dense leaf product")


def test_selftest_checks_the_conversion_matrices(monkeypatch, capsys):
    # a kept matrix with one wrong entry, up to MATRIX_MAX, differs from the
    # fast chain; the round trip alone would not tell a wrong forward matrix
    # from an inverse built from the same factors
    from basisconv import cli, families

    build = families._conversion_matrix

    def wrong(fam, n, mod, inverse):
        M = build(fam, n, mod, inverse).copy()
        M[0, 0] = (M[0, 0] + 1) % mod.p
        return M

    monkeypatch.setattr(families, "_conversion_matrix", wrong)
    assert cli.main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL conversion differs from the chain laguerre(alpha=3) n=8" in out


def test_malformed_family_value_is_domain_error():
    proc = run_cli(
        ["convert", "--family", "hermite(x=abc)", "--dir", "to-monomial", "--n", "2"],
        stdin=vec([1, 2]),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: SpecViolation")
    assert "Traceback" not in proc.stderr


def test_coefficients_outside_field_rejected():
    for coeffs in (["-1", "2"], ["1", str(P + 4)]):
        proc = run_cli(
            ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "2"],
            stdin=json.dumps({"modulus": str(P), "coeffs": coeffs}),
        )
        assert proc.returncode == 1
        assert "DomainViolation" in proc.stderr
        bad = 0 if coeffs[0] == "-1" else 1
        assert f"coefficient {bad} " in proc.stderr

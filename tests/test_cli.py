import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from basisconv import cli

P = 2013265921
P40 = 1099489607681
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, stdin=None):
    # the child imports the package from this checkout, as the tests do
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "basisconv.cli", *args],
        input=stdin, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
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
    assert lines[0] == "n,cold_s,fast_s,naive_s,naive_with_setup_s"
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [16, 32, 64]
    # beyond naive-max the baseline columns are empty
    assert lines[-1].endswith(",,")


def test_bench_leaves_the_baseline_empty_past_2_31(capsys):
    # densemat builds no matrix over a prime whose residues live in Python
    # ints, so no n has naive columns; the fast columns are there
    assert cli.main(["bench", "--family", "jacobi(alpha=3,beta=5)", "--modulus",
                     "1099489607681", "--n-max", "32"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["16", "32"]
    assert all(line.endswith(",,") and "" not in line.split(",")[:3] for line in lines[1:])


def test_bench_times_the_best_of_three_warm_calls(monkeypatch, capsys):
    # one cold call on a fresh modulus, its own column, and cli.BENCH_RUNS
    # timed warm calls per n; the fast column is the least of the warm calls
    calls, times = [], iter([0.0, 2.5, 0.0, 5.0, 5.0, 7.0, 7.0, 8.0] * 2)
    to_monomial = cli.to_monomial

    def counted(a, fam, n, mod):
        calls.append(n)
        return to_monomial(a, fam, n, mod)

    monkeypatch.setattr(cli, "to_monomial", counted)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(times))
    assert cli.main(["bench", "--family", "hermite", "--n-max", "32", "--naive-max", "0"]) == 0
    assert cli.BENCH_RUNS == 3 and calls == [16] * 4 + [32] * 4
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["16,2.500000,1.000000,,", "32,2.500000,1.000000,,"]


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


@pytest.mark.parametrize("payload", [
    {"coeffs": [1.5, True, 2]},
    {"coeffs": [1, True]},
    {"coeffs": [1, None]},
    {"coeffs": ["1.5"]},
    {"coeffs": [" 3"]},
    {"coeffs": "12"},
    {"modulus": 2013265921.7, "coeffs": [1]},
    {"modulus": "2013265921.0", "coeffs": [1]},
    {"modulus": True, "coeffs": [1]},
])
def test_only_integers_are_read(payload, monkeypatch, capsys):
    # JSON numbers that are not integers, booleans and strings that are not
    # decimal integers are usage errors, never rounded
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    args = ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "3"]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is not" in err


def test_json_integers_read_as_decimal_strings(monkeypatch, capsys):
    args = ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "3"]
    outs = []
    for payload in ({"modulus": P, "coeffs": [1, "+2", 3]}, json.loads(vec([1, 2, 3]))):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
def test_input_file_is_closed(tmp_path, capsys):
    # an unclosed input file is reported as a ResourceWarning when collected
    path = tmp_path / "in.json"
    path.write_text(vec([1, 2, 3]))
    args = ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "3"]
    assert cli.main([*args, "--input", str(path)]) == 0
    # 1 + 2 H_1 + 3 H_2 = -5 + 4x + 12x^2
    assert json.loads(capsys.readouterr().out)["coeffs"] == [str(P - 5), "4", "12"]


@pytest.mark.parametrize("p", [P, P40, 101])
def test_selftest_quick(p):
    # the kernel checks and conversions on int64 rows and on rows of Python
    # ints (two to four limbs); at 101 the binomial power check runs at n = p
    proc = run_cli(["selftest", "--quick", "--modulus", str(p)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout


def test_full_selftest_over_a_small_prime_runs_to_the_end(capsys):
    # over 101 a check that raises where oracle.naive_convert raises the same
    # error is skipped: jacobi's f_47 vanishes, so at n = 48 it has no
    # inverse.  Every other check passes, the dense Taylor shifts of
    # dimension past p included, and the run exits 0
    assert cli.main(["selftest", "--modulus", "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    skip = "SKIP from-monomial jacobi(alpha=3,beta=5) n=48: f coefficient at index 47 vanishes"
    assert skip in lines
    assert [line for line in lines if line.startswith("FAIL")] == []
    assert lines[-1] == "selftest: all checks passed"


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


def test_selftest_checks_the_two_limb_layout(monkeypatch, capsys):
    # a split into 16-bit limbs that goes wrong only at the edge of their
    # range, +-2^15, passes random operands and rows of p - 1 but not the
    # worst residues of the two-limb layout, which the kernel checks square
    # at its largest float size and multiply at its largest dense one
    import numpy as np

    from basisconv import cli, modfield

    limbs = modfield._limbs

    def broken(A, L, w):
        out = limbs(A, L, w)
        if w == 16:
            np.clip(out, 1 - (1 << 15), (1 << 15) - 1, out=out)
        return out

    monkeypatch.setattr(modfield, "_limbs", broken)
    assert cli.main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kernel: float product")
    assert "FAIL kernel: dense leaf product" in out


def test_selftest_checks_the_scaled_layout(monkeypatch, capsys):
    # the rows multiplied by a scaled image (modfield._kept_image) split into
    # two 16-bit limbs that go wrong only at the edge of their range, +-2^15:
    # every plain product is right, and so is every product of the --quick
    # conversions (none reaches size 2^11), but not the worst residue of the
    # scaled layout, which the kernel check multiplies at size 2^15
    import numpy as np

    from basisconv import cli, modfield

    image = modfield._image

    def broken(mod, A, size, slot=None, layout=None):
        # a layout is given for the rows of a scaled product only
        if layout is None:
            return image(mod, A, size, slot)
        limbs = modfield._limbs(A, *layout)
        np.clip(limbs, 1 - (1 << 15), (1 << 15) - 1, out=limbs)
        return modfield._transform(mod, limbs, size, None, slot)

    monkeypatch.setattr(modfield, "_image", broken)
    assert cli.main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kernel: float product")
    assert out.count("FAIL") == 1


def test_full_selftest_checks_the_kernel_past_2_19(monkeypatch, capsys):
    # a split into 8-bit limbs that goes wrong only at the edge of their
    # range, +-2^7, touches no product below size 2^20, so the --quick
    # selftest passes; the full one squares the worst residue of four 8-bit
    # limbs at 2^20 against the closed form of constant rows
    import numpy as np

    from basisconv import modfield

    limbs = modfield._limbs

    def broken(A, L, w):
        out = limbs(A, L, w)
        if w == 8:
            np.clip(out, 1 - (1 << 7), (1 << 7) - 1, out=out)
        return out

    monkeypatch.setattr(modfield, "_limbs", broken)
    # work arrays of this test only: those at 2^20 take hundreds of MB
    monkeypatch.setattr(modfield, "_work", modfield._Work())
    assert cli.main(["selftest", "--quick"]) == 0
    capsys.readouterr()
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL kernel: float product at 2^20")
    assert out.count("FAIL") == 1


def test_selftest_checks_the_power_kernels(monkeypatch, capsys):
    # a Newton square root and a closed-form binomial power, each wrong in
    # its last coefficient, fail the checks by g^2 and by repeated products
    from basisconv import cli, seriesops

    for name, message in [
        ("_newton_sqrt", "FAIL kernel: the square root of g^2"),
        ("_hypergeometric", "FAIL kernel: a binomial power"),
    ]:
        kernel = getattr(seriesops, name)

        def broken(*args, kernel=kernel):
            out = kernel(*args)
            out[-1] += 1
            return out

        with monkeypatch.context() as patch:
            patch.setattr(seriesops, name, broken)
            assert cli.main(["selftest", "--quick"]) == 1
        assert message in capsys.readouterr().out, name


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


def test_more_coefficients_than_n_are_refused_by_every_command():
    # three coefficients with --n 2: each command exits 1 with
    # DimensionMismatch and prints nothing, none truncates
    for args in (
        ["convert", "--family", "hermite", "--dir", "to-monomial"],
        ["convert", "--family", "hermite", "--dir", "from-monomial"],
        ["compose", "--sequence", "A:1"],
        ["compose", "--sequence", "A:1", "--transpose"],
        ["compose", "--sequence", "A:1", "--inverse"],
    ):
        proc = run_cli([*args, "--n", "2"], stdin=vec([1, 2, 3]))
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: DimensionMismatch"), args
        assert proc.stdout == "", args
    # as many as n: converted
    proc = run_cli(["compose", "--sequence", "A:1", "--n", "3"], stdin=vec([1, 2, 3]))
    assert proc.returncode == 0 and out_coeffs(proc) == [6, 8, 3]


def test_negative_n_is_a_usage_error():
    for args in (
        ["matrix", "--family", "hermite", "--n", "-2"],
        ["convert", "--family", "hermite", "--dir", "to-monomial", "--n", "-1"],
        ["compose", "--sequence", "A:1", "--n", "-3"],
    ):
        proc = run_cli(args, stdin=vec([1]))
        assert proc.returncode == 2, args
        assert "negative" in proc.stderr and proc.stdout == "", args


def test_malformed_family_value_is_domain_error():
    # a value that is no integer, and a parameter the family does not take
    for text in ("hermite(x=abc)", "hermite(x=5)"):
        proc = run_cli(
            ["convert", "--family", text, "--dir", "to-monomial", "--n", "2"],
            stdin=vec([1, 2]),
        )
        assert proc.returncode == 1, text
        assert proc.stderr.startswith("error: SpecViolation"), text
        assert "Traceback" not in proc.stderr, text


def test_zero_dimension_is_a_domain_error(monkeypatch, capsys):
    # n = 0 exits 1 with a DimensionMismatch, where the conversion raised an
    # IndexError and the CLI exited with a traceback
    args = ["convert", "--family", "jacobi(alpha=3,beta=5)", "--dir", "to-monomial", "--n", "0"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"coeffs": []})))
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: DimensionMismatch")


CONVERT = ["convert", "--family", "hermite", "--dir", "to-monomial"]


@pytest.mark.parametrize("argv", [
    pytest.param(["compose", "--sequence", "A:1_0", "--n", "2"], id="A:1_0"),
    pytest.param(["compose", "--sequence", "P:\u0663", "--n", "2"], id="P:\u0663"),
    pytest.param([*CONVERT, "--n", "1_0"], id="--n 1_0"),
    pytest.param([*CONVERT, "--n", " 4"], id="--n ' 4'"),
    pytest.param([*CONVERT, "--n", "\u0664"], id="--n \u0664"),
    pytest.param([*CONVERT, "--modulus", "2_013_265_921"], id="--modulus 2_013_265_921"),
    pytest.param(["bench", "--family", "hermite", "--n-max", "1_6"], id="--n-max 1_6"),
    pytest.param(["bench", "--family", "hermite", "--naive-max", " 16"], id="--naive-max ' 16'"),
])
def test_sequence_integers_are_ascii_decimals(argv, monkeypatch, capsys):
    # int() reads 1_0 as 10, ' 4' as 4 and the Arabic-Indic digits three and
    # four as 3 and 4; the sequence grammar and the integer flags, as the
    # JSON input's, take none of them (compseq.parse_integer): a usage error,
    # from main or, for a flag, from argparse
    monkeypatch.setattr("sys.stdin", io.StringIO(vec([1, 2])))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed integer" in err


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

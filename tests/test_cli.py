import json
import os
import subprocess
import sys
import time

import pytest

from qspace3.cli import main


def run_cli(args, tmp_path=None, env=None):
    """Invoke main() in-process, capturing the JSON written to --out."""
    out = None
    if tmp_path is not None:
        out = tmp_path / "report.json"
        args = args + ["--out", str(out)]
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        code = main(args)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    doc = None
    if out is not None and out.exists():
        doc = json.loads(out.read_text())
    return code, doc


class TestPoly:
    def test_degree_one(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "1", "--m", "0", "--x", "0.3",
                             "--q", "1.5"], tmp_path)
        assert code == 0
        assert doc["rows"][0]["P"] == pytest.approx(0.3, rel=1e-12)

    def test_degree_zero(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "0", "--m", "0", "--x", "0.9"],
                            tmp_path)
        assert code == 0
        assert doc["rows"][0]["P"] == 1.0

    def test_normalization_at_one(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "2", "--m", "0", "--x", "1",
                             "--q", "2"], tmp_path)
        assert code == 0
        assert doc["rows"][0]["P"] == pytest.approx(1.0, rel=1e-12)

    def test_golden_passes(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "3", "--m", "1", "--lattice",
                             "--nmin", "-6", "--golden", "--q", "1.5"],
                            tmp_path)
        assert code == 0
        assert doc["pass"] is True
        assert doc["max_golden_rel_err"] < 1e-12

    def test_golden_out_of_table(self):
        code, _ = run_cli(["poly", "--l", "5", "--m", "0", "--x", "0.5",
                           "--golden"])
        assert code == 3

    def test_missing_points_is_config_error(self):
        code, _ = run_cli(["poly", "--l", "1", "--m", "0"])
        assert code == 3

    @pytest.mark.parametrize("nmin", ["1", "7"])
    def test_positive_nmin_is_config_error(self, nmin, capsys):
        # the lattice indices run n = 0, -1, ..., nmin: no point at all
        code, _ = run_cli(["poly", "--l", "1", "--m", "0", "--lattice",
                           "--nmin", nmin, "--golden"])
        assert code == 3
        assert "--nmin" in capsys.readouterr().err

    def test_zero_nmin_is_the_top_node(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "1", "--m", "0", "--lattice",
                             "--nmin", "0", "--golden"], tmp_path)
        assert code == 0
        assert [r["x"] for r in doc["rows"]] == [1.5**-2, -1.5**-2]

    def test_lattice_rows_name_one_argument(self, tmp_path):
        # both columns are taken at the exact node, so weight_w * P is
        # P_tilde in every row; P at the float node would read -3.0e-27
        # beside P_tilde = +3.6e-77
        from qspace3 import QContext
        from qspace3.qspecial import weight_w
        code, doc = run_cli(["poly", "--l", "30", "--m", "0", "--q", "1.5",
                             "--lattice", "--nmin", "-3"], tmp_path)
        assert code == 0
        for r in doc["rows"]:
            w = weight_w(30, 0, r["x"], QContext(q=1.5))
            assert w * r["P"] == pytest.approx(r["P_tilde"], rel=1e-12)

    def test_deep_lattice_rows_keep_their_digits(self, tmp_path):
        # P = x at (l, m) = (2, 1): near 0 its sum cancels log10(1/|x|)
        # digits, 59 at the deepest node q^-124, and every P_tilde row keeps
        # its value and the exact odd parity at +-x
        code, doc = run_cli(["poly", "--l", "2", "--m", "1", "--q", "3",
                             "--lattice", "--nmin", "-60"], tmp_path)
        assert code == 0
        rows = doc["rows"]
        assert len(rows) == 122
        for r in rows:
            assert r["P"] == pytest.approx(r["x"], rel=1e-14)
            assert r["P_tilde"] != 0
        for plus, minus in zip(rows[::2], rows[1::2]):
            assert minus["x"] == -plus["x"]
            assert minus["P_tilde"] == -plus["P_tilde"]

    def test_bad_point_is_config_error(self, capsys):
        code, _ = run_cli(["poly", "--l", "2", "--m", "0", "--x", "0.3,abc"])
        assert code == 3
        assert "'abc'" in capsys.readouterr().err

    def test_value_beyond_binary64_exits_4(self, tmp_path, capsys):
        # P~_90(0.5) at q = 1.3 is about -10**380: no -Infinity row
        code, doc = run_cli(["poly", "--l", "90", "--m", "0", "--x", "0.5",
                             "--q", "1.3"], tmp_path)
        assert code == 4
        assert doc is None
        assert "binary64" in capsys.readouterr().err

    def test_non_finite_point_exits_3_at_once(self, capsys):
        # rejected up front, not after escalating past 1000 digits
        start = time.perf_counter()
        code, _ = run_cli(["poly", "--l", "40", "--m", "30", "--x", "inf",
                           "--q", "3"])
        assert code == 3
        assert time.perf_counter() - start < 1.0
        assert "finite" in capsys.readouterr().err

    def test_polynomial_beyond_binary64_exits_4(self, tmp_path, capsys):
        # P_31(1e300) at q = 1.1 is about 1e600: no Infinity row
        code, doc = run_cli(["poly", "--l", "3", "--m", "1", "--x", "1e300",
                             "--q", "1.1"], tmp_path)
        assert code == 4
        assert doc is None
        assert "binary64" in capsys.readouterr().err

    def test_radicand_bound_beyond_binary64_is_off_support(self, tmp_path):
        # x = 2**-8 (1 + 1e-7) lies off the order-30 support: the radicand
        # factor j = 26 is -2e-7, far beyond its rounding bound
        code, doc = run_cli(["poly", "--l", "30", "--m", "30", "--x",
                             "0.0039062503906250", "--q", "2"], tmp_path)
        assert code == 0
        assert doc["rows"][0]["P"] == 1.0
        assert doc["rows"][0]["P_tilde"] is None


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_poly_exit_code_contract(capsys):
    # every (q, l, m, x) of the grid exits 0, 2, 3 or 4 without a traceback,
    # and an exit-0 report is strict JSON; the x run through both signs, a
    # point just off the order-30 support, a near-node point, an overflowing
    # polynomial and the non-finite values
    failures = []
    start = time.perf_counter()
    for q in (1.1, 2.0, 3.0):
        for l, m in ((0, 0), (3, 1), (8, 3), (30, 30), (40, 30)):
            node = q**(2 * (-1 - m - 1))
            for x in ("0", "-1", "0.0039062503906250", "0.37",
                      repr(node * (1 + 1e-13)), "1e300", "inf", "nan"):
                argv = ["poly", "--l", str(l), "--m", str(m), "--x", x,
                        "--q", str(q)]
                try:
                    code = main(argv)
                except Exception as e:
                    failures.append((argv, repr(e)))
                    continue
                out = capsys.readouterr().out
                if code not in (0, 2, 3, 4):
                    failures.append((argv, code))
                elif code == 0:
                    try:
                        _strict_json(out)
                    except ValueError as e:
                        failures.append((argv, str(e)))
    assert not failures
    assert time.perf_counter() - start < 5.0


def test_spectrum_and_transform_exit_code_contract(capsys):
    # every verb and --z0 of the grid exits 0, 2, 3 or 4 without a
    # traceback, and every report it writes is strict JSON; a non-finite
    # z0, one whose levels leave binary64 (the R2 level q^2 z0^2 at
    # z0 = 1e200), a window that holds no level, and a transform window
    # that keeps no congruence site or has fewer sites, 2 (depth + 1), than
    # degrees, exit 3; at l_max = 40 depth 20 is the shallowest measured
    verbs = [["spectrum", obs, "--q", "2", "--depth", "4"]
             for obs in ("x3", "r2", "t3", "t2")]
    measured = [["transform", "--direction", "1", "--m", "0", "--lmax", "40",
                 "--depth", "20"]]
    verbs += [["transform", "--direction", d, "--m", "1", "--lmax", "6",
               "--depth", "8"] for d in ("1", "2")] + measured
    empty = [["spectrum", obs, "--q", "2", "--depth", "-3"]
             for obs in ("x3", "r2", "t2")]
    empty += [["spectrum", "t3", "--q", "2", "--depth", d, "--kwidth", k]
              for d, k in (("2", "-3"), ("-1", "0"))]
    empty += [["transform", "--direction", "1", "--m", "0", "--lmax", "6",
               "--depth", d] for d in ("-1", "0", "1")]
    empty += [["transform", "--direction", "1", "--m", "0", "--lmax", "40",
               "--depth", d] for d in ("2", "10", "19")]
    failures = []
    for argv0 in verbs + empty:
        for z0 in ("nan", "inf", "-inf", "1e200", "1"):
            argv = argv0 + [f"--z0={z0}"]
            try:
                code = main(argv)
            except Exception as e:
                failures.append((argv, repr(e)))
                continue
            out = capsys.readouterr().out
            if code not in (0, 2, 3, 4):
                failures.append((argv, code))
            off_range = argv[1] == "r2" and z0 == "1e200"
            if z0 in ("nan", "inf", "-inf") or off_range or argv0 in empty:
                if code != 3 or out:
                    failures.append((argv, code))
            elif out:
                try:
                    _strict_json(out)
                except ValueError as e:
                    failures.append((argv, str(e)))
            if argv0 in measured and z0 in ("1e200", "1") and (
                    code not in (0, 2) or not out):
                failures.append((argv, code))
    assert not failures


def _verify_contract_cases():
    """The verify grid: q in and out of the domain, windows without an
    interior (0, 1) and with one (4, 40), and at window 4 each bad --tol
    and --relations; only the in-domain q at windows 4 and 40 give a
    report."""
    cases = []
    for q in ("nan", "inf", "1", "0.5", "-2", "1.2", "50", "1e300"):
        for w in ("0", "1", "4", "40"):
            extras = [[]]
            if w == "4":
                extras += [["--tol", t] for t in ("nan", "-1", "inf")]
                extras += [["--relations", r] for r in ("foo", "")]
            for extra in extras:
                argv = ["verify", "--q", q, "--depth", w, "--kwidth", w,
                        *extra]
                reports = q in ("1.2", "50") and w in ("4", "40") \
                    and not extra
                marks = ()
                if reports and (q, w) == ("50", "40"):
                    marks = pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 1: the NaN rows of this report are "
                        "not strict JSON"))
                cases.append(pytest.param(argv, reports, marks=marks,
                                          id=" ".join(argv[1:])))
    return cases


@pytest.mark.parametrize("argv, reports", _verify_contract_cases())
def test_verify_exit_code_contract(argv, reports, capsys):
    # every case exits 0, 2 or 3 without a traceback: 3 with no report
    # outside the domain, else 0 or 2 with a strict-JSON report
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if not reports:
        assert (code, out) == (3, "")
    else:
        assert code in (0, 2)
        _strict_json(out)


def _ortho_complete_contract_cases():
    """The ortho and complete grid, as (argv, allowed exit codes): q in and
    out of the domain; the order m at -1 and where q**(4m) leaves binary64
    (1 at q = 1e300, whose nodes underflow to 0, and 260 and 500 at q = 2);
    a negative and a zero --depth, --lspan and --lmax; each bad --tol.
    Exit 0 or 2 writes a report, 3 and 4 none."""
    report, domain, precision = (0, 2), (3,), (4,)
    cases = []
    for q in ("nan", "inf", "1", "0.5", "1.2", "2", "1e300"):
        codes = {"1.2": report, "2": report, "1e300": precision}.get(
            q, domain)
        cases += [(["ortho", "--m", "1", "--lspan", "1", "--depth", "4",
                    "--q", q], codes),
                  (["complete", "--m", "1", "--lmax", "4", "--q", q], codes)]
    cases += [
        (["ortho", "--m", "-1", "--q", "2"], domain),
        (["ortho", "--m", "260", "--lspan", "0", "--depth", "1", "--q", "2"],
         precision),
        (["ortho", "--m", "1", "--lspan", "1", "--depth", "-3"], domain),
        (["ortho", "--m", "1", "--lspan", "1", "--depth", "0"], report),
        (["ortho", "--m", "1", "--lspan", "-1", "--depth", "4"], domain),
        (["ortho", "--m", "1", "--lspan", "0", "--depth", "4"], report),
        (["complete", "--m", "-1", "--lmax", "4", "--q", "2"], report),
        (["complete", "--m", "260", "--lmax", "260", "--q", "2"], precision),
        (["complete", "--m", "500", "--lmax", "500", "--q", "2"], precision),
        (["complete", "--m", "1", "--lmax", "-1"], domain),
        (["complete", "--m", "1", "--lmax", "0"], domain),
        (["complete", "--m", "0", "--lmax", "0"], report),
    ]
    for tol in ("nan", "0", "inf"):
        cases += [(["ortho", "--m", "1", "--lspan", "1", "--depth", "4",
                    "--tol", tol], domain),
                  (["complete", "--m", "1", "--lmax", "4", "--tol", tol],
                   domain)]
    return [pytest.param(argv, codes, id=" ".join(argv))
            for argv, codes in cases]


@pytest.mark.parametrize("argv, codes", _ortho_complete_contract_cases())
def test_ortho_and_complete_exit_code_contract(argv, codes, capsys):
    # every case exits with its allowed code without a traceback: 3 or 4
    # with no report, else 0 or 2 with a strict-JSON report
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code in codes
    if code in (3, 4):
        assert out == ""
    else:
        _strict_json(out)


class TestVerify:
    def test_all_relations_pass(self, tmp_path):
        code, doc = run_cli(["verify", "--relations", "all", "--q", "1.5",
                             "--depth", "25", "--kwidth", "25"], tmp_path)
        assert code == 0
        assert doc["pass"] is True
        assert doc["max_residual"] < 1e-10
        assert len(doc["rows"]) > 30

    def test_single_group(self, tmp_path):
        code, doc = run_cli(["verify", "--relations", "orbital-constraint",
                             "--q", "1.5", "--depth", "20", "--kwidth", "20"],
                            tmp_path)
        assert code == 0
        assert len(doc["rows"]) == 1

    def test_near_classical(self, tmp_path):
        code, doc = run_cli(["verify", "--relations", "x", "--q", "1.000001",
                             "--depth", "12", "--kwidth", "12"], tmp_path)
        assert code == 0

    def test_unknown_group_is_config_error(self):
        code, _ = run_cli(["verify", "--relations", "nonsense",
                           "--depth", "8", "--kwidth", "8"])
        assert code == 3

    def test_power_overflow_is_config_error(self):
        # q**800 at q = 3 lies beyond binary64
        code, _ = run_cli(["verify", "--q", "3", "--depth", "200",
                           "--kwidth", "20"])
        assert code == 3

    def test_unwritable_out_is_config_error(self, tmp_path):
        code = main(["verify", "--depth", "8", "--kwidth", "8", "--out",
                     str(tmp_path / "missing" / "x.json")])
        assert code == 3

    def test_empty_interior_is_config_error(self, tmp_path):
        code, doc = run_cli(["verify", "--depth", "1", "--kwidth", "1"],
                            tmp_path)
        assert code == 3
        assert doc is None


class TestSpectrum:
    def test_x3_lattice(self, tmp_path):
        code, doc = run_cli(["spectrum", "x3", "--M", "0", "--z0", "1",
                             "--q", "2", "--depth", "2"], tmp_path)
        assert code == 0
        vals = [r["eigenvalue"] for r in doc["rows"]]
        assert vals == pytest.approx([1.0, 0.25, 0.0625])

    def test_r2_constant(self, tmp_path):
        code, doc = run_cli(["spectrum", "r2", "--M", "0", "--z0", "1",
                             "--q", "1.5", "--depth", "3"], tmp_path)
        assert code == 0
        vals = [r["eigenvalue"] for r in doc["rows"]]
        assert vals == pytest.approx([1.5**2] * len(vals))

    def test_t2_block(self, tmp_path):
        code, doc = run_cli(["spectrum", "t2", "--m", "0", "--q", "1.5",
                             "--depth", "50", "--lmax", "20"], tmp_path)
        assert code == 0
        assert all(r["rel_err"] < 1e-6 for r in doc["rows"])

    @pytest.mark.parametrize("args", [
        # q**2400 at q = 2 lies beyond binary64: the power raises
        ("--q", "2", "--depth", "600"),
        # q**(-4 m_t) below 1.8e308, its square in the coupling above
        ("--q", "2", "--depth", "200"),
        # finite entries that overflow once divided by lam^2 < 1
        ("--q", "1.1", "--m", "3700", "--depth", "3"),
        ("--depth", "-1"),
    ])
    def test_t2_chain_beyond_binary64_is_config_error(self, args, capsys):
        code, _ = run_cli(["spectrum", "t2", *args])
        assert code == 3
        assert "domain error" in capsys.readouterr().err


class TestTransform:
    def test_direction1_writes_files(self, tmp_path):
        base = tmp_path / "table"
        code = main(["transform", "--direction", "1", "--m", "0",
                     "--q", "1.5", "--lmax", "5", "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "table.json").read_text())
        assert summary["gram_defect"] < 1e-6
        assert summary["congruence_defect"] < 1e-6
        assert (tmp_path / "table.csv").exists()

    def test_direction2_defects(self, tmp_path):
        base = tmp_path / "t2"
        code = main(["transform", "--direction", "2", "--m", "0",
                     "--q", "1.5", "--lmax", "40", "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "t2.json").read_text())
        assert summary["congruence_defect"] < 1e-6

    def test_unwritable_out_is_config_error(self, tmp_path):
        code = main(["transform", "--direction", "1", "--m", "0",
                     "--lmax", "5", "--out", str(tmp_path / "missing" / "t")])
        assert code == 3

    def test_uncovered_m_is_config_error(self):
        code = main(["transform", "--direction", "1", "--m", "7",
                     "--lmax", "3"])
        assert code == 3


class TestOrthoComplete:
    def test_ortho_passes(self, tmp_path):
        code, doc = run_cli(["ortho", "--m", "0", "--lspan", "3",
                             "--q", "1.5", "--depth", "60"], tmp_path)
        assert code == 0
        assert doc["max_defect"] < 1e-8

    def test_ortho_shallow_depth_fails(self, tmp_path):
        code, doc = run_cli(["ortho", "--m", "0", "--lspan", "2",
                             "--q", "1.5", "--depth", "6"], tmp_path)
        assert code == 2
        assert doc["pass"] is False

    @pytest.mark.parametrize("lspan", ["-1", "-4"])
    def test_negative_lspan_is_config_error(self, lspan, capsys):
        # no degree pair to check
        code, _ = run_cli(["ortho", "--m", "0", "--lspan", lspan])
        assert code == 3
        assert "--lspan" in capsys.readouterr().err

    def test_ortho_single_degree(self, tmp_path):
        code, doc = run_cli(["ortho", "--m", "1", "--lspan", "0"], tmp_path)
        assert code == 0
        assert [(r["l"], r["lp"]) for r in doc["rows"]] == [(1, 1)]

    def test_complete_beyond_binary64_coefficients_is_precision_error(self):
        code, _ = run_cli(["complete", "--m", "0", "--q", "2",
                           "--lmax", "300"])
        assert code == 4

    def test_complete_passes(self, tmp_path):
        code, doc = run_cli(["complete", "--m", "0", "--q", "1.5",
                             "--lmax", "40"], tmp_path)
        assert code == 0
        stages = [s["max_defect"] for s in doc["stages"]]
        assert stages[0] >= stages[-1] - 1e-12


class TestPlumbing:
    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code = main(["verify", "--relations", "conj", "--q", "1.5",
                         "--depth", "10", "--kwidth", "10",
                         "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_text_formats(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["poly", "--l", "1", "--m", "0", "--x", "0.25,0.5",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["x", "P"]
        assert len(lines) == 3
        code = main(["poly", "--l", "1", "--m", "0", "--x", "0.25",
                     "--format", "text", "--out", str(out)])
        assert code == 0
        assert "P_tilde" in out.read_text()

    def test_extended_precision_env(self, tmp_path):
        code, doc = run_cli(["poly", "--l", "2", "--m", "0", "--x", "0.4",
                             "--q", "1.5"], tmp_path,
                            env={"QSPACE3_PRECISION": "extended"})
        assert code == 0
        q = 1.5

        def qn(a):
            return (q**a - q**-a) / (q - 1 / q)

        expect = (qn(3) * 0.16 - q**-2) / (q * qn(2))
        assert doc["rows"][0]["P"] == pytest.approx(expect, rel=1e-12)

    def test_bad_precision_env(self):
        code, _ = run_cli(["poly", "--l", "1", "--m", "0", "--x", "0.3"],
                          env={"QSPACE3_PRECISION": "quad"})
        assert code == 3

    def test_q_below_one_is_config_error(self):
        code, _ = run_cli(["poly", "--l", "1", "--m", "0", "--x", "0.3",
                           "--q", "0.9"])
        assert code == 3

    def test_bad_flag_exits_with_config_error(self):
        code = main(["poly", "--l", "1"])
        assert code == 3

    def test_precision_error_maps_to_exit_4(self, monkeypatch):
        from qspace3 import cli as climod
        from qspace3.errors import PrecisionError

        def boom(args):
            raise PrecisionError("did not converge")

        monkeypatch.setitem(climod._DISPATCH, "poly", boom)
        code = main(["poly", "--l", "1", "--m", "0", "--x", "0.5"])
        assert code == 4

    def test_import_leaves_scipy_linalg_out(self):
        # scipy adds to every command's start; only the spectral block
        # levels (scipy.linalg) and the CSR export (scipy.sparse) read it,
        # and import it when called
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qspace3.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_coproduct_leaves_scipy_out(self):
        # both coproduct variants build on bands; no scipy module is loaded
        code = (
            "import sys\n"
            "from qspace3 import QContext, repspace as rs\n"
            "from qspace3.operators import RepWindow\n"
            "ctx = QContext(q=1.5)\n"
            "t = rs.build_t_special(RepWindow.make({'m_t': (-4, 0)}), ctx)\n"
            "k = rs.build_K_orbital(RepWindow.make({'m_k': (0, 4)}), ctx)\n"
            "rs.coproduct(t, k, 'beta', ctx)\n"
            "s = rs.build_T_generic(1 / ctx.lam, 1.0, None, ctx)\n"
            "rs.coproduct(s, s, 'standard', ctx)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qspace3.cli", "poly", "--l", "1",
             "--m", "0", "--x", "0.3", "--q", "1.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "qspace3/1"


# a cheap valid command line per verb, and every shared flag a verb used to
# accept without reading it
_BASE = {
    "poly": ["poly", "--l", "1", "--m", "0", "--x", "0.3"],
    "verify": ["verify", "--depth", "8", "--kwidth", "8"],
    "transform": ["transform", "--direction", "1", "--m", "0", "--lmax", "5"],
    "ortho": ["ortho", "--m", "0", "--lspan", "1", "--depth", "20"],
    "complete": ["complete", "--m", "0", "--lmax", "8"],
}
_UNREAD = [("poly", "--depth", "10"), ("poly", "--lmax", "10"),
           ("poly", "--kwidth", "10"), ("verify", "--lmax", "10"),
           ("transform", "--kwidth", "10"), ("transform", "--format", "csv"),
           ("ortho", "--lmax", "10"), ("ortho", "--kwidth", "10"),
           ("complete", "--depth", "10"), ("complete", "--kwidth", "10")]


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [_BASE[verb] + [flag, value] for verb, flag, value in _UNREAD]
        + [_BASE["poly"] + ["--lattice"], _BASE["poly"] + ["--nmin", "5"]],
        ids=[f"{verb} {flag}" for verb, flag, _ in _UNREAD]
        + ["poly --x --lattice", "poly --x --nmin"])
    def test_unread_or_conflicting_flag_is_config_error(self, argv, capsys):
        assert main(argv) == 3
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["poly", "transform", "ortho"])
    def test_zero_tolerance_is_config_error(self, verb):
        assert main(_BASE[verb] + ["--tol", "0"]) == 3

    @pytest.mark.parametrize("argv", [
        ["poly", "--l", "3", "--m", "1", "--lattice", "--nmin", "-6",
         "--golden"],
        _BASE["ortho"],
        _BASE["transform"],
    ], ids=["poly", "ortho", "transform"])
    def test_tolerance_below_the_series_threshold(self, argv, tmp_path):
        # 1e-15 lies below the 1e-14 truncation threshold of the series,
        # which no verb's pass/fail tolerance has to exceed
        out = tmp_path / "r"
        code = main(argv + ["--q", "1.5", "--tol", "1e-15", "--out", str(out)])
        doc = json.loads((tmp_path / ("r.json" if argv[0] == "transform"
                                      else "r")).read_text())
        assert code == (0 if doc["pass"] else 2)

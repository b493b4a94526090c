import json
import os
import subprocess
import sys

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

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qspace3.cli", "poly", "--l", "1",
             "--m", "0", "--x", "0.3", "--q", "1.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "qspace3/1"

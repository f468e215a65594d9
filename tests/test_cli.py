import json

import numpy as np
import pytest

from spectral_vms.cli import main


def test_solve_smoke(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--method", "galerkin", "--a", "0", "--mu", "1",
               "--h", "0.5", "--dt", "0.1", "--steps", "1",
               "--ic", "hat", "--bc", "homogeneous", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,t,step,method,value"
    assert len(lines) == 1 + 2 * 3  # 2 time levels x 3 nodes


def test_solve_validation_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    # both --steps and --t-final
    rc = main(["solve", "--method", "galerkin", "--steps", "1",
               "--t-final", "0.1", "--out", out])
    assert rc == 2
    # h does not divide the interval
    rc = main(["solve", "--method", "galerkin", "--h", "0.3",
               "--steps", "1", "--out", out])
    assert rc == 2
    # table provider without table
    rc = main(["solve", "--method", "spectral-feasible", "--provider",
               "table", "--steps", "1", "--out", out])
    assert rc == 2


def test_solve_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "nonsense", "--steps", "1",
              "--out", "x.csv"])
    assert exc.value.code == 2


def test_offline_and_table_info_roundtrip(tmp_path, capsys):
    table = tmp_path / "t.bin"
    rc = main(["offline", "--delta", "10", "--m", "2", "--out", str(table)])
    assert rc == 0
    assert "2 families" in capsys.readouterr().out
    rc = main(["table-info", "--table", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta = 10" in out
    assert "m = 2" in out
    assert "families: A1, B1\n" in out


def test_table_info_rejects_version_1(tmp_path, capsys):
    table = tmp_path / "t.bin"
    assert main(["offline", "--delta", "10", "--m", "2", "--out",
                 str(table)]) == 0
    blob = bytearray(table.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    table.write_bytes(bytes(blob))
    assert main(["table-info", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert "version 1" in err and "spectral-vms offline" in err


def test_table_info_missing_file():
    assert main(["table-info", "--table", "/nonexistent/t.bin"]) == 2


def test_solve_with_table_provider(tmp_path):
    table = tmp_path / "t.bin"
    assert main(["offline", "--delta", "0.5", "--m", "40", "--out",
                 str(table)]) == 0
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--method", "spectral-feasible", "--a", "300",
               "--mu", "1", "--h", "0.02", "--dt", "0.01", "--steps", "2",
               "--provider", "table", "--table", str(table),
               "--out", str(out)])
    assert rc == 0
    assert out.exists()


def test_solve_ic_file(tmp_path):
    ic = tmp_path / "ic.txt"
    np.savetxt(ic, np.linspace(0.0, 1.0, 5))
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--method", "galerkin", "--h", "0.25", "--dt",
               "0.1", "--steps", "1", "--ic", "file", "--ic-file",
               str(ic), "--out", str(out)])
    assert rc == 0
    # wrong length rejected
    np.savetxt(ic, np.ones(3))
    rc = main(["solve", "--method", "galerkin", "--h", "0.25", "--dt",
               "0.1", "--steps", "1", "--ic", "file", "--ic-file",
               str(ic), "--out", str(out)])
    assert rc == 2


def test_compare_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = ["compare", "--preset", "test3-a", "--refine", "16"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    report = (out1 / "report.csv").read_text()
    lines = report.strip().splitlines()
    assert lines[0] == "method,linf_l2,l2_h1"
    assert len(lines) == 7  # 6 methods
    assert report == (out2 / "report.csv").read_text()
    assert (out1 / "solutions.csv").read_text() \
        == (out2 / "solutions.csv").read_text()


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "galerkin", "h": 0.5,
                               "dt": 0.1, "steps": 1, "a": 0.0,
                               "out": str(tmp_path / "from_config.csv")}))
    rc = main(["solve", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_config.csv").exists()
    # explicit flag beats the config value
    rc = main(["solve", "--config", str(cfg), "--out",
               str(tmp_path / "override.csv")])
    assert rc == 0
    assert (tmp_path / "override.csv").exists()


@pytest.mark.parametrize("flag", [["--config={cfg}"], ["--conf", "{cfg}"]])
def test_config_file_read_in_every_argparse_spelling(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    cfg.write_text(json.dumps({"method": "galerkin", "h": 0.5, "dt": 0.1,
                               "steps": 1, "a": 0.0, "out": str(out)}))
    assert main(["solve"] + [f.format(cfg=cfg) for f in flag]) == 0
    assert out.exists()


def test_config_file_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert main(["solve", "--config", str(cfg)]) == 2


def test_config_flag_without_file_exits_2(capsys):
    assert main(["solve", "--config"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_convergence_writes_studies(tmp_path, capsys, monkeypatch):
    import spectral_vms.cli as cli

    monkeypatch.setattr(
        cli, "time_convergence_study",
        lambda: [{"dt": d, "linf_l2": 2 * d, "l2_h1": 3 * d}
                 for d in (0.01, 0.005, 0.0025)])
    monkeypatch.setattr(
        cli, "mesh_independence_study",
        lambda: [{"h": h, "linf_l2": 1.0, "l2_h1": 2.0}
                 for h in (0.0125, 0.00625)])
    out = tmp_path / "studies"
    assert main(["convergence", "--preset", "test1", "--out", str(out)]) == 0
    dt_lines = (out / "dt_study.csv").read_text().strip().splitlines()
    assert dt_lines[0] == "dt,linf_l2,l2_h1"
    assert len(dt_lines) == 4
    h_lines = (out / "h_study.csv").read_text().strip().splitlines()
    assert h_lines[0] == "h,linf_l2,l2_h1"
    printed = capsys.readouterr().out
    assert "slope" in printed


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import spectral_vms.cli as cli
    from spectral_vms.mesh_fem import SingularSystemError

    def boom(*args, **kwargs):
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(cli, "run_method", boom)
    rc = main(["solve", "--method", "galerkin", "--h", "0.5", "--dt",
               "0.1", "--steps", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3

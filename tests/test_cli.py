import hashlib
import importlib
import json
import pathlib
import shlex
import struct
import warnings

import numpy as np
import pytest

from spectral_vms import table as table_mod
from spectral_vms.analysis import METHODS
from spectral_vms.cli import build_parser, main


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


@pytest.mark.parametrize("t_final, dt, steps", [("0.0105", "0.001", None),
                                                 ("1e300", "1e-300", None),
                                                 ("0.01", "0.001", "10")])
def test_solve_t_final_must_be_a_multiple_of_dt(tmp_path, capsys, t_final,
                                                dt, steps):
    out = tmp_path / "x.csv"
    rc = main(["solve", "--method", "galerkin", "--h", "0.5", "--dt", dt,
               "--t-final", t_final, "--out", str(out)])
    if steps is None:
        assert rc == 2
        assert "--t-final must be a multiple of --dt" \
            in capsys.readouterr().err
        assert not out.exists()
    else:
        assert rc == 0
        assert "(%s steps" % steps in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["--a=nan", "--a=inf", "--mu=nan",
                                 "--mu=inf", "--dt=nan"])
@pytest.mark.parametrize("method", METHODS)
def test_solve_non_finite_parameter_exits_2(tmp_path, capsys, method, bad):
    argv = ["solve", "--method", method, "--h", "0.25", "--steps", "2",
            "--modes", "4", "--out", str(tmp_path / "x.csv"), bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "non-finite" in err or "finite and positive" in err


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


def test_solve_with_a1_only_table_exits_2(tmp_path, capsys):
    table = tmp_path / "a1.bin"
    grid = table_mod.TableGrid(delta=0.5, m=3)
    table_mod.save_table(table_mod.KernelTable(
        grid=grid, values={"A1": np.ones((4, 3, 3))}), table)
    rc = main(["solve", "--method", "spectral-feasible", "--h", "0.5",
               "--dt", "0.1", "--steps", "1", "--provider", "table",
               "--table", str(table), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "holds families ['A1']" in capsys.readouterr().err


def test_table_with_nan_grid_exits_2(tmp_path, capsys):
    # a digest-valid file with delta = NaN: table-info printed
    # "delta = nan" and exited 0, and solve died with an IndexError
    table = tmp_path / "nan.bin"
    assert main(["offline", "--delta", "10", "--m", "2", "--out",
                 str(table)]) == 0
    blob = bytearray(table.read_bytes()[:-table_mod.DIGEST_SIZE])
    blob[8:16] = struct.pack("<d", float("nan"))
    table.write_bytes(bytes(blob) + hashlib.blake2b(
        blob, digest_size=table_mod.DIGEST_SIZE).digest())
    assert main(["table-info", "--table", str(table)]) == 2
    assert "bad grid" in capsys.readouterr().err
    rc = main(["solve", "--method", "spectral-feasible", "--h", "0.5",
               "--dt", "0.1", "--steps", "1", "--provider", "table",
               "--table", str(table), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "bad grid" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_offline_workers_below_one_exits_2(tmp_path, capsys, workers):
    table = tmp_path / "t.bin"
    assert main(["offline", "--delta", "10", "--m", "2", "--workers",
                 workers, "--out", str(table)]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not table.exists()


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


@pytest.mark.parametrize("method, module, stepper", [
    ("galerkin", "baselines", "step_galerkin"),
    ("spectral-full", "vms_full", "step_full"),
    ("spectral-feasible", "vms_feasible", "step_feasible")])
def test_solve_non_finite_ic_is_a_validation_error(tmp_path, capsys,
                                                   monkeypatch, method,
                                                   module, stepper):
    # a NaN in the file stops the run before its first step, with exit
    # code 2 instead of a numerical failure after the march
    steps = []
    mod = importlib.import_module("spectral_vms." + module)
    original = getattr(mod, stepper)

    def counting(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mod, stepper, counting)
    ic = tmp_path / "ic.txt"
    vals = np.linspace(0.0, 1.0, 5)
    vals[2] = np.nan
    np.savetxt(ic, vals)
    out = tmp_path / "sol.csv"
    rc = main(["solve", "--method", method, "--h", "0.25", "--dt", "0.1",
               "--steps", "3", "--modes", "4", "--ic", "file", "--ic-file",
               str(ic), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "numerical failure" not in err
    assert steps == []
    assert not out.exists()


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


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    flags = {"method": "galerkin", "h": 0.5, "dt": 0.1, "steps": 1,
             "a": 0.0}
    cfg.write_text(json.dumps(dict(flags, out=str(out))))
    assert main(["solve", "--config", str(cfg)]) == 0
    out.unlink()
    capsys.readouterr()
    # the same command without --config parses without the config's values
    assert main(["solve"]) == 2
    assert "--method" in capsys.readouterr().err
    argv = ["solve"] + [a for k, v in flags.items()
                        for a in ("--" + k, str(v))]
    assert main(argv) == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--config={cfg}"], ["--conf", "{cfg}"]])
def test_config_file_read_in_every_argparse_spelling(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    cfg.write_text(json.dumps({"method": "galerkin", "h": 0.5, "dt": 0.1,
                               "steps": 1, "a": 0.0, "out": str(out)}))
    assert main(["solve"] + [f.format(cfg=cfg) for f in flag]) == 0
    assert out.exists()


@pytest.mark.parametrize("config, key", [
    ({"steps": 2.5}, "steps"),  # was 2 steps of 0.0125, not of 0.01
    ({"bc": "bogus", "provider": "nope"}, "bc"),
    ({"provider": "nope"}, "provider"),
    ({"steps": True}, "steps"),
    ({"a": None}, "a"),
])
def test_config_values_pass_their_flags_checks(tmp_path, capsys, config,
                                               key):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config.csv"
    cfg.write_text(json.dumps(config))
    argv = ["solve", "--method", "galerkin", "--h", "0.5", "--dt", "0.01",
            "--out", str(out)]
    if "steps" not in config:
        argv += ["--steps", "2"]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config key %r: " % key)
    assert not out.exists()
    # the same values as flags are rejected by argparse
    flags = [a for k, v in config.items() if v is not None
             for a in ("--" + k, str(v))]
    if flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        assert not out.exists()


def test_config_rejects_keys_no_subcommand_has(tmp_path, capsys):
    # a misspelt key ran the flags' 2 steps and exited 0; a key of another
    # subcommand stays accepted, so one file serves several subcommands
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    argv = ["solve", "--method", "galerkin", "--h", "0.5", "--dt", "0.01",
            "--steps", "2", "--out", str(out), "--config", str(cfg)]
    cfg.write_text(json.dumps({"stepz": 3, "dtt": 0.5}))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: config key 'stepz': ")
    assert not out.exists()
    cfg.write_text(json.dumps({"preset": "test1", "refine": 4}))
    assert main(argv) == 0
    assert out.exists()


def test_config_list_option_takes_a_list_or_one_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    for methods in (["galerkin"], "galerkin"):
        out = tmp_path / str(len(methods))
        cfg.write_text(json.dumps({"methods": methods}))
        assert main(["compare", "--preset", "test1", "--refine", "4",
                     "--out", str(out), "--config", str(cfg)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["galerkin"]


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
    # the studies are test1's alone: there is no preset to choose
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--preset", "test1", "--out", str(out)])
    assert exc.value.code == 2
    assert main(["convergence", "--out", str(out)]) == 0
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


def _readme_commands():
    """Every spectral-vms command of README's "Command line" block, with
    backslash continuations joined, as argument lists."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in joined.splitlines()
            if line.startswith("spectral-vms ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "offline", "table-info", "solve", "compare", "convergence"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: spectral-vms %s"
                        % " ".join(argv))

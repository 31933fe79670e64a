import csv
import os

import numpy as np
import pytest

from strainlim import driver as dr


BASE = """\
dim = 1
domain = 0.0 1.0
cells = 32
model = prototype
q = 2.0
beta = 0.1
reg_n = 64
dt = 0.002
t_end = 0.02
scenario = gaussian-pluck
"""


def base_cfg(extra="", drop=()):
    lines = [ln for ln in BASE.splitlines() if ln.split("=")[0].strip() not in drop]
    return "\n".join(lines) + "\n" + extra


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# parsing


def test_parse_defaults():
    cfg = dr.parse_config(BASE)
    v = cfg.values
    assert v["dim"] == 1 and v["alpha"] == 1.0 and v["p"] == 2.0
    assert v["scheme"] == "midpoint" and v["seed"] == 0
    assert v["out_dir"] == "./out" and v["study"] is None
    assert v["reg_n"] == 64 and v["beta"] == 0.1


def test_parse_comments_and_blanks():
    cfg = dr.parse_config("# header\n\n" + BASE.replace(
        "cells = 32", "cells = 32   # mesh resolution"))
    assert cfg.values["cells"] == 32


def test_parse_reg_none():
    cfg = dr.parse_config(base_cfg().replace("reg_n = 64", "reg_n = none"))
    assert cfg.values["reg_n"] is None


def test_missing_required_key():
    with pytest.raises(dr.MissingKeyError, match="'dt'"):
        dr.parse_config(base_cfg(drop=("dt",)))


def test_missing_cells_mentions_dim():
    with pytest.raises(dr.MissingKeyError, match="'cells'"):
        dr.parse_config(base_cfg(drop=("cells",)))


def test_unknown_key_has_line_number():
    with pytest.raises(dr.UnknownKeyError, match=r"'width' at line 11"):
        dr.parse_config(base_cfg("width = 3\n"))


def test_duplicate_key_reports_both_lines():
    with pytest.raises(dr.DuplicateKeyError, match=r"line 11.*line 3"):
        dr.parse_config(base_cfg("cells = 16\n"))


def test_range_errors_carry_key_and_line():
    with pytest.raises(dr.RangeError, match=r"'alpha' at line 11"):
        dr.parse_config(base_cfg("alpha = -1.0\n"))
    with pytest.raises(dr.RangeError, match="'model'"):
        dr.parse_config(base_cfg().replace("model = prototype", "model = cubic"))
    with pytest.raises(dr.RangeError, match="'dim'"):
        dr.parse_config(base_cfg().replace("dim = 1", "dim = 3"))
    with pytest.raises(dr.RangeError, match="'scenario'"):
        dr.parse_config(base_cfg().replace("gaussian-pluck", "mystery"))
    with pytest.raises(dr.RangeError, match="expected a number"):
        dr.parse_config(base_cfg().replace("dt = 0.002", "dt = fast"))


def test_domain_length_must_match_dim():
    with pytest.raises(dr.RangeError, match="'domain'"):
        dr.parse_config(base_cfg().replace("domain = 0.0 1.0",
                                           "domain = 0.0 1.0 0.0 1.0"))


def test_cells_keys_are_dim_specific():
    with pytest.raises(dr.RangeError, match="'cells_x'"):
        dr.parse_config(base_cfg("cells_x = 8\n"))
    two_d = base_cfg().replace("dim = 1", "dim = 2").replace(
        "domain = 0.0 1.0", "domain = 0.0 1.0 0.0 1.0")
    with pytest.raises(dr.RangeError, match="'cells'"):
        dr.parse_config(two_d + "cells_x = 8\ncells_y = 8\n")
    with pytest.raises(dr.MissingKeyError, match="'cells_x'"):
        dr.parse_config(two_d.replace("cells = 32\n", ""))


def test_malformed_line_rejected():
    with pytest.raises(dr.ConfigError, match="line 1"):
        dr.parse_config("just words\n" + BASE)


def test_serialize_round_trip():
    text = base_cfg("study = regularization\nn_list = 4 16 64\n"
                    "levels = 0.004 0.002 0.001\ndelta_list = 0.001 1e-05\n"
                    "seed = 7\nout_dir = /tmp/x\n")
    cfg = dr.parse_config(text)
    again = dr.parse_config(cfg.serialize())
    assert again.values == cfg.values
    assert dr.parse_config(again.serialize()).values == cfg.values


# ---------------------------------------------------------------------------
# run command


def run_main(tmp_path, text, *sub):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return dr.main([*sub, str(path)])


def test_cmd_run_outputs(tmp_path):
    out = tmp_path / "out"
    code = run_main(tmp_path, base_cfg(f"out_dir = {out}\n"), "run")
    assert code == 0
    header, rows = read_csv(out / "energy.csv")
    assert header == ["t", "kinetic", "elastic", "dissipation_cum",
                      "external_cum", "balance_residual"]
    assert len(rows) == 11  # 10 steps + initial record
    header, rows = read_csv(out / "monitor.csv")
    assert header == ["t", "max_strain_expr", "margin", "max_eps", "max_stress"]
    assert len(rows) == 11
    for name in ("state_0.000000.csv", "state_0.020000.csv"):
        header, srows = read_csv(out / name)
        assert header == ["x", "u0", "v0", "eps0", "stress0"]
        assert len(srows) == 64  # two quadrature points per cell


def test_cmd_run_values_round_trip_exactly(tmp_path):
    out = tmp_path / "out"
    assert run_main(tmp_path, base_cfg(f"out_dir = {out}\n"), "run") == 0
    _, rows = read_csv(out / "energy.csv")
    ts = np.array([float(r[0]) for r in rows])
    assert ts[1] == 0.002 and ts[-1] == 0.02
    ke = np.array([float(r[1]) for r in rows])
    assert ke[0] == 0.0 and np.all(np.isfinite(ke))


def test_cmd_run_2d(tmp_path):
    out = tmp_path / "out2"
    text = ("dim = 2\ndomain = 0.0 1.0 0.0 1.0\ncells_x = 6\ncells_y = 6\n"
            "model = prototype\nbeta = 0.1\nreg_n = 16\ndt = 0.005\n"
            f"t_end = 0.01\nscenario = gaussian-pluck\nout_dir = {out}\n")
    assert run_main(tmp_path, text, "run") == 0
    header, rows = read_csv(out / "state_0.010000.csv")
    assert header == ["x", "y", "u0", "u1", "v0", "v1",
                      "eps0", "eps1", "eps2", "stress0", "stress1", "stress2"]
    assert len(rows) == 6 * 6 * 2 * 3  # three quadrature points per triangle


def test_cmd_run_safety_violation_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dr.sc, "safety_margin", lambda scen, space: -0.25)
    code = run_main(tmp_path, base_cfg(f"out_dir = {tmp_path / 'o'}\n"), "run")
    assert code == 1
    out = capsys.readouterr().out
    assert "safety strain condition" in out and "-0.25" in out
    assert not (tmp_path / "o").exists()


def test_cmd_run_blowup_exits_2(tmp_path, capsys):
    text = ("dim = 1\ndomain = 0.0 1.0\ncells = 64\nmodel = prototype\n"
            "beta = 1.0\nreg_n = none\nscheme = rk4\ndt = 0.01\nt_end = 0.05\n"
            f"scenario = gaussian-pluck\nout_dir = {tmp_path / 'b'}\n")
    assert run_main(tmp_path, text, "run") == 2
    assert "run failed" in capsys.readouterr().out


def test_cmd_run_explicit_overflow_exits_2(tmp_path, capsys):
    # an unregularized linear model with an RK4 step far beyond its
    # stability limit overflows instead of tripping the strain limit
    text = ("dim = 1\ndomain = 0.0 1.0\ncells = 64\nmodel = linear\n"
            "beta = 0.1\nreg_n = none\nscheme = rk4\ndt = 0.05\nt_end = 5\n"
            f"scenario = gaussian-pluck\nout_dir = {tmp_path / 'b'}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_main(tmp_path, text, "run") == 2
    out = capsys.readouterr().out
    assert "run failed: non-finite strain expression" in out
    assert "t=" in out and "worst qp #" in out


def test_cmd_sweep_explicit_overflow_exits_2(tmp_path, capsys):
    text = ("dim = 1\ndomain = 0.0 1.0\ncells = 64\nmodel = linear\n"
            "beta = 0.1\nreg_n = none\nscheme = rk4\ndt = 0.05\nt_end = 5\n"
            "scenario = gaussian-pluck\nstudy = stability\ndelta_list = 0.001 1e-05 1e-07\n"
            f"out_dir = {tmp_path / 'b'}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_main(tmp_path, text, "sweep") == 2
    assert "sweep failed: non-finite strain expression" in capsys.readouterr().out


@pytest.mark.parametrize("old,new,key,line", [
    ("t_end = 0.02", "t_end = inf", "t_end", 9),
    ("beta = 0.1", "beta = inf", "beta", 6),
    ("domain = 0.0 1.0", "domain = 0.0 inf", "domain", 2),
], ids=["t_end", "beta", "domain"])
def test_non_finite_number_exits_1(tmp_path, capsys, old, new, key, line):
    text = base_cfg(f"out_dir = {tmp_path / 'o'}\n").replace(old, new)
    with pytest.raises(dr.RangeError, match=rf"'{key}' at line {line}: .*finite"):
        dr.parse_config(text)
    assert run_main(tmp_path, text, "run") == 1
    assert f"'{key}' at line {line}" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_nan_safety_margin_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dr.sc, "safety_margin", lambda scen, space: float("nan"))
    assert run_main(tmp_path, base_cfg(f"out_dir = {tmp_path / 'o'}\n"), "run") == 1
    assert "safety strain condition" in capsys.readouterr().out


def test_cmd_run_bad_config_exits_1(tmp_path, capsys):
    assert run_main(tmp_path, base_cfg("width = 3\n"), "run") == 1
    assert "unknown key" in capsys.readouterr().out


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert dr.main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep command


def test_cmd_sweep_regularization(tmp_path):
    out = tmp_path / "s"
    text = base_cfg(f"out_dir = {out}\nstudy = regularization\n"
                    "n_list = 4 16 64 256\n", drop=("reg_n",))
    assert run_main(tmp_path, text, "sweep") == 0
    header, rows = read_csv(out / "report.csv")
    assert header == ["axis_value", "error_or_diff", "fitted_order"]
    assert [float(r[0]) for r in rows] == [16.0, 64.0, 256.0]
    diffs = [float(r[1]) for r in rows]
    assert diffs[0] > diffs[1] > diffs[2] > 0.0
    assert rows[0][2] == "" and rows[1][2] == ""
    assert float(rows[2][2]) < 0.0  # diffs shrink with n


def test_cmd_sweep_refinement_dt(tmp_path):
    out = tmp_path / "s"
    text = base_cfg(f"out_dir = {out}\nstudy = refinement-dt\n"
                    "levels = 0.004 0.002 0.001\n").replace(
                        "t_end = 0.02", "t_end = 0.04")
    assert run_main(tmp_path, text, "sweep") == 0
    _, rows = read_csv(out / "report.csv")
    assert len(rows) == 3 and float(rows[2][2]) > 1.0


def test_cmd_sweep_stability(tmp_path):
    out = tmp_path / "s"
    text = base_cfg(f"out_dir = {out}\nstudy = stability\n"
                    "delta_list = 0.001 1e-05 1e-07\n")
    assert run_main(tmp_path, text, "sweep") == 0
    _, rows = read_csv(out / "report.csv")
    assert len(rows) == 3
    growth = [float(r[1]) for r in rows]
    assert max(growth) / min(growth) < 1.2


def test_cmd_sweep_needs_study(tmp_path, capsys):
    assert run_main(tmp_path, base_cfg(), "sweep") == 1
    assert "study" in capsys.readouterr().out


def test_cmd_sweep_missing_list(tmp_path, capsys):
    assert run_main(tmp_path, base_cfg("study = stability\n"), "sweep") == 1
    assert "delta_list" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify command


def test_cmd_verify_passes(capsys):
    assert dr.main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)

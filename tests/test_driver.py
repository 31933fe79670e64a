import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import strainlim
from strainlim import diagnostics as dg
from strainlim import driver as dr

import reference_impl as ref


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
    for levels in ("0.004 0.0 0.001", "0.004 -0.002 0.001"):
        with pytest.raises(dr.RangeError, match=r"'levels' at line 12: entries must be > 0"):
            dr.parse_config(base_cfg(f"study = refinement-dt\nlevels = {levels}\n"))
    # refinement levels are cell counts: fractions are not truncated, and
    # one cell has no interior node
    for levels in ("4.7 8.2 16.9", "8 16 32.5", "0 8 16", "-4 8 16", "1 2 4"):
        with pytest.raises(dr.RangeError,
                           match=r"'levels' at line 12: must be >= 2 and whole"):
            dr.parse_config(base_cfg(f"study = refinement\nlevels = {levels}\n"))


@pytest.mark.parametrize("study, key, entries, rule", [
    ("regularization", "n_list", "4 64 16", "entries must be strictly increasing"),
    ("regularization", "n_list", "4 16 16", "entries must be strictly increasing"),
    ("stability", "delta_list", "0.001 1e-05 0.01", "entries must be strictly monotone"),
    ("refinement", "levels", "16 32 16", "entries must be strictly monotone"),
    ("refinement-dt", "levels", "2e-3 2e-3 1e-3", "entries must be strictly monotone"),
    ("refinement", "levels", "16 32", "needs at least 3 entries"),
    ("refinement-dt", "levels", "2e-3 1e-3", "needs at least 3 entries"),
    ("stability", "delta_list", "0.001 1e-05", "needs at least 3 entries"),
], ids=["n_list", "n_list-repeated", "delta_list", "refinement", "refinement-dt",
        "refinement-short", "refinement-dt-short", "delta_list-short"])
def test_study_lists_out_of_order_are_rejected_with_their_line(study, key, entries, rule):
    # rejected at parse: no mesh is built and no level runs
    with pytest.raises(dr.RangeError, match=rf"'{key}' at line 12: {rule}"):
        dr.parse_config(base_cfg(f"study = {study}\n{key} = {entries}\n"))


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


_TOKEN = hs.one_of(
    hs.floats().map(repr),
    hs.integers(-3, 300).map(str),
    hs.sampled_from(["none", "inf", "nan", "1e400", "0x10", "1_0", "prototype",
                     "linear", "rk4", "midpoint", "gaussian-pluck", "stability", "#", "="]),
    hs.text(max_size=6),
)
_KEY = hs.one_of(hs.sampled_from(sorted(dr._KEYS)), hs.text(max_size=8))
_LINE = hs.one_of(
    hs.tuples(_KEY, hs.lists(_TOKEN, max_size=5)).map(
        lambda kv: f"{kv[0]} = {' '.join(kv[1])}"),
    hs.text(max_size=20),
)


@settings(max_examples=300, deadline=None, database=None)
@given(hs.sets(hs.sampled_from(BASE.splitlines())), hs.lists(_LINE, max_size=8))
def test_parse_config_fails_only_with_config_errors(base_lines, lines):
    try:
        dr.parse_config("\n".join(sorted(base_lines) + lines))
    except dr.ConfigError:
        pass


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


def test_cmd_run_makes_one_snapshot_per_record(tmp_path, monkeypatch):
    # the t=0 record is the snapshot that the elastic-energy check made;
    # the 10 steps of 64 points are one block, whose records come from one
    # snapshot of the block
    made = []
    real = dg.energy_snapshot

    def snapshot(state, *args):
        made.append(state.t)
        return real(state, *args)

    monkeypatch.setattr(dg, "energy_snapshot", snapshot)
    out = tmp_path / "out"
    assert run_main(tmp_path, base_cfg(f"out_dir = {out}\n"), "run") == 0
    _, rows = read_csv(out / "energy.csv")
    assert len(rows) == 11
    assert made == [[0.0], [float(r[0]) for r in rows[1:]]]


def test_cmd_run_evaluates_the_initial_state_once(tmp_path, monkeypatch):
    # run starts from the t=0 State that the elastic-energy check evaluated
    seen = []
    real = dr.dy.evaluate_fields

    def evaluate(scenario, space, t, *args):
        seen.append(t)
        return real(scenario, space, t, *args)

    monkeypatch.setattr(dr.dy, "evaluate_fields", evaluate)
    assert run_main(tmp_path, base_cfg(f"out_dir = {tmp_path / 'out'}\n"), "run") == 0
    # and evaluates the fields of its 10 steps, one block, in one call
    assert seen.count(0.0) == 1 and len(seen) == 2


def test_cmd_run_wave_evaluates_the_forcing_in_blocks(tmp_path, monkeypatch):
    # the wave1d-mid benchmark run: 600 midpoint steps, each with its
    # forcing at t_mid and its ledger record at the step's end, take one
    # forcing call per 4 steps (8 times of 512 points), plus one at t=0
    calls = []
    real = dr.sc.stress_divergence

    def divergence(model, u_exact, t, X):
        calls.append(np.unique(t))
        return real(model, u_exact, t, X)

    monkeypatch.setattr(dr.sc, "stress_divergence", divergence)
    text = base_cfg("cells = 256\nreg_n = 16\ndt = 1e-3\nt_end = 0.6\n"
                    f"scenario = manufactured:standing-wave\nout_dir = {tmp_path / 'out'}\n",
                    drop=("cells", "reg_n", "dt", "t_end", "scenario"))
    assert run_main(tmp_path, text, "run") == 0
    assert len(calls) <= 151
    assert sum(len(ts) for ts in calls) == 1 + 2 * 600


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


@pytest.mark.parametrize("key,text,line", [
    ("cells", "dim = 1\ndomain = 0.0 1.0\ncells = 1\n", 3),
    ("cells_x", "dim = 2\ndomain = 0.0 1.0 0.0 1.0\ncells_x = 1\ncells_y = 4\n", 3),
    ("cells_y", "dim = 2\ndomain = 0.0 1.0 0.0 1.0\ncells_x = 4\ncells_y = 1\n", 4),
], ids=["cells", "cells_x", "cells_y"])
def test_one_cell_is_rejected_with_its_line(tmp_path, capsys, monkeypatch, key, text, line):
    # one cell leaves every node on the boundary, so a run would have no
    # unknowns: the config exits 1 before any mesh is built
    monkeypatch.setattr(dr.fe, "box_mesh", lambda *a: pytest.fail("a mesh was built"))
    out = tmp_path / "out"
    text += (f"model = prototype\nbeta = 0.1\nreg_n = 16\ndt = 0.005\nt_end = 0.02\n"
             f"scenario = gaussian-pluck\nout_dir = {out}\n")
    assert run_main(tmp_path, text, "run") == 1
    assert f"key {key!r} at line {line}: must be >= 2" in capsys.readouterr().out
    assert not out.exists()


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
    assert run_main(tmp_path, text, "run") == 2
    out = capsys.readouterr().out
    assert "run failed: non-finite strain expression" in out
    assert "t=" in out and "worst qp #" in out


def test_cmd_run_block_failure_names_its_row(tmp_path, capsys, monkeypatch):
    # the third state of a block of end-of-step fields made supercritical:
    # the run exits 2 and names that state's time
    real = dr.dy.evaluate_fields

    def evaluate(scenario, space, t, U, V, *args):
        if isinstance(t, list):
            U = U.copy()
            U[2, space.ndof // 2] = 1.0
        return real(scenario, space, t, U, V, *args)

    monkeypatch.setattr(dr.dy, "evaluate_fields", evaluate)
    text = base_cfg(f"out_dir = {tmp_path / 'o'}\n").replace("reg_n = 64", "reg_n = none")
    assert run_main(tmp_path, text, "run") == 2
    out, err = capsys.readouterr()
    assert out.startswith("run failed: no regularizer and strain magnitude")
    assert "[t=0.006, worst qp #" in out and err == ""


def test_cmd_sweep_explicit_overflow_exits_2(tmp_path, capsys):
    text = ("dim = 1\ndomain = 0.0 1.0\ncells = 64\nmodel = linear\n"
            "beta = 0.1\nreg_n = none\nscheme = rk4\ndt = 0.05\nt_end = 5\n"
            "scenario = gaussian-pluck\nstudy = stability\ndelta_list = 0.001 1e-05 1e-07\n"
            f"out_dir = {tmp_path / 'b'}\n")
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


T_DT = "'t_end' at line 9 and 'dt' at line 8"
# a refinement-dt study's reference run steps at min(levels) / 4
LEVELS = "scenario = gaussian-pluck\nstudy = refinement-dt\nlevels = 0.01 0.005 "


@pytest.mark.parametrize("old,new,keys", [
    ("dt = 0.002", "dt = 1e-300", T_DT),
    ("t_end = 0.02", "t_end = 1e300", T_DT),
    ("dt = 0.002", "dt = 1.9999999e-9", T_DT),
    ("scenario = gaussian-pluck", LEVELS + "1e-300", "'levels' at line 12 and 't_end' at line 9"),
    ("scenario = gaussian-pluck", LEVELS + "7.9999999e-9",
     "'levels' at line 12 and 't_end' at line 9"),
], ids=["tiny-dt", "huge-t_end", "just-over", "tiny-level", "level-just-over"])
def test_step_count_bound_exits_1(tmp_path, capsys, old, new, keys):
    # a run that could never end is refused before anything runs
    text = base_cfg(f"out_dir = {tmp_path / 'o'}\n").replace(old, new)
    with pytest.raises(dr.RangeError, match=rf"{keys}: .*maximum of {dr.MAX_STEPS}"):
        dr.parse_config(text)
    assert run_main(tmp_path, text, "sweep" if "study" in new else "run") == 1
    assert keys in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_step_count_at_the_bound_parses():
    cfg = dr.parse_config(base_cfg().replace("dt = 0.002", "dt = 2e-9"))
    assert cfg.values["t_end"] / cfg.values["dt"] <= dr.MAX_STEPS
    cfg = dr.parse_config(base_cfg("study = refinement-dt\nlevels = 0.004 0.002 8e-9\n"))
    assert cfg.values["t_end"] / (min(cfg.values["levels"]) / 4) <= dr.MAX_STEPS


TWO_D = ("dim = 2\ndomain = 0.0 1.0 0.0 1.0\ncells_x = {nx}\ncells_y = {ny}\n"
         "model = prototype\nbeta = 0.1\nreg_n = 16\ndt = 0.01\nt_end = 0.02\n"
         "scenario = gaussian-pluck\n")


@pytest.mark.parametrize("text,keys", [
    (base_cfg().replace("cells = 32", "cells = 10000000000000"), "key 'cells' at line 3"),
    (TWO_D.format(nx=2048, ny=1024), "keys 'cells_x' at line 3 and 'cells_y' at line 4"),
    (base_cfg("study = refinement\nlevels = 64 128 1048577\n"), "key 'levels' at line 12"),
    (TWO_D.format(nx=8, ny=8) + "study = refinement\nlevels = 256 512 1025\n",
     "key 'levels' at line 12"),
    (TWO_D.format(nx=8, ny=8) + "study = refinement\nlevels = 8 16 1e300\n",
     "key 'levels' at line 12"),
], ids=["1d-1e13", "2d-product", "1d-level", "2d-level", "2d-level-1e300"])
def test_cell_count_bound_exits_1(tmp_path, capsys, text, keys):
    # a mesh too large to build is refused before any mesh is built
    text += f"out_dir = {tmp_path / 'o'}\n"
    with pytest.raises(dr.RangeError, match=rf"{keys}: .*maximum of {dr.MAX_CELLS}"):
        dr.parse_config(text)
    assert run_main(tmp_path, text, "sweep" if "study" in text else "run") == 1
    out, err = capsys.readouterr()
    assert keys in out and err == ""
    assert not (tmp_path / "o").exists()


def test_cell_count_at_the_bound_parses():
    assert dr.MAX_CELLS == 2 ** 20
    dr.parse_config(base_cfg().replace("cells = 32", f"cells = {dr.MAX_CELLS}"))
    dr.parse_config(TWO_D.format(nx=1024, ny=1024))
    dr.parse_config(base_cfg(f"study = refinement\nlevels = 64 128 {dr.MAX_CELLS}\n"))
    dr.parse_config(TWO_D.format(nx=8, ny=8) + "study = refinement\nlevels = 256 512 1024\n")


@pytest.mark.parametrize("domain", ["0.0 1e300", "0.0 1e-300"], ids=["huge", "tiny"])
def test_huge_domain_pluck_exits_1(tmp_path, capsys, domain):
    # the unit bump's strain underflows to 0 on a 1e300-wide domain, and its
    # square overflows on a 1e-300-wide one
    text = base_cfg(f"out_dir = {tmp_path / 'o'}\n").replace(
        "domain = 0.0 1.0", f"domain = {domain}")
    assert run_main(tmp_path, text, "run") == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid configuration: domain") and "no resolvable strain" in out
    assert err == ""
    assert not (tmp_path / "o").exists()


# the base pluck on 8 cells with 5 midpoint steps of 0.01
SMALL = ("cells = 8\nmodel = prototype\nq = 2.0\nreg_n = 64\nscheme = midpoint\n"
         "dt = 0.01\nt_end = 0.05\nscenario = gaussian-pluck\n")


def test_subnormal_cell_width_exits_1(tmp_path, capsys):
    # eight cells of a 1e-308-wide domain are 1.25e-309 wide, a sub-normal
    # number whose inverse overflows
    text = f"dim = 1\ndomain = 0.0 1e-308\n{SMALL}out_dir = {tmp_path / 'o'}\n"
    assert run_main(tmp_path, text, "run") == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid configuration: cell width") and "1.25e-309" in out
    assert err == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,extra", [
    ("run", ""), ("sweep", "study = stability\ndelta_list = 0.001 1e-05 1e-07\n"),
], ids=["run", "sweep"])
def test_infinite_initial_elastic_energy_exits_1(tmp_path, capsys, command, extra):
    # alpha = 1e-300 scales the pluck's strain up to about 1e300, whose
    # square overflows: the initial data have no finite elastic energy
    text = (f"dim = 1\ndomain = 0.0 1.0\n{SMALL}alpha = 1e-300\n{extra}"
            f"out_dir = {tmp_path / 'o'}\n")
    assert run_main(tmp_path, text, command) == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid configuration: initial data have elastic energy inf")
    assert err == ""
    assert not (tmp_path / "o").exists()


def test_initial_state_runtime_failure_still_exits_2(tmp_path, capsys):
    # the elastic-energy check meets the t=0 failure first and leaves it to
    # the run, which reports it as a runtime failure: alpha = 1e300 times the
    # constant strain 0.3 has a norm that overflows
    text = (f"dim = 1\ndomain = 0.0 1.0\n{SMALL}alpha = 1e300\nout_dir = {tmp_path / 'o'}\n"
            ).replace("model = prototype", "model = linear").replace(
                "gaussian-pluck", "manufactured:constant-strain")
    assert run_main(tmp_path, text, "run") == 2
    out, err = capsys.readouterr()
    assert out.startswith("run failed: non-finite strain expression [t=0,")
    assert err == ""


@pytest.mark.parametrize("model", ["model = prototype", "model = powerlaw\np = 3",
                                   "model = linear"], ids=["prototype", "powerlaw", "linear"])
def test_overflowing_manufactured_strain_exits_1(tmp_path, capsys, model):
    # beta = 1e300 times the standing wave's strain rate has a norm that
    # overflows: the exact solution has no finite strain expression, for
    # bounded and unbounded models alike
    text = (f"dim = 1\ndomain = 0.0 1.0\n{SMALL}beta = 1e300\nout_dir = {tmp_path / 'o'}\n"
            ).replace("model = prototype", model).replace(
                "gaussian-pluck", "manufactured:standing-wave")
    assert run_main(tmp_path, text, "run") == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid configuration: exact strain expression is not finite")
    assert err == ""
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


def test_module_entry_point_keeps_stderr_clean(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "strainlim.driver", "run", str(tmp_path / "nope.cfg")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "cannot read config" in proc.stdout


def test_singular_midpoint_jacobian_exits_2_naming_the_time(tmp_path):
    # 0.5*dt*(beta + 0.5*dt*alpha) overflows to inf, so SuperLU finds the
    # Jacobian singular; that is a failed step, not a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(dr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("dim = 1\ndomain = 0 0.00763\ncells = 3\nmodel = powerlaw\np = 3.77\n"
                   "alpha = 1.39e-6\nbeta = 1e308\nreg_n = none\nscheme = midpoint\n"
                   "dt = 26.2\nt_end = 78.6\nscenario = near-limit\n"
                   f"out_dir = {tmp_path / 'o'}\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "strainlim.driver", "run", str(cfg)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout.startswith("run failed: midpoint Jacobian cannot be factored at t=0 ")
    assert proc.stderr == ""


def test_blowup_past_the_strain_recorder_keeps_stderr_clean(tmp_path):
    # the state before the non-finite one overflows the monitor's squared
    # norms; with warnings as errors the run still exits 2 with its message
    src = os.path.dirname(os.path.dirname(os.path.abspath(dr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("dim = 1\ndomain = 0.0 1.0\ncells = 64\nmodel = prototype\nq = 2\n"
                   "reg_n = 16\nscheme = rk4\ndt = 2e-4\nt_end = 0.01\n"
                   f"scenario = gaussian-pluck\nout_dir = {tmp_path / 'o'}\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "strainlim.driver", "run", str(cfg)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout.startswith("run failed: non-finite strain expression [t=0.0045, ")
    assert proc.stderr == ""


def test_package_resolves_submodules_by_attribute():
    for name in strainlim.__all__:
        assert getattr(strainlim, name).__name__ == f"strainlim.{name}"
    with pytest.raises(AttributeError):
        strainlim.no_such_module


# ---------------------------------------------------------------------------
# CSV output


# values whose text differs most between formatters
SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5, 5e-324, 0.1, -1.5e300]


def test_write_csv_matches_csv_module_bytes(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * dr._CSV_BLOCK + 7                    # three blocks, the last one short
    rows = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-300, 300, (n, 6))
    rows[:len(SPECIAL), 0] = SPECIAL
    rows[-len(SPECIAL):, -1] = SPECIAL
    rows[dr._CSV_BLOCK - 1:dr._CSV_BLOCK + 1] = np.nan
    header = [f"c{i}" for i in range(6)]
    for name, data in (("full", rows), ("empty", rows[:0])):
        dr._write_csv(tmp_path / f"{name}.csv", header, data)
        ref.write_csv(tmp_path / f"{name}_ref.csv", header, data)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_ref.csv").read_bytes()
    table = {"t": np.arange(5), "x": np.array(SPECIAL[:5]), "y": SPECIAL[5:]}
    dr._write_table(tmp_path / "table.csv", table)
    ref.write_table(tmp_path / "table_ref.csv", table)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "table_ref.csv").read_bytes()


@pytest.mark.parametrize("order", [None, -0.9011552836414464, float("nan"), -0.0])
@pytest.mark.parametrize("n", [1, 3])
def test_report_csv_keeps_blank_cells(tmp_path, order, n):
    report = dg.ConvergenceReport(axis=[16, 64, 256][:n],
                                  values=[1e-3, 3.3e-4, 8.98e-5][:n], fitted_order=order)
    header = ["axis_value", "error_or_diff", "fitted_order"]
    dr._write_csv(tmp_path / "report.csv", header, dr._report_rows(report))
    ref.write_csv(tmp_path / "report_ref.csv", header, ref.report_rows(report))
    text = (tmp_path / "report.csv").read_bytes()
    assert text == (tmp_path / "report_ref.csv").read_bytes()
    # a fitted order that is not finite is left blank, like a missing one
    assert text.endswith(b",\r\n") == (order is None or np.isnan(order))


def test_block_size_leaves_the_outputs_unchanged(tmp_path, monkeypatch):
    # a standing-wave run and a regularization sweep of 10 steps on 32
    # quadrature points, midpoint and RK4: blocks of 1 step, of 7 steps and
    # one block per run write the same bytes
    for scheme in ("midpoint", "rk4"):
        run_text = base_cfg(f"cells = 16\nscenario = manufactured:standing-wave\n"
                            f"scheme = {scheme}\n", drop=("cells", "scenario"))
        sweep_text = base_cfg(f"cells = 16\nstudy = regularization\nn_list = 4 16 64\n"
                              f"scheme = {scheme}\n", drop=("cells", "reg_n"))
        outputs = []
        for steps in (1, 7, 10):
            monkeypatch.setattr(dr.dy, "BLOCK_POINTS", steps * 32)
            files = {}
            for command, text in (("run", run_text), ("sweep", sweep_text)):
                out = tmp_path / f"{scheme}-{command}-{steps}"
                assert run_main(tmp_path, text + f"out_dir = {out}\n", command) == 0
                files.update({(command, p.name): p.read_bytes() for p in out.iterdir()})
            outputs.append(files)
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2], scheme


@pytest.mark.parametrize("command,extra", [
    ("run", ""), ("sweep", "study = regularization\nn_list = 4 16 64\n")], ids=["run", "sweep"])
def test_unwritable_out_dir_exits_1_before_stepping(tmp_path, capsys, monkeypatch,
                                                    command, extra):
    runs = []
    monkeypatch.setattr(dr.dy, "run", lambda *args, **kw: runs.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    text = base_cfg(extra + f"out_dir = {blocker / 'x'}\n", drop=("reg_n",) if extra else ())
    assert run_main(tmp_path, text, command) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("cannot write output: ") and captured.err == ""
    assert runs == []


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


def test_cmd_sweep_exact_levels_leave_the_order_blank(tmp_path):
    # constant strain is reproduced exactly at every dt: the errors are 0,
    # their fitted order is nan, and the report leaves that cell empty
    out = tmp_path / "s"
    text = base_cfg(f"out_dir = {out}\nstudy = refinement-dt\nlevels = 0.02 0.01 0.005\n"
                    "cells = 8\nscenario = manufactured:constant-strain\n",
                    drop=("cells", "scenario"))
    assert run_main(tmp_path, text, "sweep") == 0
    _, rows = read_csv(out / "report.csv")
    assert [r[1:] for r in rows] == [["0.0", ""]] * 3


def test_cmd_sweep_refinement_dt_2d_steps_on_the_configured_mesh(tmp_path, capsys,
                                                                 monkeypatch):
    # a 4 x 12 config steps every level on its own 4 x 12 mesh (96 triangles)
    elems = []
    real = dg.dyn.run

    def spy(scenario, space, config, **kw):
        elems.append(space.mesh.n_elems)
        return real(scenario, space, config, **kw)

    monkeypatch.setattr(dg.dyn, "run", spy)
    out = tmp_path / "s"
    text = TWO_D.format(nx=4, ny=12) + (f"out_dir = {out}\nstudy = refinement-dt\n"
                                        "levels = 0.01 0.005 0.0025\n")
    assert run_main(tmp_path, text, "sweep") == 0
    assert elems == [96] * 4
    assert "elements = 96" in capsys.readouterr().out
    _, rows = read_csv(out / "report.csv")
    assert len(rows) == 3


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
    for study, key in (("regularization", "n_list"), ("refinement", "levels"),
                       ("refinement-dt", "levels"), ("stability", "delta_list")):
        text = base_cfg(f"study = {study}\nout_dir = {tmp_path / 'o'}\n")
        assert run_main(tmp_path, text, "sweep") == 1
        assert f"{key!r} is required for the {study} study" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# verify command


def test_cmd_verify_passes(capsys):
    assert dr.main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)


@pytest.mark.parametrize("group,key,value,name", [
    ("constitutive_suite", "round", 1e-9, "constitutive round-trip"),
    ("constitutive_suite", "fenchel", float("nan"), "Fenchel residual"),
    ("constitutive_suite", "bound", False, "Jacobian"),
    ("lift_recipes", "identity", 1e-9, "lift recipes"),
], ids=["round-trip", "fenchel-nan", "norm-bound", "lifts"])
def test_cmd_verify_failure_exits_3(capsys, monkeypatch, group, key, value, name):
    real = getattr(dr.checks, group)
    monkeypatch.setattr(dr.checks, group, lambda rng, n: {**real(rng, n), key: value})
    assert dr.main(["verify"]) == 3
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    failed = [ln for ln in lines if not ln.startswith("PASS")]
    assert len(lines) == 4 and len(failed) == 1
    assert failed[0].startswith(f"FAIL {name}: ")

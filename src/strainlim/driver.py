"""Command-line front end: config parsing, runs, sweeps, verification.

Configs are line-oriented ``key = value`` text with ``#`` comments.  All
keys are validated up front with deterministic, line-numbered errors;
unknown keys are rejected so typos cannot silently fall back to
defaults.  Outputs are plain CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from . import constitutive as con
from . import diagnostics as dg
from . import dynamics as dy
from . import fespace as fe
from . import scenarios as sc


class ConfigError(ValueError):
    pass


class MissingKeyError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class DuplicateKeyError(ConfigError):
    pass


class RangeError(ConfigError):
    pass


MODELS = ("prototype", "powerlaw", "linear")
# most time steps one run may take, ceil(t_end / dt); a config asking for
# more is rejected before anything runs
MAX_STEPS = 10_000_000
# most mesh cells one space may have (2^20, 256 times the 64x64 pluck),
# counted over the config's cell keys and over each refinement level; a
# config asking for more is rejected before any mesh is built
MAX_CELLS = 2 ** 20
# each study, and the key of the list of levels it reads
STUDIES = {"regularization": "n_list", "refinement": "levels", "refinement-dt": "levels",
           "stability": "delta_list"}

# failures of a run that started from a valid config: exit code 2
RUNTIME_ERRORS = (con.SupercriticalStrainError, con.NewtonConvergenceError,
                  dy.MidpointNoConvergence, dy.NonFiniteStrainError)


def _parse_int(s):
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"expected an integer, got {s!r}")


def _parse_float(s):
    try:
        x = float(s)
    except ValueError:
        raise ValueError(f"expected a number, got {s!r}")
    if not np.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_floats(s):
    return tuple(_parse_float(tok) for tok in s.split())


def _parse_ints(s):
    return tuple(_parse_int(tok) for tok in s.split())


def _parse_reg(s):
    return None if s == "none" else _parse_int(s)


# key -> (parser, default); _REQUIRED means the key must appear
_REQUIRED = object()
_KEYS = {
    "dim": (_parse_int, 1),
    "domain": (_parse_floats, _REQUIRED),
    "cells": (_parse_int, None),
    "cells_x": (_parse_int, None),
    "cells_y": (_parse_int, None),
    "model": (str, _REQUIRED),
    "q": (_parse_float, 2.0),
    "p": (_parse_float, 2.0),
    "alpha": (_parse_float, 1.0),
    "beta": (_parse_float, 1.0),
    "reg_n": (_parse_reg, 16),
    "scheme": (str, dy.SCHEME_MIDPOINT),
    "dt": (_parse_float, _REQUIRED),
    "t_end": (_parse_float, _REQUIRED),
    "scenario": (str, _REQUIRED),
    "seed": (_parse_int, 0),
    "out_dir": (str, "./out"),
    "study": (str, None),
    "n_list": (_parse_ints, None),
    "levels": (_parse_floats, None),
    "delta_list": (_parse_floats, None),
}


@dataclass
class RunConfig:
    """Validated key/value configuration for one CLI invocation."""

    values: dict

    def serialize(self):
        lines = []
        for key in _KEYS:
            v = self.values.get(key)
            if v is None and _KEYS[key][1] in (None, _REQUIRED):
                continue
            if isinstance(v, tuple):
                txt = " ".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                txt = repr(v)
            elif v is None:
                txt = "none"
            else:
                txt = str(v)
            lines.append(f"{key} = {txt}")
        return "\n".join(lines) + "\n"

    # -- builders ---------------------------------------------------------

    def build_model(self):
        """The config's model; both potentials are built, to check q and p."""
        v = self.values
        pots = {"prototype": con.PrototypePotential(v["q"]),
                "powerlaw": con.PowerLawPotential(v["p"]), "linear": con.LinearPotential()}
        return con.ConstitutiveModel(pots[v["model"]], alpha=v["alpha"], beta=v["beta"],
                                     reg_n=v["reg_n"])

    def build_space(self):
        v = self.values
        # parse_config admits only the cell keys of the config's dim
        cells = [v[k] for k in ("cells", "cells_x", "cells_y") if v[k] is not None]
        return fe.FESpace(fe.box_mesh(sc.canon_domain(v["dim"], v["domain"]), cells))

    def build_scenario(self):
        return sc.build_scenario(self.values["scenario"], self.values["dim"],
                                 self.values["domain"], self.build_model(),
                                 self.values["t_end"])

    def solver_config(self):
        return dy.SolverConfig(dt=self.values["dt"], t_end=self.values["t_end"],
                               scheme=self.values["scheme"])


def parse_config(text):
    """Parse and validate config text; raises ConfigError subclasses
    with the offending key and line number."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise UnknownKeyError(f"unknown key {key!r} at line {lineno}")
        if key in seen:
            raise DuplicateKeyError(
                f"duplicate key {key!r} at line {lineno} (first at line {seen[key][1]})")
        parser = _KEYS[key][0]
        try:
            parsed = parser(val)
        except ValueError as exc:
            raise RangeError(f"key {key!r} at line {lineno}: {exc}")
        seen[key] = (parsed, lineno)

    values = {}
    for key, (_, default) in _KEYS.items():
        if key in seen:
            values[key] = seen[key][0]
        elif default is _REQUIRED:
            raise MissingKeyError(f"missing required key {key!r}")
        else:
            values[key] = default

    def bad(key, msg):
        line = f" at line {seen[key][1]}" if key in seen else ""
        raise RangeError(f"key {key!r}{line}: {msg}")

    def bound(keys, what, count, limit, unit):
        if count > limit:
            where = " and ".join(f"{k!r} at line {seen[k][1]}" for k in keys)
            # an integer count may be too large for a float
            shown = float(count) if count < 1e308 else math.inf
            raise RangeError(f"key{'s' * (len(keys) > 1)} {where}: {what} = {shown:.3g} "
                             f"{unit}, more than the maximum of {limit}")

    dim, study = values["dim"], values["study"]
    if dim not in (1, 2):
        bad("dim", "must be 1 or 2")
    cell_keys = ("cells",) if dim == 1 else ("cells_x", "cells_y")
    for k in ("cells", "cells_x", "cells_y"):
        if k in cell_keys and values[k] is None:
            raise MissingKeyError(f"missing required key {k!r} (dim = {dim})")
        if k not in cell_keys and values[k] is not None:
            bad(k, f"not a key for dim = {dim} (use {' and '.join(map(repr, cell_keys))})")
    for key, names in (("model", MODELS), ("scenario", sc.SCENARIO_NAMES), ("study", STUDIES)):
        if values[key] is not None and values[key] not in names:
            bad(key, f"must be one of {', '.join(names)}")
    cfg = RunConfig(values=values)
    # the rules that the constructors and studies own, named by their keys
    list_key = STUDIES.get(study)
    levels = None if list_key is None else values[list_key]
    try:
        sc.canon_domain(dim, values["domain"])
        for k in cell_keys:
            fe.cell_count(k, values[k])
        cfg.build_model()
        cfg.solver_config()
        if levels is not None:
            if study == "refinement":
                for lv in levels:
                    fe.cell_count("levels", lv)
            dg.check_study_list(list_key, levels, increasing=list_key == "n_list")
    except con.FieldError as exc:
        bad(exc.field, exc.rule)
    bound(cell_keys, " * ".join(cell_keys), math.prod(values[k] for k in cell_keys),
          MAX_CELLS, "cells")
    bound(("t_end", "dt"), "t_end / dt", values["t_end"] / values["dt"], MAX_STEPS, "steps")
    if study == "refinement-dt" and levels is not None:
        # the levels are time steps, and the reference run steps at min(levels) / 4
        bound(("levels", "t_end"), "t_end / (min(levels) / 4)",
              4.0 * values["t_end"] / min(levels), MAX_STEPS, "steps")
    if study == "refinement" and levels is not None:
        # the levels are cell counts per direction of a square mesh
        bound(("levels",), f"max(levels) ** {dim}", int(max(levels)) ** dim, MAX_CELLS, "cells")
    return cfg


# ---------------------------------------------------------------------------
# CSV output


# rows formatted per write: few enough that the text held at once stays
# small next to the arrays it comes from
_CSV_BLOCK = 2048


# a cell left empty: the writer prints the repr of every cell
_BLANK = type("Blank", (), {"__repr__": lambda self: ""})()


def _write_csv(path, header, rows):
    """Write a header line and a 2-D array of floats: comma separated,
    \r\n line ends, each value as Python's shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(rows), _CSV_BLOCK):
            fh.write("".join([",".join(map(repr, row)) + "\r\n"
                              for row in rows[i:i + _CSV_BLOCK].tolist()]))


def _write_table(path, table):
    _write_csv(path, list(table), np.column_stack([np.asarray(c, dtype=float)
                                                   for c in table.values()]))


def _write_states(out, space, scenario, states):
    """One state_<t>.csv per State, the lift at all their times from one call."""
    d, m = space.dim, space.m
    qp = space.qp
    ts = np.array([state.t for state in states])
    header = (["x", "y"][:d]
              + [f"u{i}" for i in range(d)] + [f"v{i}" for i in range(d)]
              + [f"eps{i}" for i in range(m)] + [f"stress{i}" for i in range(m)])
    for state, u0, v0 in zip(states, scenario.lift.value(ts, qp), scenario.lift.dt_value(ts, qp)):
        rows = np.column_stack([qp, space.value_at_qp(state.U) + u0,
                                space.value_at_qp(state.V) + v0, state.eps, state.stress])
        _write_csv(os.path.join(out, f"state_{state.t:.6f}.csv"), header, rows)


# ---------------------------------------------------------------------------
# commands


def _prepare(cfg):
    """Build space and scenario, enforcing the safety margin and finite
    elastic energy of the initial data.

    Returns (space, scenario, start, ledger, None) on success, where
    start is the State at t=0 and ledger its energy record (both None
    when evaluating them failed; the run then fails the same way at t=0
    and reports it), or (None, None, None, None, exit_code) after
    printing the validation failure.
    """
    try:
        space = cfg.build_space()
        scenario = cfg.build_scenario()
    except ValueError as exc:
        print(f"invalid configuration: {exc}")
        return None, None, None, None, 1
    with np.errstate(over="ignore", invalid="ignore"):
        margin = sc.safety_margin(scenario, space)
        if not margin > 0.0:
            print(f"safety strain condition violated: margin = {margin:.6g} "
                  f"(strain expression of the data reaches the response limit)")
            return None, None, None, None, 1
        zero = np.zeros(space.ndof)
        try:
            start = dy.evaluate_fields(scenario, space, 0.0, zero, zero)
            ledger = dg.energy_snapshot(dy.block_of([start]), space, scenario)[0]
        except RUNTIME_ERRORS:
            return space, scenario, None, None, None
    if not np.isfinite(ledger.elastic):
        print(f"invalid configuration: initial data have elastic energy "
              f"{ledger.elastic:.6g}; a finite one is required")
        return None, None, None, None, 1
    return space, scenario, start, ledger, None


def cmd_run(cfg):
    space, scenario, start, ledger, code = _prepare(cfg)
    if code is not None:
        return code
    out = cfg.values["out_dir"]
    # the t=0 State and its record are the ones _prepare evaluated
    energy = dg.EnergyRecorder(scenario, space, ledger)
    monitor = dg.StrainRecorder(scenario)
    try:
        os.makedirs(out, exist_ok=True)
        final = dy.run(scenario, space, cfg.solver_config(),
                       observers=(energy, monitor), start=start)
        _write_table(os.path.join(out, "energy.csv"), energy.table())
        _write_table(os.path.join(out, "monitor.csv"), monitor.table())
        _write_states(out, space, scenario, (start, final))
    except OSError as exc:
        print(f"cannot write output: {exc}")
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"run failed: {exc}")
        return 2
    print(f"run complete: {len(energy.records)} records in {out}")
    return 0


def _report_rows(report):
    """(axis, value, fitted order) rows; only the last row has an order,
    and only a finite one."""
    rows = [[a, v, _BLANK] for a, v in zip(report.axis.tolist(), report.values.tolist())]
    if rows and report.fitted_order is not None and math.isfinite(report.fitted_order):
        rows[-1][2] = float(report.fitted_order)
    return np.array(rows, dtype=object)


def cmd_sweep(cfg):
    study = cfg.values["study"]
    if study is None:
        print("invalid configuration: key 'study' is required for sweep")
        return 1
    key = STUDIES[study]
    if cfg.values[key] is None:
        print(f"invalid configuration: {key!r} is required for the {study} study")
        return 1
    space, scenario, _, _, code = _prepare(cfg)
    if code is not None:
        return code
    out = cfg.values["out_dir"]
    path = os.path.join(out, "report.csv")
    solver = cfg.solver_config()
    levels = list(cfg.values[key])
    try:
        os.makedirs(out, exist_ok=True)
        if study == "regularization":
            report = dg.regularization_sweep(scenario, space, solver, levels)
        elif study == "refinement":
            report = dg.refinement_study(scenario, "h", levels, solver)
        elif study == "refinement-dt":
            report = dg.refinement_study(scenario, "dt", levels, solver, space=space)
        else:
            report = dg.stability_study(scenario, space, solver, levels,
                                        seed=cfg.values["seed"])
        _write_csv(path, ["axis_value", "error_or_diff", "fitted_order"],
                   _report_rows(report))
    except OSError as exc:
        print(f"cannot write output: {exc}")
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"sweep failed: {exc}")
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}")
        return 1
    print(f"{study} study complete: report in {path}")
    for k, v in sorted(report.extra.items()):
        if np.isscalar(v):
            print(f"  {k} = {v}")
    return 0


# ---------------------------------------------------------------------------
# verify


# random tensors per model and dimension, and lift points and times, that
# verify draws; acceptance criteria 01 and 03 draw 10,000 and 100
VERIFY_SAMPLES = 200


def cmd_verify():
    w = checks.constitutive_suite(np.random.default_rng(0), VERIFY_SAMPLES)
    lift = checks.lift_recipes(np.random.default_rng(0), VERIFY_SAMPLES)
    results = [
        ("constitutive round-trip", w["round"] <= 1e-10,
         f"max round-trip error {w['round']:.3e} (tol 1e-10)"),
        ("Fenchel residual", w["fenchel"] <= 1e-8,
         f"max Fenchel residual {w['fenchel']:.3e} (tol 1e-8)"),
        ("Jacobian", w["jac"] <= 1e-6 and w["bound"],
         f"max relative FD mismatch {w['jac']:.3e} (tol 1e-6), "
         f"operator norm bound held: {w['bound']}"),
        ("lift recipes", lift["data"] <= 1e-12 and lift["identity"] <= 1e-10,
         f"data mismatch {lift['data']:.3e} (tol 1e-12), "
         f"strain-expression drift {lift['identity']:.3e} (tol 1e-10)"),
    ]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 3


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="strainlim",
        description="Strain-limiting viscoelasticity simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("config", help="path to a key = value config file")
    p_sweep = sub.add_parser("sweep", help="run a parameter study")
    p_sweep.add_argument("config", help="path to a key = value config file")
    sub.add_parser("verify", help="run the built-in property suite")
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify()
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}")
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}")
        return 1
    if args.command == "run":
        return cmd_run(cfg)
    return cmd_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config parsing, runs, sweeps, verification.

Configs are line-oriented ``key = value`` text with ``#`` comments.  All
keys are validated up front with deterministic, line-numbered errors;
unknown keys are rejected so typos cannot silently fall back to
defaults.  Outputs are plain CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import constitutive as con
from . import diagnostics as dg
from . import dynamics as dy
from . import fespace as fe
from . import scenarios as sc
from . import symtensor as st


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
SCHEMES = (dy.SCHEME_RK4, dy.SCHEME_MIDPOINT)
STUDIES = ("regularization", "refinement", "refinement-dt", "stability")

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
    if s == "none":
        return None
    n = _parse_int(s)
    return n


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

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

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
        name = self.values["model"]
        if name == "prototype":
            pot = con.PrototypePotential(self.values["q"])
        elif name == "powerlaw":
            pot = con.PowerLawPotential(self.values["p"])
        else:
            pot = con.LinearPotential()
        return con.ConstitutiveModel(pot, alpha=self.values["alpha"],
                                     beta=self.values["beta"],
                                     reg_n=self.values["reg_n"])

    def build_space(self):
        dom = self.values["domain"]
        if self.values["dim"] == 1:
            mesh = fe.interval_mesh(dom[0], dom[1], self.values["cells"])
        else:
            mesh = fe.rectangle_mesh(dom[0], dom[1], dom[2], dom[3],
                                     self.values["cells_x"], self.values["cells_y"])
        return fe.FESpace(mesh)

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

    if values["dim"] not in (1, 2):
        bad("dim", "must be 1 or 2")
    dom = values["domain"]
    if len(dom) != 2 * values["dim"]:
        bad("domain", f"needs {2 * values['dim']} numbers for dim {values['dim']}")
    lo = np.asarray(dom).reshape(values["dim"], 2)
    if np.any(lo[:, 1] <= lo[:, 0]):
        bad("domain", "each axis needs lo < hi")
    if values["dim"] == 1:
        if values["cells"] is None:
            raise MissingKeyError("missing required key 'cells' (dim = 1)")
        if values["cells"] < 1:
            bad("cells", "must be >= 1")
        for k in ("cells_x", "cells_y"):
            if values[k] is not None:
                bad(k, "only valid for dim = 2 (use 'cells')")
    else:
        for k in ("cells_x", "cells_y"):
            if values[k] is None:
                raise MissingKeyError(f"missing required key {k!r} (dim = 2)")
            if values[k] < 1:
                bad(k, "must be >= 1")
        if values["cells"] is not None:
            bad("cells", "only valid for dim = 1 (use 'cells_x'/'cells_y')")
    if values["model"] not in MODELS:
        bad("model", f"must be one of {', '.join(MODELS)}")
    if values["q"] < 1.0:
        bad("q", "must be >= 1")
    if values["p"] <= 1.0:
        bad("p", "must be > 1")
    if not values["alpha"] > 0.0:
        bad("alpha", "must be > 0")
    if not values["beta"] > 0.0:
        bad("beta", "must be > 0")
    if values["reg_n"] is not None and values["reg_n"] < 1:
        bad("reg_n", "must be >= 1 or none")
    if values["scheme"] not in SCHEMES:
        bad("scheme", f"must be one of {', '.join(SCHEMES)}")
    if not values["dt"] > 0.0:
        bad("dt", "must be > 0")
    if not values["t_end"] >= 0.0:
        bad("t_end", "must be >= 0")
    if values["scenario"] not in sc.SCENARIO_NAMES:
        bad("scenario", f"must be one of {', '.join(sc.SCENARIO_NAMES)}")
    if values["study"] is not None and values["study"] not in STUDIES:
        bad("study", f"must be one of {', '.join(STUDIES)}")
    if values["n_list"] is not None and len(values["n_list"]) < 3:
        bad("n_list", "needs at least 3 entries")
    if values["delta_list"] is not None and any(d <= 0 for d in values["delta_list"]):
        bad("delta_list", "entries must be > 0")
    return RunConfig(values=values)


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_table(path, table):
    header = list(table.keys())
    cols = [table[k] for k in header]
    _write_csv(path, header, zip(*[np.asarray(c, dtype=float) for c in cols]))


def _write_state(path, space, scenario, state, fields):
    d, m = space.dim, space.m
    qp = space.qp
    u = space.value_at_qp(state.U) + scenario.lift.value(state.t, qp)
    v = space.value_at_qp(state.V) + scenario.lift.dt_value(state.t, qp)
    header = (["x", "y"][:d]
              + [f"u{i}" for i in range(d)] + [f"v{i}" for i in range(d)]
              + [f"eps{i}" for i in range(m)] + [f"stress{i}" for i in range(m)])
    rows = np.column_stack([qp, u, v, fields["eps"], fields["stress"]])
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# commands


def _prepare(cfg):
    """Build space and scenario, enforcing the safety margin.

    Returns (space, scenario, None) on success or (None, None, exit_code)
    after printing the validation failure.
    """
    try:
        space = cfg.build_space()
        scenario = cfg.build_scenario()
    except ValueError as exc:
        print(f"invalid configuration: {exc}")
        return None, None, 1
    margin = sc.safety_margin(scenario, space)
    if not margin > 0.0:
        print(f"safety strain condition violated: margin = {margin:.6g} "
              f"(strain expression of the data reaches the response limit)")
        return None, None, 1
    return space, scenario, None


def cmd_run(cfg):
    space, scenario, code = _prepare(cfg)
    if code is not None:
        return code
    out = cfg.values["out_dir"]
    os.makedirs(out, exist_ok=True)
    energy = dg.EnergyRecorder(scenario, space)
    monitor = dg.StrainRecorder(scenario, space)
    snaps = []

    def keep(state, fields):
        if not snaps:
            snaps.append((state, fields))

    try:
        final = dy.run(scenario, space, cfg.solver_config(),
                       observers=(energy, monitor, keep))
    except RUNTIME_ERRORS as exc:
        print(f"run failed: {exc}")
        return 2
    _write_table(os.path.join(out, "energy.csv"), energy.table())
    _write_table(os.path.join(out, "monitor.csv"), monitor.table())
    for state, fields in (snaps[0], final):
        _write_state(os.path.join(out, f"state_{state.t:.6f}.csv"),
                     space, scenario, state, fields)
    print(f"run complete: {len(energy.records)} records in {out}")
    return 0


def _report_rows(report):
    rows = []
    n = len(report.axis)
    for i in range(n):
        order = ""
        if i == n - 1 and report.fitted_order is not None:
            order = repr(float(report.fitted_order))
        rows.append([repr(float(report.axis[i])), repr(float(report.values[i])), order])
    return rows


def cmd_sweep(cfg):
    study = cfg.values["study"]
    if study is None:
        print("invalid configuration: key 'study' is required for sweep")
        return 1
    space, scenario, code = _prepare(cfg)
    if code is not None:
        return code
    out = cfg.values["out_dir"]
    os.makedirs(out, exist_ok=True)
    solver = cfg.solver_config()
    try:
        if study == "regularization":
            if cfg.values["n_list"] is None:
                print("invalid configuration: 'n_list' is required for the "
                      "regularization study")
                return 1
            report = dg.regularization_sweep(scenario, space, solver,
                                             list(cfg.values["n_list"]))
        elif study in ("refinement", "refinement-dt"):
            if cfg.values["levels"] is None:
                print(f"invalid configuration: 'levels' is required for the "
                      f"{study} study")
                return 1
            if study == "refinement":
                levels = [int(c) for c in cfg.values["levels"]]
                report = dg.refinement_study(scenario, "h", levels, solver)
            else:
                cells = cfg.values["cells"] if cfg.values["dim"] == 1 \
                    else cfg.values["cells_x"]
                report = dg.refinement_study(scenario, "dt",
                                             list(cfg.values["levels"]),
                                             solver, cells=cells)
        else:
            if cfg.values["delta_list"] is None:
                print("invalid configuration: 'delta_list' is required for the "
                      "stability study")
                return 1
            report = dg.stability_study(scenario, space, solver,
                                        list(cfg.values["delta_list"]),
                                        seed=cfg.values["seed"])
    except RUNTIME_ERRORS as exc:
        print(f"sweep failed: {exc}")
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}")
        return 1
    path = os.path.join(out, "report.csv")
    _write_csv(path, ["axis_value", "error_or_diff", "fitted_order"],
               _report_rows(report))
    print(f"{study} study complete: report in {path}")
    for k, v in sorted(report.extra.items()):
        if np.isscalar(v):
            print(f"  {k} = {v}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_roundtrip(rng):
    worst = 0.0
    for model in _verify_models():
        for d in (1, 2, 3):
            T = rng.standard_normal((200, st.packed_len(d)))
            nrm = st.norm(T)
            big = nrm > 3.0
            T[big] *= (3.0 / nrm[big])[:, None]
            E = con.g_apply(model, T)
            back = con.invert(model, E, warm_stress=T)
            worst = max(worst, float(np.max(st.norm(back - T))))
    return worst <= 1e-10, f"max round-trip error {worst:.3e} (tol 1e-10)"


def _verify_models():
    pots = [con.PrototypePotential(1.0), con.PrototypePotential(2.0),
            con.PrototypePotential(10.0), con.PowerLawPotential(1.5),
            con.PowerLawPotential(3.0), con.LinearPotential()]
    out = []
    for pot in pots:
        out.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5))
        out.append(con.ConstitutiveModel(pot, alpha=1.0, beta=0.5, reg_n=16))
    return out


def _verify_fenchel(rng):
    worst = 0.0
    for model in _verify_models():
        for d in (1, 2, 3):
            T = 0.8 * rng.standard_normal((200, st.packed_len(d)))
            r = con.fenchel_residual(model, T)
            worst = max(worst, float(np.max(r / (1.0 + st.norm(T)))))
    return worst <= 1e-8, f"max scaled Fenchel residual {worst:.3e} (tol 1e-8)"


def _verify_jacobian(rng):
    worst = 0.0
    h = 1e-5
    for model in _verify_models():
        for d in (1, 2, 3):
            mcomp = st.packed_len(d)
            for _ in range(20):
                T = 0.8 * rng.standard_normal(mcomp)
                Ed = rng.standard_normal(mcomp)
                Ed /= np.linalg.norm(Ed)
                J = con.g_jacobian(model, T)
                fd = (con.g_apply(model, T + h * Ed)
                      - con.g_apply(model, T - h * Ed)) / (2.0 * h)
                worst = max(worst, float(np.linalg.norm(J @ Ed - fd)))
    ok = worst <= 1e-6
    bound_ok = True
    for n in (1, 10, 100):
        mdl = con.ConstitutiveModel(con.PrototypePotential(2.0), reg_n=n)
        for r in (0.0, 0.1, 1.0, 10.0, 100.0):
            T = np.zeros(3)
            T[0] = r
            bound_ok = bound_ok and con.jacobian_norm_bound_check(mdl, T)
    return ok and bound_ok, (f"max FD mismatch {worst:.3e} (tol 1e-6), "
                             f"operator norm bound held: {bound_ok}")


def _sine_field(amp, freq, rate=0.0):
    w = freq * np.pi

    def value(t, X):
        return amp * np.cos(rate * t) * np.sin(w * X)

    def grad(t, X):
        return (amp * w * np.cos(rate * t) * np.cos(w * X))[..., None]

    def dt_value(t, X):
        return -amp * rate * np.sin(rate * t) * np.sin(w * X)

    def dt_grad(t, X):
        return (-amp * w * rate * np.sin(rate * t) * np.cos(w * X))[..., None]

    def dtt_value(t, X):
        return -amp * rate**2 * np.cos(rate * t) * np.sin(w * X)

    return sc.AnalyticField(1, value, grad=grad, dt_value=dt_value,
                            dt_grad=dt_grad, dtt_value=dtt_value)


def _verify_lifts(rng):
    alpha, beta = 1.3, 0.4
    u0 = _sine_field(0.5, 1.0)
    v0 = _sine_field(0.2, 2.0)
    lift = sc.lift_static_bc(u0, v0, alpha, beta)
    X = rng.uniform(0.0, 1.0, size=(100, 1))
    worst_data = max(
        float(np.max(np.abs(lift.value(0.0, X) - u0.value(0.0, X)))),
        float(np.max(np.abs(lift.dt_value(0.0, X) - v0.value(0.0, X)))),
    )
    E0 = sc.strain_expression(lift, alpha, beta, 0.0, X)
    worst_id = 0.0
    for t in (0.3, 1.7):
        Et = sc.strain_expression(lift, alpha, beta, t, X)
        worst_id = max(worst_id, float(np.max(np.abs(Et - E0))))
    u_ext = _sine_field(0.05, 1.0, rate=1.0)
    lift2 = sc.lift_timedep_bc(u_ext, sc.zero_field(1), alpha, beta,
                               boundary_points=np.array([[0.0], [1.0]]))
    worst_data = max(worst_data,
                     float(np.max(np.abs(lift2.value(0.0, X) - u_ext.value(0.0, X)))),
                     float(np.max(np.abs(lift2.dt_value(0.0, X)))))
    ok = worst_data <= 1e-12 and worst_id <= 1e-10
    return ok, (f"data mismatch {worst_data:.3e} (tol 1e-12), "
                f"strain-expression drift {worst_id:.3e} (tol 1e-10)")


def cmd_verify():
    groups = [
        ("constitutive round-trip", _verify_roundtrip),
        ("Fenchel residual", _verify_fenchel),
        ("Jacobian", _verify_jacobian),
        ("lift recipes", _verify_lifts),
    ]
    all_ok = True
    for name, fun in groups:
        rng = np.random.default_rng(0)
        ok, detail = fun(rng)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 3


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

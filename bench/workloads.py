"""Benchmark workloads: seeded CLI configs and checks on the CSVs they produce.

Each workload is one ``strainlim run`` or ``strainlim sweep`` invocation.
Seed 0 gives the reference configs.  Any other seed perturbs only
``alpha`` and ``beta``, each by at most 5%, and never the mesh, ``dt``,
``t_end``, ``reg_n`` or ``n_list``, so every seed does the same amount of
stepping work.  The program sees only the generated config text.  Why
each workload was chosen is recorded in BENCHMARK.json.

The checks read the files the CLI writes.  Each tolerance sits above the
value measured at seed 0 with headroom for the alpha/beta perturbation,
so a run counts as failed only when its answer is wrong, not when it is
slow.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One output check: the measured value against its limit."""

    name: str
    value: float
    limit: float
    ok: bool


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "run" or "sweep"
    keys: tuple           # (key, value) pairs of the config, seed-independent

    def config_text(self, seed, out_dir):
        """Config file text for this seed, writing its CSVs to out_dir."""
        alpha, beta = seeded_coefficients(seed)
        lines = [f"{k} = {v}" for k, v in self.keys]
        lines += [f"alpha = {alpha!r}", f"beta = {beta!r}", f"out_dir = {out_dir}"]
        return "\n".join(lines) + "\n"

    def check(self, out_dir):
        """Checks on the CSV files of one finished operation."""
        return _CHECKS[self.name](out_dir)


def seeded_coefficients(seed):
    """(alpha, beta): (1, 0.1) at seed 0, else each within +-5% of it."""
    if seed == 0:
        return 1.0, 0.1
    rng = random.Random(seed)
    alpha = 1.0 * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
    beta = 0.1 * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
    return round(alpha, 6), round(beta, 6)


_COMMON = (("model", "prototype"), ("q", "2"))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "wave1d-mid", "run",
            (("dim", "1"), ("domain", "0.0 1.0"), ("cells", "256")) + _COMMON + (
                ("reg_n", "16"), ("scheme", "midpoint"), ("dt", "1e-3"),
                ("t_end", "0.6"), ("scenario", "manufactured:standing-wave"))),
        Workload(
            "pluck2d-mid", "run",
            (("dim", "2"), ("domain", "0.0 1.0 0.0 1.0"), ("cells_x", "64"),
             ("cells_y", "64")) + _COMMON + (
                ("reg_n", "64"), ("scheme", "midpoint"), ("dt", "1e-3"),
                ("t_end", "0.02"), ("scenario", "gaussian-pluck"))),
        Workload(
            "sweep1d-rk4", "sweep",
            (("dim", "1"), ("domain", "0.0 1.0"), ("cells", "64")) + _COMMON + (
                ("reg_n", "4"), ("scheme", "rk4"), ("dt", "2e-4"),
                ("t_end", "0.1"), ("scenario", "gaussian-pluck"),
                ("study", "regularization"), ("n_list", "4 16 64 256"))),
    )
}


# ---------------------------------------------------------------------------
# CSV readers


def read_columns(path):
    """Columns of a numeric CSV with a header row, as lists of floats.

    Empty cells (the sweep report leaves fitted_order blank) read as nan.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) if r[i] else math.nan for r in body]
            for i, name in enumerate(header)}


def digests(out_dir):
    """sha256 of every file the operation wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _max_abs_finite(values):
    """Largest |value| over finite rows; suspended (nan) ledger rows are skipped."""
    finite = [abs(v) for v in values if math.isfinite(v)]
    return max(finite) if finite else math.inf


def _extreme(fn, values):
    """min or max of values, or nan when any value is not finite."""
    values = list(values)
    return fn(values) if all(math.isfinite(v) for v in values) else math.nan


def _le(name, value, limit):
    return Check(name, value, limit, bool(value <= limit))


def _ge(name, value, limit):
    return Check(name, value, limit, bool(value >= limit))


# ---------------------------------------------------------------------------
# per-workload checks
#
# Tolerances, with the seed-0 value each one guards:
#   wave1d-mid   max |u - exact| at t_end <= 1e-6      (seed 0: 4.0e-7; O(h^2)
#                                                       plus O(dt^2) error, 2.5x)
#                energy balance residual   <= 3e-8      (seed 0: 6.0e-9; 5x)
#   pluck2d-mid  min(1 + max_stress/n - max_strain_expr) >= 0.15
#                                                      (seed 0: 0.314; the
#                 invariant needs >= 0, half the seed margin flags changed dynamics)
#                energy balance residual   <= 5e-6      (seed 0: 1.5e-6; 3x)
#   sweep1d-rk4  successive differences strictly decreasing (Cauchy in n)
#                final/first difference    <= 0.25      (seed 0: 0.082; the
#                                                       acceptance criterion 07 bound)

WAVE_AMPLITUDE = 0.05     # the standing wave of scenarios.build_scenario
WAVE_OMEGA = math.pi


def _check_wave(out_dir):
    t_end = 0.6
    state = read_columns(os.path.join(out_dir, f"state_{t_end:.6f}.csv"))
    err = _extreme(max, (
        abs(u - WAVE_AMPLITUDE * math.sin(math.pi * x) * math.cos(WAVE_OMEGA * t_end))
        for x, u in zip(state["x"], state["u0"])))
    energy = read_columns(os.path.join(out_dir, "energy.csv"))
    return [
        _le("max_u_error", err, 1e-6),
        _le("energy_residual", _max_abs_finite(energy["balance_residual"]), 3e-8),
    ]


def _check_pluck(out_dir, reg_n=64):
    mon = read_columns(os.path.join(out_dir, "monitor.csv"))
    margin = _extreme(min, (1.0 + s / reg_n - e
                            for e, s in zip(mon["max_strain_expr"], mon["max_stress"])))
    energy = read_columns(os.path.join(out_dir, "energy.csv"))
    return [
        _ge("strain_bound_margin", margin, 0.15),
        _le("energy_residual", _max_abs_finite(energy["balance_residual"]), 5e-6),
    ]


def _check_sweep(out_dir):
    diffs = read_columns(os.path.join(out_dir, "report.csv"))["error_or_diff"]
    steps = [b - a for a, b in zip(diffs, diffs[1:])]
    worst_step = _extreme(max, steps)
    return [
        Check("diffs_decreasing", worst_step, 0.0, bool(worst_step < 0.0)),
        _le("final_over_first", diffs[-1] / diffs[0], 0.25),
    ]


_CHECKS = {
    "wave1d-mid": _check_wave,
    "pluck2d-mid": _check_pluck,
    "sweep1d-rk4": _check_sweep,
}

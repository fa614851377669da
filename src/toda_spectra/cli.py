"""Command-line surface: config-driven runs serialized to CSV and JSON.

Every command reads an INI config (``--config``), applies ``--set
SECTION.KEY=VALUE`` overrides, validates all numeric knobs up front, and
writes its artifacts into ``--out``: one or more CSV files plus a JSON
summary (``schema`` 1) echoing the effective config together with its
SHA-256 content hash.  Floating values are printed with 17 significant
digits, columns have a fixed order, and no timestamps enter the data
files, so identical configs produce byte-identical CSV bodies.

Exit status: 0 on a clean run, 1 on configuration errors, 2 when some
points failed (partial data is still written).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .branch_points import critical_parameter, dominant_data, solve_characteristic
from .errors import InsufficientData, TodaSpectraError
from .explicit_leaves import gamma_c_solve, phase_diagram
from .hessian_blocks import RenormConfig
from .laplacian_growth import (MomentDriver, SliceDriver, detect_thresholds,
                               initial_state, radius_excess)
from .series_engine import Leaf, ParamPoint, branch_power_rows
from .spectral_scan import fit_log_scaling, scan_path

_COMMANDS = ("series", "char", "spectrum", "scan", "lg", "leaves")

SPECTRA_HEADER = ("delta", "epsilon", "L", "q", "k", "mu", "mu_over_L",
                  "gamma", "c_norm", "c_hs", "status")
TRAJECTORY_HEADER_FIXED = ("T", "r")  # then a_n..., t_0, t_k..., rho_star, margin
PHASE_HEADER = ("b", "c_or_gamma", "rho_char", "abs_x_plus", "abs_x_minus",
                "conjugate_pair", "error_code")


class ConfigError(Exception):
    """Raised for unparseable or out-of-range configuration values."""


# ---------------------------------------------------------------------------
# formatting and atomic output


def _g17(x: float) -> str:
    """Locale-independent decimal rendering with 17 significant digits."""
    return "%.17g" % float(x)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _g17(v)
    return str(v)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _jf(x):
    """JSON-safe float: None stays None, non-finite becomes None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated effective configuration of one CLI invocation.

    ``sections`` holds the canonical key/value strings (defaults filled
    in, overrides applied) that are echoed into the JSON summary;
    re-parsing them reproduces an equal RunConfig.  ``values`` holds the
    typed results of validation.  Determinism is unconditional: there is
    no seed anywhere in the pipeline.
    """

    command: str
    sections: dict
    values: dict


_MISSING = object()


def _raw(sections: dict, sec: str, key: str, default=_MISSING) -> str:
    try:
        return sections[sec][key]
    except KeyError:
        if default is _MISSING:
            raise ConfigError(f"[{sec}] {key}: required key is missing")
        return default


def _parse_float(sec, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: expected a real number, got {raw!r}")


def _parse_int(sec, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: expected an integer, got {raw!r}")


def _parse_bool(sec, key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{sec}] {key}: expected true/false, got {raw!r}")


def _parse_list(sec, key, raw, one):
    toks = raw.replace(",", " ").split()
    if not toks:
        raise ConfigError(f"[{sec}] {key}: expected a nonempty list, got {raw!r}")
    return [one(sec, key, t) for t in toks]


def _check_range(sec, key, val, lo=None, hi=None, lo_open=False, hi_open=False):
    bad = ((lo is not None and (val <= lo if lo_open else val < lo))
           or (hi is not None and (val >= hi if hi_open else val > hi)))
    if bad:
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        lo_s = "-inf" if lo is None else _g17(lo)
        hi_s = "inf" if hi is None else _g17(hi)
        raise ConfigError(
            f"[{sec}] {key}: value {_g17(val)} outside {left}{lo_s}, {hi_s}{right}")
    return val


class _Conf:
    """Typed view over merged string sections, tracking what was consumed.

    Every successful read is written back in canonical form, so after
    validation ``canonical()`` returns exactly the effective config.
    """

    def __init__(self, sections: dict):
        self._in = sections
        self._out: dict = {}

    def _note(self, sec, key, rendered):
        self._out.setdefault(sec, {})[key] = rendered

    def flt(self, sec, key, default=_MISSING, **rng):
        raw = _raw(self._in, sec, key,
                   _MISSING if default is _MISSING else _g17(default))
        val = _check_range(sec, key, _parse_float(sec, key, raw), **rng)
        self._note(sec, key, _g17(val))
        return val

    def num(self, sec, key, default=_MISSING, **rng):
        raw = _raw(self._in, sec, key,
                   _MISSING if default is _MISSING else str(default))
        val = _check_range(sec, key, _parse_int(sec, key, raw), **rng)
        self._note(sec, key, str(val))
        return val

    def flag(self, sec, key, default=_MISSING):
        raw = _raw(self._in, sec, key, _MISSING if default is _MISSING
                   else ("true" if default else "false"))
        val = _parse_bool(sec, key, raw)
        self._note(sec, key, "true" if val else "false")
        return val

    def floats(self, sec, key, default=_MISSING):
        if default is not _MISSING and isinstance(default, (list, tuple)):
            default = " ".join(_g17(v) for v in default)
        raw = _raw(self._in, sec, key, default)
        vals = _parse_list(sec, key, raw, _parse_float)
        self._note(sec, key, " ".join(_g17(v) for v in vals))
        return vals

    def ints(self, sec, key, default=_MISSING):
        if default is not _MISSING and isinstance(default, (list, tuple)):
            default = " ".join(str(v) for v in default)
        raw = _raw(self._in, sec, key, default)
        vals = _parse_list(sec, key, raw, _parse_int)
        self._note(sec, key, " ".join(str(v) for v in vals))
        return vals

    def choice(self, sec, key, choices, default=_MISSING):
        raw = _raw(self._in, sec, key, default).strip().lower()
        if raw not in choices:
            raise ConfigError(
                f"[{sec}] {key}: expected one of {'/'.join(choices)}, got {raw!r}")
        self._note(sec, key, raw)
        return raw

    def maybe(self, sec, key) -> bool:
        return sec in self._in and key in self._in[sec]

    def canonical(self) -> dict:
        return {s: dict(sorted(kv.items())) for s, kv in sorted(self._out.items())}


def _leaf_from(conf: _Conf) -> Leaf:
    exps = conf.ints("leaf", "exponents")
    try:
        return Leaf(tuple(exps))
    except ValueError as exc:
        raise ConfigError(f"[leaf] exponents: {exc}")


def _renorm_from(conf: _Conf, leaf: Leaf, default_q=(1,)) -> tuple[RenormConfig, list]:
    q_list = conf.ints("renorm", "q", default=list(default_q))
    for q in q_list:
        _check_range("renorm", "q", q, lo=1, hi=leaf.s)
    J = conf.num("renorm", "J", default=70, lo=1)
    alpha = conf.flt("renorm", "alpha", default=2.0, lo=1.0, lo_open=True)
    beta = conf.flt("renorm", "beta", default=1.0, lo=0.0, lo_open=True)
    tail_tol = conf.flt("renorm", "tail_tol", default=1e-12, lo=0.0,
                        hi=1e-3, lo_open=True)
    return (RenormConfig(q=q_list[0], s=leaf.s, J=J, alpha=alpha, beta=beta,
                         tail_tol=tail_tol), q_list)


def parse_run_config(command: str, sections: dict) -> RunConfig:
    """Validate merged string sections into a RunConfig for ``command``.

    All in-range checks mirroring module preconditions happen here,
    before any computation starts.
    """
    if command not in _COMMANDS:
        raise ConfigError(
            f"[run] command: expected one of {'/'.join(_COMMANDS)}, got {command!r}")
    conf = _Conf(sections)
    conf._note("run", "command", command)
    conf._note("run", "deterministic", "true")
    values: dict = {}

    if command == "series":
        leaf = _leaf_from(conf)
        zeta = conf.floats("series", "zeta")
        if len(zeta) != len(leaf.exponents):
            raise ConfigError("[series] zeta: expected one value per leaf exponent")
        values.update(
            leaf=leaf, zeta=zeta,
            order=conf.num("series", "order", default=60, lo=1),
            p_list=[_check_range("series", "p", p, lo=1)
                    for p in conf.ints("series", "p", default=[1, 2, 5])],
            alpha=conf.flt("series", "alpha", default=1.0, lo=0.0, lo_open=True),
        )
    elif command == "char":
        leaf = _leaf_from(conf)
        zeta = conf.floats("char", "zeta")
        if len(zeta) != len(leaf.exponents):
            raise ConfigError("[char] zeta: expected one value per leaf exponent")
        values.update(
            leaf=leaf, zeta=zeta,
            order=conf.num("char", "order", default=250, lo=50),
            dominant=conf.flag("char", "dominant", default=True),
        )
    elif command == "spectrum":
        leaf = _leaf_from(conf)
        zeta = conf.floats("spectrum", "zeta")
        if len(zeta) != len(leaf.exponents):
            raise ConfigError("[spectrum] zeta: expected one value per leaf exponent")
        cfg, q_list = _renorm_from(conf, leaf)
        values.update(
            leaf=leaf, zeta=zeta, renorm=cfg, q_list=q_list,
            order=conf.num("spectrum", "order", default=250, lo=50),
            k_max=conf.num("spectrum", "k_max", default=8, lo=1),
        )
    elif command == "scan":
        leaf = _leaf_from(conf)
        n_fixed = len(leaf.exponents) - 1
        fixed = (conf.floats("scan", "zeta_fixed") if n_fixed else
                 ([] if not conf.maybe("scan", "zeta_fixed")
                  else conf.floats("scan", "zeta_fixed")))
        if len(fixed) != n_fixed:
            raise ConfigError(
                "[scan] zeta_fixed: expected one value per non-swept exponent")
        cfg, q_list = _renorm_from(conf, leaf, default_q=(1, 2))
        values.update(
            leaf=leaf, fixed=fixed, renorm=cfg, q_list=q_list,
            delta_min=conf.flt("scan", "delta_min", default=1e-4,
                               lo=0.0, lo_open=True, hi=1.0, hi_open=True),
            delta_max=conf.flt("scan", "delta_max", default=1e-1,
                               lo=0.0, lo_open=True, hi=1.0, hi_open=True),
            points=conf.num("scan", "points", default=25, lo=2),
            k_max=conf.num("scan", "k_max", default=8, lo=1),
            order=conf.num("scan", "order", default=250, lo=50),
        )
        if values["delta_min"] >= values["delta_max"]:
            raise ConfigError("[scan] delta_min: must be below delta_max")
        if conf.maybe("scan", "zeta_critical"):
            values["zeta_critical"] = conf.flt("scan", "zeta_critical",
                                               lo=0.0, lo_open=True)
        else:
            br = conf.floats("scan", "crit_bracket")
            if len(br) != 2 or not 0 < br[0] < br[1]:
                raise ConfigError(
                    "[scan] crit_bracket: expected two increasing positive reals")
            values["crit_bracket"] = br
    elif command == "lg":
        leaf = _leaf_from(conf)
        driver = conf.choice("lg", "driver", ("moments", "slice"),
                             default="moments")
        values.update(
            leaf=leaf, driver=driver,
            t_max=conf.flt("lg", "t_max", default=1.0, lo=0.0, lo_open=True),
            steps=conf.num("lg", "steps", default=20, lo=1),
            n_quad=conf.num("lg", "n_quad", default=512, lo=16),
            detect=conf.flag("lg", "detect", default=True),
            detect_order=conf.num("lg", "detect_order", default=200, lo=50),
            t_tol=conf.flt("lg", "t_tol", default=1e-6, lo=0.0, lo_open=True),
        )
        if driver == "moments":
            r0 = conf.flt("lg", "r0", default=1.0, lo=0.0, lo_open=True)
            a0 = conf.floats("lg", "a0")
            if len(a0) != len(leaf.exponents):
                raise ConfigError("[lg] a0: expected one value per leaf exponent")
            values.update(r0=r0, a0=a0)
        else:
            zeta0 = conf.floats("lg", "zeta0")
            rate = conf.floats("lg", "rate")
            if len(zeta0) != len(leaf.exponents) or len(rate) != len(leaf.exponents):
                raise ConfigError(
                    "[lg] zeta0/rate: expected one value per leaf exponent")
            values.update(zeta0=zeta0, rate=rate,
                          r=conf.flt("lg", "r", default=1.0, lo=0.0, lo_open=True))
    elif command == "leaves":
        kind = conf.choice("leaves", "kind", ("pole", "log"))
        b_lo = conf.flt("leaves", "b_min", lo=-1.0, hi=1.0,
                        lo_open=True, hi_open=True)
        b_hi = conf.flt("leaves", "b_max", lo=-1.0, hi=1.0,
                        lo_open=True, hi_open=True)
        b_n = conf.num("leaves", "b_points", lo=1)
        if kind == "pole":
            s_lo = conf.flt("leaves", "c_min", lo=0.0, lo_open=True)
            s_hi = conf.flt("leaves", "c_max", lo=0.0, lo_open=True)
            s_n = conf.num("leaves", "c_points", lo=1)
        else:
            if b_lo <= 0.0:
                raise ConfigError("[leaves] b_min: log leaf needs b in (0, 1)")
            s_lo = conf.flt("leaves", "gamma_min", lo=0.0, lo_open=True)
            s_hi = conf.flt("leaves", "gamma_max", lo=0.0, lo_open=True)
            s_n = conf.num("leaves", "gamma_points", lo=1)
        if b_lo > b_hi or s_lo > s_hi:
            raise ConfigError("[leaves] grid bounds must be nondecreasing")
        values.update(
            kind=kind, b_grid=(b_lo, b_hi, b_n), second_grid=(s_lo, s_hi, s_n),
            level=conf.flt("leaves", "level", default=1.0, lo=0.0, lo_open=True),
            on_cut=conf.choice("leaves", "on_cut", ("split", "error"),
                               default="split"),
            gamma_c=conf.flag("leaves", "gamma_c", default=False),
            gamma_c_tol=conf.flt("leaves", "gamma_c_tol", default=1e-5, lo=1e-6),
        )
    return RunConfig(command=command, sections=conf.canonical(), values=values)


def config_sha256(sections: dict) -> str:
    """Content hash of the canonical effective config."""
    text = "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in sorted(kv.items()))
                     for sec, kv in sorted(sections.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# command runners: each returns (csv files written, extra summary, failures)


def _spectra_rows(points) -> tuple[list, list]:
    rows, failures = [], []
    for pt in points:
        if pt.ok:
            sp = pt.spectrum
            for k, mu in enumerate(sp.mu, start=1):
                rows.append((sp.delta, sp.epsilon, sp.L, sp.q, k, float(mu),
                             float(mu) / sp.L, sp.gamma, sp.c_norm, sp.c_hs,
                             "ok"))
        else:
            nan = math.nan
            rows.append((pt.delta, nan, nan, pt.q, 0, nan, nan, nan, nan, nan,
                         pt.status))
            failures.append({"id": f"delta={_g17(pt.delta)},q={pt.q}",
                             "status": pt.status, "detail": pt.detail})
    return rows, failures


def _run_series(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    rows, failures = [], []
    try:
        table = branch_power_rows(point, v["p_list"], v["order"], v["alpha"])
        for p, coeffs in zip(v["p_list"], table):
            for m, val in enumerate(coeffs):
                rows.append((p, m, float(val.real) if np.iscomplexobj(coeffs)
                             else float(val)))
    except TodaSpectraError as exc:
        failures.append({"id": "series", "status": type(exc).__name__,
                         "detail": str(exc)})
    write_csv(out / "series.csv", ("p", "m", "value"), rows)
    return ["series.csv"], {"n_rows": len(rows)}, failures, len(v["p_list"])


def _run_char(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    rows, failures, extra = [], [], {}
    cps = solve_characteristic(point)
    for i, cp in enumerate(cps):
        rows.append((i, cp.x_star.real, cp.x_star.imag, cp.lam.real,
                     cp.lam.imag, cp.kappa.real, cp.kappa.imag, cp.modulus,
                     cp.simple, cp.fold_ok))
    if v["dominant"]:
        try:
            dom = dominant_data(point, v["order"])
            extra["dominant"] = {"rho_star": _jf(dom.rho_star),
                                 "epsilon": _jf(dom.rho_star - 1.0),
                                 "phi": _jf(dom.phi)}
        except TodaSpectraError as exc:
            failures.append({"id": "dominant", "status": type(exc).__name__,
                             "detail": str(exc)})
    write_csv(out / "char_points.csv",
              ("index", "x_re", "x_im", "lambda_re", "lambda_im", "kappa_re",
               "kappa_im", "modulus", "simple", "fold_ok"), rows)
    return ["char_points.csv"], extra, failures, max(1, len(cps))


def _run_spectrum(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    points = scan_path(lambda d: point, [0.0], v["renorm"], v["q_list"],
                       k_max=v["k_max"], order=v["order"], threads=threads)
    rows, failures = _spectra_rows(points)
    write_csv(out / "spectra.csv", SPECTRA_HEADER, rows)
    return ["spectra.csv"], {}, failures, len(points)


def _run_scan(rc: RunConfig, out: Path, threads):
    v = rc.values
    leaf, fixed = v["leaf"], v["fixed"]
    extra: dict = {}
    if "zeta_critical" in v:
        zc = v["zeta_critical"]
    else:
        lo, hi = v["crit_bracket"]
        ray = lambda t: ParamPoint(leaf, (t,) + tuple(fixed))
        zc = critical_parameter(ray, lo, hi, order=v["order"])
        extra["zeta_critical_solved"] = _jf(zc)

    def path(delta):
        return ParamPoint(leaf, (zc * (1.0 - delta),) + tuple(fixed))

    grid = np.geomspace(v["delta_min"], v["delta_max"], v["points"])
    points = scan_path(path, grid, v["renorm"], v["q_list"],
                       k_max=v["k_max"], order=v["order"], threads=threads)
    rows, failures = _spectra_rows(points)
    write_csv(out / "spectra.csv", SPECTRA_HEADER, rows)
    try:
        fits = fit_log_scaling(points)
        extra["fits"] = {
            str(q): {"slope": _jf(f.slope), "intercept": _jf(f.intercept),
                     "r_squared": _jf(f.r_squared),
                     "slope_log_delta": _jf(f.slope_log_delta),
                     "r_squared_log_delta": _jf(f.r_squared_log_delta),
                     "gamma_limit": _jf(f.gamma_limit),
                     "mu1_over_L_final": _jf(f.mu1_over_L_final),
                     "max_higher": {str(k): _jf(m)
                                    for k, m in sorted(f.max_higher.items())},
                     "bounded": {str(k): bool(b) for k, b in sorted(f.bounded.items())}}
            for q, f in sorted(fits.items())}
    except InsufficientData as exc:
        failures.append({"id": "fit", "status": type(exc).__name__,
                         "detail": str(exc)})
    return ["spectra.csv"], extra, failures, len(points)


def _trajectory_rows(states, leaf: Leaf, order: int):
    rows = []
    for st in states:
        excess = radius_excess(st, order=order)
        rho = math.inf if math.isinf(excess) else 1.0 + excess
        row = [st.t, st.r]
        row.extend(float(a) for a in np.atleast_1d(st.a).real)
        row.extend(float(m) for m in np.asarray(st.moments).real)
        row.extend((rho, st.univalence_margin))
        rows.append(tuple(row))
    return rows


def _run_lg(rc: RunConfig, out: Path, threads):
    v = rc.values
    leaf = v["leaf"]
    failures, extra = [], {}
    if v["driver"] == "moments":
        zeta0 = tuple(a / v["r0"] for a in v["a0"])
        init = initial_state(ParamPoint(leaf, zeta0, r=v["r0"]),
                             n_quad=v["n_quad"])
        driver = MomentDriver(init, n_quad=v["n_quad"])
    else:
        zeta0, rate = v["zeta0"], v["rate"]
        zfun = lambda t: tuple(z + r * t for z, r in zip(zeta0, rate))
        driver = SliceDriver(leaf, zfun, lambda t: v["r"], n_quad=v["n_quad"])

    times = np.linspace(0.0, v["t_max"], v["steps"] + 1)
    states = []
    for t in times:
        try:
            states.append(driver.state(float(t)))
        except TodaSpectraError as exc:
            failures.append({"id": f"T={_g17(t)}",
                             "status": type(exc).__name__, "detail": str(exc)})
            got = getattr(exc, "states", None)
            if got:
                states.extend(s for s in got if s.t > (states[-1].t if states
                                                       else -1.0))
            break

    header = list(TRAJECTORY_HEADER_FIXED)
    header.extend(f"a_{n}" for n in leaf.exponents)
    header.append("t_0")
    header.extend(f"t_{n}" for n in leaf.exponents)
    header.extend(("rho_star", "univalence_margin"))
    write_csv(out / "trajectory.csv", header,
              _trajectory_rows(states, leaf, v["detect_order"]))

    if v["detect"]:
        try:
            rep = detect_thresholds(driver, v["t_max"],
                                    order=v["detect_order"], t_tol=v["t_tol"])
            extra["thresholds"] = {
                "T_c": _jf(rep.t_c), "T_univ": _jf(rep.t_univ),
                "margin_at_Tc": _jf(rep.margin_at_tc),
                "separation_verdict": (None if rep.separated is None
                                       else bool(rep.separated)),
            }
        except TodaSpectraError as exc:
            failures.append({"id": "thresholds", "status": type(exc).__name__,
                             "detail": str(exc)})
    return ["trajectory.csv"], extra, failures, len(times)


def _run_leaves(rc: RunConfig, out: Path, threads):
    v = rc.values
    b_lo, b_hi, b_n = v["b_grid"]
    s_lo, s_hi, s_n = v["second_grid"]
    bs = np.linspace(b_lo, b_hi, b_n)
    seconds = np.linspace(s_lo, s_hi, s_n)
    table = phase_diagram(v["kind"], bs, seconds, level=v["level"],
                          on_cut=v["on_cut"])
    rows, failures = [], []
    for cell in table.cells:
        rows.append((cell.b, cell.second, cell.rho_char, cell.x_plus_abs,
                     cell.x_minus_abs, cell.conjugate_pair, cell.error_code))
        if cell.error_code:
            failures.append({"id": f"b={_g17(cell.b)},second={_g17(cell.second)}",
                             "status": cell.error_code, "detail": ""})
    write_csv(out / "phase.csv", PHASE_HEADER, rows)
    extra = {"contour": [[_jf(b), _jf(sec)] for b, sec in table.contour]}
    if v["gamma_c"]:
        if v["kind"] != "log":
            failures.append({"id": "gamma_c", "status": "ConfigError",
                             "detail": "gamma_c applies to the log leaf only"})
        else:
            gc = gamma_c_solve(v["gamma_c_tol"])
            extra["gamma_c"] = {"value": _jf(gc), "tol": _jf(v["gamma_c_tol"]),
                                "status": "empirical principal-sheet threshold"}
    return ["phase.csv"], extra, failures, len(table.cells)


_RUNNERS = {"series": _run_series, "char": _run_char, "spectrum": _run_spectrum,
            "scan": _run_scan, "lg": _run_lg, "leaves": _run_leaves}


# ---------------------------------------------------------------------------
# argument handling


def _load_sections(config_path: str | None) -> dict:
    sections: dict = {}
    if config_path:
        cp = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}")
        for sec in cp.sections():
            sections[sec] = dict(cp.items(sec))
    return sections


def _apply_overrides(sections: dict, pairs) -> None:
    for pair in pairs or ():
        head, sep, value = pair.partition("=")
        if not sep or "." not in head:
            raise ConfigError(
                f"--set {pair!r}: expected SECTION.KEY=VALUE")
        sec, _, key = head.partition(".")
        sections.setdefault(sec.strip(), {})[key.strip()] = value.strip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda-spectra",
        description="Series, spectral-scan, Laplacian-growth, and explicit-leaf "
                    "computations serialized to CSV/JSON for external plotting.",
        epilog="Any config key can be overridden with --set SECTION.KEY=VALUE; "
               "flags take precedence over the config file.  THREADS falls "
               "back to the TODA_SPECTRA_THREADS environment variable.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("series", "coefficient rows of powers of the Taylor branch"),
            ("char", "characteristic points and dominant-orbit data"),
            ("spectrum", "renormalized block spectra at one parameter point"),
            ("scan", "block spectra along a near-critical parameter path"),
            ("lg", "Laplacian-growth trajectory and threshold detection"),
            ("leaves", "closed-form phase diagrams of explicit leaves")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", metavar="PATH",
                       help="INI config file (sections per command)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: '.')")
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="worker threads for grid evaluations")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       dest="overrides", help="override one config value")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sections = _load_sections(args.config)
        _apply_overrides(sections, args.overrides)
        out_dir = args.out or sections.get("run", {}).get("out", ".")
        threads = args.threads
        if threads is None and "threads" in sections.get("run", {}):
            threads = _parse_int("run", "threads", sections["run"]["threads"])
        if threads is not None and threads < 1:
            raise ConfigError("[run] threads: expected a positive integer")
        rc = parse_run_config(args.command, sections)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # out/threads are delivery knobs, not part of the experiment: keeping
    # them out of the echoed config makes the summary (and its hash)
    # independent of where and how parallel the run happened
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csvs, extra, failures, total = _RUNNERS[rc.command](rc, out, threads)
    summary = {
        "schema": 1,
        "command": rc.command,
        "config": rc.sections,
        "config_sha256": config_sha256(rc.sections),
        "outputs": {"csv": csvs},
        "points": {"total": total, "failed": len(failures),
                   "ok": max(0, total - len(failures))},
        "failures": failures,
    }
    summary.update(extra)
    _atomic_write(out / f"{rc.command}_summary.json",
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

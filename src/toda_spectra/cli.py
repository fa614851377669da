"""Command-line surface: config-driven runs serialized to CSV and JSON.

Every command reads an INI config (``--config``), applies ``--set
SECTION.KEY=VALUE`` overrides, validates all numeric knobs up front, and
writes its artifacts into ``--out``: one or more CSV files plus a JSON
summary (``schema`` 1) echoing the effective config together with its
SHA-256 content hash.  Floating values are printed with 17 significant
digits, columns have a fixed order, and no timestamps enter the data
files, so identical configs produce byte-identical CSV bodies.

Exit status: 0 on a clean run, 1 on configuration errors, 2 when some
points failed (partial data is still written).  A run whose start fails
(the initial growth state, the critical-parameter solve of a scan, or the
characteristic solve of ``char``) writes the header-only CSV and a summary
naming the failure, and also exits 2.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
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
                               dominant_at, initial_state)
from .series_engine import MAX_ORDER, Leaf, ParamPoint, branch_power_rows
from .spectral_scan import fit_log_scaling, scan_path

_COMMANDS = ("series", "char", "spectrum", "scan", "lg", "leaves")
# brentq step tolerance of the log leaf's gamma_c (``[leaves] gamma_c``)
GAMMA_C_TOL = 1e-5

SPECTRA_HEADER = ("delta", "epsilon", "L", "q", "k", "mu", "mu_over_L",
                  "gamma", "c_norm", "c_hs", "status")
CHAR_HEADER = ("index", "x_re", "x_im", "lambda_re", "lambda_im", "kappa_re",
               "kappa_im", "modulus", "simple", "fold_ok")
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


@functools.cache
def _row_format(types: tuple) -> tuple[str, tuple[int, ...]]:
    """The %-template of a CSV row whose values have these types, and the
    positions of its booleans, which go in as "true"/"false".  Integers
    print as ``%d`` and floats as ``_g17`` does; booleans are tested
    before integers, of which they are a subclass."""
    specs, flags = [], []
    for i, t in enumerate(types):
        if issubclass(t, (bool, np.bool_)):
            specs.append("%s")
            flags.append(i)
        elif issubclass(t, (int, np.integer)):
            specs.append("%d")
        elif issubclass(t, (float, np.floating)):
            specs.append("%.17g")
        else:
            specs.append("%s")
    return ",".join(specs), tuple(flags)


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
    for row in rows:
        fmt, flags = _row_format(tuple(map(type, row)))
        if flags or not isinstance(row, tuple):
            row = list(row)
            for i in flags:
                row[i] = "true" if row[i] else "false"
            row = tuple(row)
        lines.append(fmt % row)
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
    """Value of ``[sec] key`` from key-folded ``sections``."""
    try:
        return sections[sec][key.lower()]
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
    validation ``canonical()`` returns exactly the effective config.  Key
    lookup ignores case; ``unknown()`` lists the given keys never read.
    """

    def __init__(self, sections: dict):
        # keys case-folded; of two spellings the later wins, so an override
        # added after the file's keys still takes precedence
        self._in = {sec: {key.lower(): val for key, val in kv.items()}
                    for sec, kv in sections.items()}
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
        return key.lower() in self._in.get(sec, {})

    def unknown(self) -> list[str]:
        """Given keys that were never read, as ``[section] key``."""
        read = {(sec, key.lower()) for sec, kv in self._out.items() for key in kv}
        given = {(sec, key) for sec, kv in self._in.items() for key in kv}
        return [f"[{sec}] {key}"
                for sec, key in sorted(given - read)]

    def canonical(self) -> dict:
        return {s: dict(sorted(kv.items())) for s, kv in sorted(self._out.items())}


def _leaf_from(conf: _Conf) -> Leaf:
    exps = conf.ints("leaf", "exponents")
    try:
        return Leaf(tuple(exps))
    except ValueError as exc:
        raise ConfigError(f"[leaf] exponents: {exc}")


def _zeta_from(conf: _Conf, sec: str, leaf: Leaf, nonzero: bool) -> list:
    zeta = conf.floats(sec, "zeta")
    if len(zeta) != len(leaf.exponents):
        raise ConfigError(f"[{sec}] zeta: expected one value per leaf exponent")
    if nonzero and not any(zeta):
        raise ConfigError(
            f"[{sec}] zeta: the characteristic system needs some zeta_n != 0")
    return zeta


def _renorm_from(conf: _Conf, leaf: Leaf, default_q=(1,)) -> list[RenormConfig]:
    """One block config per q of ``[renorm] q``, in that order."""
    q_list = conf.ints("renorm", "q", default=list(default_q))
    for q in q_list:
        _check_range("renorm", "q", q, lo=1, hi=leaf.s)
    knobs = dict(
        s=leaf.s, J=conf.num("renorm", "J", default=70, lo=1),
        alpha=conf.flt("renorm", "alpha", default=2.0, lo=1.0, lo_open=True),
        beta=conf.flt("renorm", "beta", default=1.0, lo=0.0, lo_open=True))
    try:  # every block's weights must be finite, not only the first's
        return [RenormConfig(q=q, **knobs) for q in q_list]
    except ValueError as exc:
        raise ConfigError(f"[renorm] {exc}") from None


def parse_run_config(command: str, sections: dict) -> RunConfig:
    """Validate merged string sections into a RunConfig for ``command``.

    All in-range checks mirroring module preconditions happen here,
    before any computation starts.  Keys match case-insensitively, and a
    key the command does not read (a misspelling, or a knob of another
    command or driver) is an error, not silently dropped.  ``[run]
    command`` and ``[run] deterministic`` may be given, but must name
    this command and be true.
    """
    if command not in _COMMANDS:
        raise ConfigError(
            f"[run] command: expected one of {'/'.join(_COMMANDS)}, got {command!r}")
    conf = _Conf(sections)
    values: dict = {}

    if command == "series":
        leaf = _leaf_from(conf)
        zeta = _zeta_from(conf, "series", leaf, nonzero=False)
        values.update(
            leaf=leaf, zeta=zeta,
            order=conf.num("series", "order", default=60, lo=1, hi=MAX_ORDER),
            p_list=[_check_range("series", "p", p, lo=1)
                    for p in conf.ints("series", "p", default=[1, 2, 5])],
            alpha=conf.flt("series", "alpha", default=1.0, lo=0.0, lo_open=True),
        )
    elif command == "char":
        leaf = _leaf_from(conf)
        zeta = _zeta_from(conf, "char", leaf, nonzero=True)
        values.update(leaf=leaf, zeta=zeta)
    elif command == "spectrum":
        leaf = _leaf_from(conf)
        zeta = _zeta_from(conf, "spectrum", leaf, nonzero=True)
        values.update(
            leaf=leaf, zeta=zeta, blocks=_renorm_from(conf, leaf),
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
        values.update(
            leaf=leaf, fixed=fixed,
            blocks=_renorm_from(conf, leaf, default_q=(1, 2)),
            delta_min=conf.flt("scan", "delta_min", default=1e-4,
                               lo=0.0, lo_open=True, hi=1.0, hi_open=True),
            delta_max=conf.flt("scan", "delta_max", default=1e-1,
                               lo=0.0, lo_open=True, hi=1.0, hi_open=True),
            points=conf.num("scan", "points", default=25, lo=2),
        )
        if values["delta_min"] >= values["delta_max"]:
            raise ConfigError("[scan] delta_min: must be below delta_max")
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
            detect=conf.flag("lg", "detect", default=True),
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
            values.update(zeta0=zeta0, rate=rate)
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
            gamma_c=conf.flag("leaves", "gamma_c", default=False),
        )
        if values["gamma_c"] and kind != "log":
            raise ConfigError("[leaves] gamma_c: applies to the log leaf only")
    # the run sets these two itself; a config that gives them must agree
    conf.choice("run", "command", (command,), default=command)
    if not conf.flag("run", "deterministic", default=True):
        raise ConfigError("[run] deterministic: runs are always deterministic")
    unknown = conf.unknown()
    if unknown:
        raise ConfigError(f"unknown key(s) for command {command!r}: "
                          + ", ".join(unknown))
    return RunConfig(command=command, sections=conf.canonical(), values=values)


def config_sha256(sections: dict) -> str:
    """Content hash of the canonical effective config."""
    text = "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in sorted(kv.items()))
                     for sec, kv in sorted(sections.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# command runners: each returns (csv files written, extra summary, failures,
# points, points ok).  A point fails if it has a failure or was never
# reached; run-level failures (the initial state, zeta_critical, the fit,
# the thresholds, the dominant orbit of ``char``) are no points.


def _failure(ident: str, exc: Exception) -> dict:
    return {"id": ident, "status": type(exc).__name__, "detail": str(exc)}


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


def _grid_facts(points) -> list[dict]:
    """Final node count, doublings, largest Newton iteration count and
    circle-mean error |mean - 1| of each point's circle table, in grid
    order (one entry per delta; 0, or null for the error, where no table
    was completed)."""
    facts = {}
    for pt in points:
        facts.setdefault(pt.delta, {"delta": _jf(pt.delta), "n_grid": pt.n_grid,
                                    "doublings": pt.doublings,
                                    "newton_iterations": pt.newton_iterations,
                                    "check_error": _jf(pt.check_error)})
    return list(facts.values())


def _run_series(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    rows, failures = [], []
    try:
        table = branch_power_rows(point, v["p_list"], v["order"], v["alpha"])
        for p, coeffs in zip(v["p_list"], table):
            rows.extend((p, m, float(val.real)) for m, val in enumerate(coeffs))
    except TodaSpectraError as exc:
        failures.append(_failure("series", exc))
    write_csv(out / "series.csv", ("p", "m", "value"), rows)
    n = len(v["p_list"])
    return (["series.csv"], {"n_rows": len(rows)}, failures, n,
            0 if failures else n)


def _run_char(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    rows, failures, extra = [], [], {}
    try:
        cps = solve_characteristic(point)
    except TodaSpectraError as exc:
        cps = []
        failures.append(_failure("char", exc))
    # one row per point: each orbit's s rotations of its representative
    s = point.leaf.s
    members = sorted(((cp.x_star * cmath.exp(2j * math.pi * k / s), cp)
                      for cp in cps for k in range(s)),
                     key=lambda m: (m[1].modulus,
                                    cmath.phase(m[0]) % (2 * math.pi)))
    for i, (x, cp) in enumerate(members):
        rows.append((i, x.real, x.imag, cp.lam.real, cp.lam.imag,
                     cp.kappa.real, cp.kappa.imag, cp.modulus, cp.simple,
                     cp.fold_ok))
    if cps:
        try:
            dom = dominant_data(point, points=cps)
            extra["dominant"] = {"rho_star": _jf(dom.rho_star),
                                 "epsilon": _jf(dom.rho_star - 1.0),
                                 "phi": _jf(dom.phi)}
        except TodaSpectraError as exc:
            failures.append(_failure("dominant", exc))
    write_csv(out / "char_points.csv", CHAR_HEADER, rows)
    return ["char_points.csv"], extra, failures, max(1, len(rows)), len(rows)


def _run_spectrum(rc: RunConfig, out: Path, threads):
    v = rc.values
    point = ParamPoint(v["leaf"], tuple(v["zeta"]))
    points = scan_path(lambda d: point, [0.0], v["blocks"], threads=threads)
    rows, failures = _spectra_rows(points)
    write_csv(out / "spectra.csv", SPECTRA_HEADER, rows)
    extra = {"circle_grids": _grid_facts(points)}
    return (["spectra.csv"], extra, failures, len(points),
            sum(pt.ok for pt in points))


def _run_scan(rc: RunConfig, out: Path, threads):
    v = rc.values
    leaf, fixed = v["leaf"], v["fixed"]
    extra: dict = {}
    lo, hi = v["crit_bracket"]
    ray = lambda t: ParamPoint(leaf, (t,) + tuple(fixed))
    try:
        zc = critical_parameter(ray, lo, hi)
    except TodaSpectraError as exc:
        write_csv(out / "spectra.csv", SPECTRA_HEADER, [])
        return (["spectra.csv"], extra, [_failure("zeta_critical", exc)], 1, 0)
    extra["zeta_critical_solved"] = _jf(zc)

    def path(delta):
        return ParamPoint(leaf, (zc * (1.0 - delta),) + tuple(fixed))

    grid = np.geomspace(v["delta_min"], v["delta_max"], v["points"])
    points = scan_path(path, grid, v["blocks"], threads=threads)
    rows, failures = _spectra_rows(points)
    write_csv(out / "spectra.csv", SPECTRA_HEADER, rows)
    extra["circle_grids"] = _grid_facts(points)
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
                     "bounded": {str(k): bool(b) for k, b in sorted(f.bounded.items())},
                     "decade_ratios": {str(k): [_jf(r) for r in rs]
                                       for k, rs in sorted(f.decade_ratios.items())}}
            for q, f in sorted(fits.items())}
    except InsufficientData as exc:
        failures.append(_failure("fit", exc))
    return (["spectra.csv"], extra, failures, len(points),
            sum(pt.ok for pt in points))


def _trajectory_rows(states, failures: list) -> list:
    """CSV rows of the recorded states.  A state whose rho_* fails keeps
    its row, with rho_star NaN, and the failure joins ``failures``.  Each
    state's dominant orbit is certified with the previous row's data as
    ``near``, and afresh after a failed row."""
    rows = []
    near = None
    for st in states:
        try:
            near = dominant_at(st, near)
            # 1 + (rho_* - 1), so that rho_star prints with the rounding
            # of radius_excess, to the bit
            rho = math.inf if near is None else 1.0 + (near.rho_star - 1.0)
        except TodaSpectraError as exc:
            near = None
            rho = math.nan
            failures.append(_failure(f"rho_star,T={_g17(st.t)}", exc))
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
    header = list(TRAJECTORY_HEADER_FIXED)
    header.extend(f"a_{n}" for n in leaf.exponents)
    header.append("t_0")
    header.extend(f"t_{n}" for n in leaf.exponents)
    header.extend(("rho_star", "univalence_margin"))
    if v["driver"] == "moments":
        zeta0 = tuple(a / v["r0"] for a in v["a0"])
        try:
            driver = MomentDriver(
                initial_state(ParamPoint(leaf, zeta0, r=v["r0"])))
        except TodaSpectraError as exc:
            write_csv(out / "trajectory.csv", header, [])
            return ["trajectory.csv"], extra, [_failure("initial", exc)], 1, 0
    else:
        zeta0, rate = v["zeta0"], v["rate"]
        zfun = lambda t: tuple(z + r * t for z, r in zip(zeta0, rate))
        driver = SliceDriver(leaf, zfun)

    times = np.linspace(0.0, v["t_max"], v["steps"] + 1)
    states = []
    for t in times:
        try:
            states.append(driver.state(float(t)))
        except TodaSpectraError as exc:
            failures.append(_failure(f"T={_g17(t)}", exc))
            break
    state_failures = len(failures)
    write_csv(out / "trajectory.csv", header,
              _trajectory_rows(states, failures))
    ok = len(states) - (len(failures) - state_failures)

    if v["detect"]:
        try:
            rep = detect_thresholds(driver, v["t_max"])
            extra["thresholds"] = {
                "T_c": _jf(rep.t_c), "T_univ": _jf(rep.t_univ),
                "margin_at_Tc": _jf(rep.margin_at_tc),
                "separation_verdict": (None if rep.separated is None
                                       else bool(rep.separated)),
            }
        except TodaSpectraError as exc:
            failures.append(_failure("thresholds", exc))
    return ["trajectory.csv"], extra, failures, len(times), ok


def _run_leaves(rc: RunConfig, out: Path, threads):
    v = rc.values
    b_lo, b_hi, b_n = v["b_grid"]
    s_lo, s_hi, s_n = v["second_grid"]
    bs = np.linspace(b_lo, b_hi, b_n)
    seconds = np.linspace(s_lo, s_hi, s_n)
    table = phase_diagram(v["kind"], bs, seconds)
    failures = [{"id": f"b={_g17(cell.b)},second={_g17(cell.second)}",
                 "status": cell.error_code, "detail": ""}
                for cell in table.cells if cell.error_code]
    # a PhaseCell holds the phase.csv columns in PHASE_HEADER order
    write_csv(out / "phase.csv", PHASE_HEADER, table.cells)
    extra = {"contour": [[_jf(b), _jf(sec)] for b, sec in table.contour]}
    if v["gamma_c"]:
        gc = gamma_c_solve(GAMMA_C_TOL)
        extra["gamma_c"] = {"value": _jf(gc), "tol": _jf(GAMMA_C_TOL),
                            "status": "root of rho_char(1, gamma) = 1"}
    return (["phase.csv"], extra, failures, len(table.cells),
            len(table.cells) - len(failures))


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
        # lowercased like the keys configparser reads from the file
        sections.setdefault(sec.strip(), {})[key.strip().lower()] = value.strip()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="toda-spectra",
        description="Series, spectral-scan, Laplacian-growth, and explicit-leaf "
                    "computations serialized to CSV/JSON for external plotting.",
        epilog="Any config key can be overridden with --set SECTION.KEY=VALUE; "
               "flags take precedence over the config file.  --threads "
               "defaults to the CPU count (at most 4).")
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
        p.add_argument("--out", metavar="DIR", default=".",
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
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads: expected a positive integer")
        rc = parse_run_config(args.command, sections)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # --out and --threads are flags, not config keys, so the summary (and
    # its hash) do not depend on where and how parallel the run happened
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    csvs, extra, failures, total, ok = _RUNNERS[rc.command](rc, out,
                                                            args.threads)
    summary = {
        "schema": 1,
        "command": rc.command,
        "config": rc.sections,
        "config_sha256": config_sha256(rc.sections),
        "outputs": {"csv": csvs},
        "points": {"total": total, "failed": total - ok, "ok": ok},
        "failures": failures,
    }
    summary.update(extra)
    _atomic_write(out / f"{rc.command}_summary.json",
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

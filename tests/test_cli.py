"""Tests for the command-line front end: parsing, artifacts, determinism."""

import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_csv, read_summary
from csv_oracle import csv_text
from toda_spectra import (NoConvergence, NoDominantOrbit, branch_points, cli,
                          laplacian_growth)

G17 = re.compile(r"^-?(\d+(\.\d+)?([eE][+-]?\d+)?|inf|nan)$")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SERIES_INI = """\
[run]
command = series

[leaf]
exponents = 2

[series]
zeta = 0.2
order = 12
p = 1 2
"""

CHAR_INI = """\
[run]
command = char

[leaf]
exponents = 2

[char]
zeta = 0.2
"""

LEAVES_INI = """\
[run]
command = leaves

[leaves]
kind = pole
b_min = 0.3
b_max = 0.4
b_points = 2
c_min = 0.04
c_max = 0.2
c_points = 2
"""


# ---------------------------------------------------------------------------
# happy path artifacts


def test_series_run_artifacts(tmp_path):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    out = tmp_path / "out"
    assert cli.main(["series", "--config", str(cfgfile),
                     "--out", str(out)]) == 0

    csv = read_csv(out / "series.csv")
    assert list(csv) == ["p", "m", "value"]
    sel = (csv["p"] == 1) & (csv["m"] == 1)
    assert csv["value"][sel][0] == pytest.approx(0.2, rel=1e-15)

    summary = read_summary(out, "series")
    assert summary["schema"] == 1
    assert summary["command"] == "series"
    assert re.fullmatch(r"[0-9a-f]{64}", summary["config_sha256"])
    assert summary["points"]["failed"] == 0
    assert summary["outputs"]["csv"] == ["series.csv"]
    # floats are emitted in full round-trip precision
    body = (out / "series.csv").read_text().splitlines()[1:]
    for line in body:
        for tok in line.split(","):
            assert G17.match(tok), tok


def test_summary_config_echo_hashes_back(tmp_path):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    out = tmp_path / "out"
    assert cli.main(["series", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    summary = read_summary(out, "series")
    echoed = {sec: dict(kv) for sec, kv in summary["config"].items()}
    assert cli.config_sha256(echoed) == summary["config_sha256"]


def test_char_run_reports_dominant_data(tmp_path):
    cfgfile = _write(tmp_path, "char.ini", CHAR_INI)
    out = tmp_path / "out"
    assert cli.main(["char", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    csv = read_csv(out / "char_points.csv")
    assert list(csv)[:4] == ["index", "x_re", "x_im", "lambda_re"]
    assert np.allclose(np.abs(csv["x_re"]), 1.0 / (2.0 * np.sqrt(0.2)))
    summary = read_summary(out, "char")
    assert summary["dominant"]["rho_star"] == pytest.approx(
        1.0 / (2.0 * np.sqrt(0.2)), rel=1e-12)
    assert summary["dominant"]["epsilon"] > 0.0


def test_char_run_decides_a_gcd_one_leaf(tmp_path):
    # {2,3} has gcd 1: u_1 = 0 structurally, and the dominant point
    # x_* = 1.25 (root u = 2 of 1 - 0.05 u^2 - 0.1 u^3) is still decided
    cfgfile = _write(tmp_path, "char.ini", CHAR_INI.replace(
        "exponents = 2", "exponents = 2 3").replace(
        "zeta = 0.2", "zeta = 0.05 0.05"))
    out = tmp_path / "out"
    assert cli.main(["char", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    summary = read_summary(out, "char")
    assert summary["failures"] == []
    assert summary["dominant"]["rho_star"] == pytest.approx(1.25, rel=1e-12)


def test_repeat_runs_byte_identical(tmp_path):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["series", "--config", str(cfgfile),
                         "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "series.csv").read_bytes() \
        == (outs[1] / "series.csv").read_bytes()
    assert (outs[0] / "series_summary.json").read_bytes() \
        == (outs[1] / "series_summary.json").read_bytes()


def test_csv_rows_match_value_by_value_rendering(tmp_path):
    rows = [
        (True, np.True_, 1, np.int64(-7), 0.1, np.float64(1e-300), "ok"),
        (False, np.False_, 0, np.int64(2**62), math.nan, math.inf, ""),
        (np.bool_(True), False, -3, np.int64(0), -math.inf, -0.0, "x y"),
        (1, True, np.float64(math.nan), 2.5e17, "", np.int64(5), 1 / 3),
        [np.False_, -0.0, np.float64(-math.inf), 7, "tail", True, 0.0],
        ("only text",),
    ]
    path = tmp_path / "mixed.csv"
    for _ in range(2):  # the second pass reads every template from the cache
        cli.write_csv(path, ("h",), rows)
        assert path.read_bytes() == csv_text(("h",), rows).encode()
    assert path.read_text().splitlines()[1].startswith("true,true,1,-7,")


def test_set_overrides_config_file(tmp_path):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    out = tmp_path / "out"
    assert cli.main(["series", "--config", str(cfgfile), "--out", str(out),
                     "--set", "series.order=5",
                     "--set", "series.p=1"]) == 0
    csv = read_csv(out / "series.csv")
    assert csv["m"].max() == 5
    assert set(csv["p"]) == {1.0}
    summary = read_summary(out, "series")
    assert summary["config"]["series"]["order"] == "5"


def test_no_nan_tokens_in_summary_json(tmp_path):
    cfgfile = _write(tmp_path, "char.ini", CHAR_INI)
    out = tmp_path / "out"
    assert cli.main(["char", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    text = (out / "char_summary.json").read_text()
    json.loads(text, parse_constant=lambda s: pytest.fail(
        f"bare {s} token in summary JSON"))


# ---------------------------------------------------------------------------
# failure handling


def test_partial_failure_returns_two(tmp_path, capsys):
    cfgfile = _write(tmp_path, "leaves.ini", LEAVES_INI)
    out = tmp_path / "out"
    assert cli.main(["leaves", "--config", str(cfgfile),
                     "--out", str(out)]) == 2
    csv = read_csv(out / "phase.csv")          # artifacts still written
    assert len(csv["b"]) == 4
    summary = read_summary(out, "leaves")
    assert summary["points"]["failed"] == 1
    assert summary["failures"][0]["status"] == "Degenerate"


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _assert_start_failure(out, command, csv_name, ident, status):
    summary = read_summary(out, command)
    assert summary["points"] == {"total": 1, "failed": 1, "ok": 0}
    assert [(f["id"], f["status"]) for f in summary["failures"]] \
        == [(ident, status)]
    csv = read_csv(out / csv_name)             # the header only
    assert csv and all(len(col) == 0 for col in csv.values())


def test_lg_nonunivalent_start_is_recorded(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["lg", "--config", str(CONFIGS / "lg_onemode.ini"),
                     "--set", "lg.a0=1.5", "--out", str(out)]) == 2
    _assert_start_failure(out, "lg", "trajectory.csv", "initial",
                          "UnivalenceLost")


def test_lg_state_whose_rho_star_fails_keeps_its_row(tmp_path):
    # {2,3} at zeta = (-0.05, -0.05): a complex pair ties for the least
    # modulus 1.32048, so dominant_data refuses every state
    cfgfile = _write(tmp_path, "lg.ini", """\
[leaf]
exponents = 2 3

[lg]
driver = slice
zeta0 = -0.05 -0.05
rate = 0 0
t_max = 0.1
steps = 2
detect = false
""")
    out = tmp_path / "out"
    assert cli.main(["lg", "--config", str(cfgfile), "--out", str(out),
                     "--threads", "1"]) == 2
    csv = read_csv(out / "trajectory.csv")
    assert len(csv["T"]) == 3 and np.isnan(csv["rho_star"]).all()
    assert np.isfinite(csv["univalence_margin"]).all()
    summary = read_summary(out, "lg")
    assert [(f["id"], f["status"]) for f in summary["failures"]] == [
        (f"rho_star,T={cli._g17(t)}", "NoDominantOrbit")
        for t in (0.0, 0.05, 0.1)]
    assert "1.32048" in summary["failures"][0]["detail"]


def test_summary_points_count_points_not_failures(tmp_path):
    # the {2,3} slice whose every state is refused (above), with
    # detection: three failed states and the run-level thresholds failure
    # make three failed points of three
    cfgfile = _write(tmp_path, "lg.ini", """\
[leaf]
exponents = 2 3

[lg]
driver = slice
zeta0 = -0.05 -0.05
rate = 0 0
t_max = 0.1
steps = 2
detect = true
""")
    out = tmp_path / "out"
    assert cli.main(["lg", "--config", str(cfgfile), "--out", str(out),
                     "--threads", "1"]) == 2
    summary = read_summary(out, "lg")
    assert summary["points"] == {"total": 3, "failed": 3, "ok": 0}
    assert [f["id"] for f in summary["failures"]][-1] == "thresholds"


def _counting(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("config,rays,moments", [
    ("lg_demo.ini", 2, 25), ("lg_onemode.ini", 2, 81)])
def test_growth_runs_certify_once_per_chain(tmp_path, monkeypatch, config,
                                            rays, moments):
    # the recorded rows and the threshold probes are two chains, each
    # certified by rays at its first state only.  The slice's probes skip
    # the moment quadrature, so only its 25 recorded rows integrate; the
    # moment driver's probes are its cached, quadrature-checked states
    counts = {}
    _counting(monkeypatch, branch_points, "_ray_value", counts)
    _counting(monkeypatch, laplacian_growth, "harmonic_moments", counts)
    assert cli.main(["lg", "--config", str(CONFIGS / config), "--out",
                     str(tmp_path / "out"), "--threads", "1"]) == 0
    assert (counts["_ray_value"], counts["harmonic_moments"]) \
        == (rays, moments)


def test_trajectory_rows_recertify_after_a_failed_row(tmp_path,
                                                      monkeypatch):
    # the chain of recorded rows restarts from a fresh certification after
    # a row whose rho_* failed
    nears = []
    inner = laplacian_growth.dominant_data

    def flaky(point, *, near=None):
        nears.append(near)
        if len(nears) == 2:
            raise NoDominantOrbit("refused for the test")
        return inner(point, near=near)

    monkeypatch.setattr(laplacian_growth, "dominant_data", flaky)
    out = tmp_path / "out"
    assert cli.main(["lg", "--config", str(CONFIGS / "lg_demo.ini"),
                     "--set", "lg.steps=3", "--set", "lg.detect=false",
                     "--out", str(out), "--threads", "1"]) == 2
    assert [near is None for near in nears] == [True, False, True, False]
    assert read_summary(out, "lg")["points"] == {"total": 4, "failed": 1,
                                                 "ok": 3}


def test_stalled_growth_march_is_recorded(tmp_path, monkeypatch):
    # every moment Newton solve fails: the march halves its step below
    # DT_MIN and raises TrajectoryStalled, at the first step and again in
    # threshold detection; the T = 0 row is kept
    monkeypatch.setattr(laplacian_growth, "_newton_moments",
                        lambda leaf, targets, seed: None)
    out = tmp_path / "out"
    assert cli.main(["lg", "--config", str(CONFIGS / "lg_onemode.ini"),
                     "--out", str(out), "--threads", "1"]) == 2
    summary = read_summary(out, "lg")
    failures = summary["failures"]
    assert [(f["id"], f["status"]) for f in failures] == [
        ("T=0.10000000000000001", "TrajectoryStalled"),
        ("thresholds", "TrajectoryStalled")]
    assert all("fell below" in f["detail"] for f in failures)
    assert summary["points"] == {"total": 21, "failed": 20, "ok": 1}
    assert "thresholds" not in summary
    assert list(read_csv(out / "trajectory.csv")["T"]) == [0.0]


def test_scan_unbracketed_critical_parameter_is_recorded(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["scan", "--config",
                     str(CONFIGS / "scan_near_critical.ini"),
                     "--set", "scan.crit_bracket=0.01 0.02",
                     "--out", str(out), "--threads", "1"]) == 2
    _assert_start_failure(out, "scan", "spectra.csv", "zeta_critical",
                          "NotBracketed")


def test_scan_bracket_past_the_critical_parameter_is_recorded(tmp_path):
    # rho_* < 1 all over [0.15, 0.2]: the crossing, at 0.1184, lies below
    # the bracket, and its start is not taken for it
    out = tmp_path / "out"
    assert cli.main(["scan", "--config",
                     str(CONFIGS / "scan_near_critical.ini"),
                     "--set", "scan.crit_bracket=0.15 0.2",
                     "--out", str(out), "--threads", "1"]) == 2
    _assert_start_failure(out, "scan", "spectra.csv", "zeta_critical",
                          "NotBracketed")


def test_char_solve_failure_is_recorded(tmp_path, monkeypatch):
    def fail(point):
        raise NoConvergence("no characteristic solutions")

    monkeypatch.setattr(cli, "solve_characteristic", fail)
    cfgfile = _write(tmp_path, "char.ini", CHAR_INI)
    out = tmp_path / "out"
    assert cli.main(["char", "--config", str(cfgfile),
                     "--out", str(out)]) == 2
    _assert_start_failure(out, "char", "char_points.csv", "char",
                          "NoConvergence")


@pytest.mark.parametrize("command", ["char", "spectrum"])
def test_all_zero_zeta_is_config_error(tmp_path, capsys, command):
    cfgfile = _write(tmp_path, "zero.ini",
                     f"[leaf]\nexponents = 3 6\n\n[{command}]\nzeta = 0 0\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfgfile),
                     "--out", str(out)]) == 1
    assert f"[{command}] zeta" in capsys.readouterr().err
    assert not (out / f"{command}_summary.json").exists()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert cli.main(["series", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "nope.ini" in capsys.readouterr().err


@pytest.mark.parametrize("override,needle", [
    ("series.order=ten", "order"),
    ("series.zeta=0.1 0.2", "zeta"),
    ("leaf.exponents=4 2", "exponents"),
    ("series.alpha=0", "alpha"),
])
def test_invalid_values_name_the_key(tmp_path, capsys, override, needle):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    assert cli.main(["series", "--config", str(cfgfile),
                     "--set", override]) == 1
    err = capsys.readouterr().err
    assert needle in err


def test_malformed_set_flag(tmp_path, capsys):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    assert cli.main(["series", "--config", str(cfgfile),
                     "--set", "no-dot-or-equals"]) == 1
    assert "--set" in capsys.readouterr().err


def test_subcommand_needs_matching_sections(tmp_path, capsys):
    # the subcommand governs which sections are required, so running a
    # series config under `char` surfaces the missing [char] keys
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    assert cli.main(["char", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "[char] zeta" in err


SCAN_J12_INI = """\
[leaf]
exponents = 3 6

[renorm]
J = 12

[scan]
zeta_fixed = 0.01
crit_bracket = 0.05 0.2
"""


def test_config_file_keys_match_case_insensitively(tmp_path):
    # configparser reads `J = 12` as the key `j`; it must still set J
    sections = cli._load_sections(_write(tmp_path, "scan.ini", SCAN_J12_INI))
    rc = cli.parse_run_config("scan", sections)
    assert [c.J for c in rc.values["blocks"]] == [12, 12]
    assert rc.sections["renorm"]["J"] == "12"
    # an override given later wins over the file, in either spelling
    for key in ("J", "j"):
        sections = cli._load_sections(tmp_path / "scan.ini")
        cli._apply_overrides(sections, [f"renorm.{key}=9"])
        blocks = cli.parse_run_config("scan", sections).values["blocks"]
        assert [c.J for c in blocks] == [9, 9]


def test_misspelt_override_is_rejected(tmp_path, capsys):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    out = tmp_path / "out"
    assert cli.main(["series", "--config", str(cfgfile), "--out", str(out),
                     "--set", "series.ordr=40"]) == 1
    assert "[series] ordr" in capsys.readouterr().err
    assert not (out / "series_summary.json").exists()


def test_stray_config_key_is_rejected(tmp_path):
    text = SCAN_J12_INI.replace("J = 12", "J = 12\ntail_cutoff = 500")
    sections = cli._load_sections(_write(tmp_path, "scan.ini", text))
    with pytest.raises(cli.ConfigError, match=r"\[renorm\] tail_cutoff"):
        cli.parse_run_config("scan", sections)


def test_threads_flag_must_be_positive(tmp_path, capsys):
    cfgfile = _write(tmp_path, "series.ini", SERIES_INI)
    out = tmp_path / "out"
    assert cli.main(["series", "--config", str(cfgfile), "--out", str(out),
                     "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (out / "series_summary.json").exists()


@pytest.mark.parametrize("key,run_keys", [
    ("command", "command = scan"),
    ("deterministic", "command = series\ndeterministic = false"),
], ids=["command", "deterministic"])
def test_run_keys_that_disagree_with_the_run_are_rejected(tmp_path, key,
                                                          run_keys):
    path = _write(tmp_path, "series.ini",
                  SERIES_INI.replace("command = series", run_keys))
    sections = cli._load_sections(str(path))
    with pytest.raises(cli.ConfigError, match=rf"\[run\] {key}"):
        cli.parse_run_config("series", sections)
    assert cli.main(["series", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1


def test_run_keys_that_agree_with_the_run_parse(tmp_path):
    text = SERIES_INI.replace("command = series",
                              "command = Series\ndeterministic = yes")
    sections = cli._load_sections(_write(tmp_path, "series.ini", text))
    rc = cli.parse_run_config("series", sections)
    assert rc.sections["run"] == {"command": "series", "deterministic": "true"}


@pytest.mark.parametrize("alpha,p_top", [("30", 211), ("26.9", 212)])
def test_overflowing_renorm_weights_are_config_errors(tmp_path, capsys,
                                                      alpha, p_top):
    # alpha = 26.9 overflows only the q = 2 block's weights (p_J = 212)
    out = tmp_path / "out"
    assert cli.main(["scan", "--config",
                     str(CONFIGS / "scan_near_critical.ini"),
                     "--out", str(out), "--threads", "1",
                     "--set", "scan.points=3", "--set", "scan.delta_min=1e-2",
                     "--set", f"renorm.alpha={alpha}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [renorm]") and f"p_J={p_top}" in err
    assert not (out / "scan_summary.json").exists()


SPECTRUM_INI = "[leaf]\nexponents = 2\n\n[spectrum]\nzeta = 0.2\n"


@pytest.mark.parametrize("command,config,key,value", [
    ("scan", "scan_near_critical", "renorm.tail_tol", "1e-12"),
    ("scan", "scan_near_critical", "scan.k_max", "8"),
    ("spectrum", None, "spectrum.k_max", "8"),
    ("lg", "lg_onemode", "lg.n_quad", "512"),
    ("lg", "lg_demo", "lg.t_tol", "1e-6"),
    ("lg", "lg_demo", "lg.r", "1.0"),
    ("leaves", "log_phase", "leaves.level", "1.0"),
    ("leaves", "pole_phase", "leaves.on_cut", "split"),
    ("leaves", "log_phase", "leaves.gamma_c_tol", "1e-5"),
    # dominant_data continues the branch and reads no series
    ("char", None, "char.order", "250"),
    # the dominant orbit is always certified
    ("char", None, "char.dominant", "true"),
    ("lg", "lg_onemode", "lg.detect_order", "200"),
    # a scan point seeds from series_engine.SEED_ORDER
    ("spectrum", None, "spectrum.order", "250"),
    ("scan", "scan_near_critical", "scan.order", "250"),
    # zeta_c always comes from the certified solve on crit_bracket
    ("scan", "scan_near_critical", "scan.zeta_critical", "0.11836232650560907"),
    # where and how parallel a run happens are the --out/--threads flags
    ("series", None, "run.out", "."),
    ("scan", "scan_near_critical", "run.threads", "1"),
])
def test_removed_keys_are_config_errors(tmp_path, capsys, command, config,
                                        key, value):
    # constants of the program, not keys: even the value it uses is refused
    inline = {"spectrum": SPECTRUM_INI, "char": CHAR_INI, "series": SERIES_INI}
    cfgfile = (CONFIGS / f"{config}.ini" if config
               else _write(tmp_path, "run.ini", inline[command]))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfgfile),
                     "--out", str(out), "--threads", "1",
                     "--set", f"{key}={value}"]) == 1
    sec, name = key.split(".")
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key(s)")
    assert f"[{sec}] {name}" in err
    assert not (out / f"{command}_summary.json").exists()


def test_gamma_c_on_the_pole_leaf_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["leaves", "--config", str(CONFIGS / "pole_phase.ini"),
                     "--out", str(out), "--set", "leaves.gamma_c=true"]) == 1
    assert "[leaves] gamma_c" in capsys.readouterr().err
    assert not (out / "leaves_summary.json").exists()


@pytest.mark.parametrize("command,text,key", [
    ("series", SERIES_INI, "series.order"),
])
def test_orders_above_the_ceiling_are_config_errors(tmp_path, capsys,
                                                    command, text, key):
    from toda_spectra.series_engine import MAX_ORDER
    cfgfile = _write(tmp_path, "run.ini", text)
    sec, name = key.split(".")
    assert cli.main([command, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"),
                     "--set", f"{key}={MAX_ORDER + 1}"]) == 1
    assert f"[{sec}] {name}" in capsys.readouterr().err
    sections = cli._load_sections(str(cfgfile))
    cli._apply_overrides(sections, [f"{key}={MAX_ORDER}"])
    cli.parse_run_config(command, sections)


@pytest.mark.parametrize("name", sorted(
    p.name for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.ini")))
def test_shipped_configs_parse(name):
    path = Path(__file__).resolve().parents[1] / "configs" / name
    sections = cli._load_sections(str(path))
    rc = cli.parse_run_config(sections["run"]["command"], sections)
    # the canonical echo parses back to itself
    again = cli.parse_run_config(rc.command, rc.sections)
    assert again.sections == rc.sections


def test_scan_grid_over_ceiling_exits_two(tmp_path, monkeypatch):
    from toda_spectra import series_engine
    # zeta = 0.24995 needs a 4096-node grid
    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 2048)
    cfgfile = _write(tmp_path, "spectrum.ini", """\
[leaf]
exponents = 2

[renorm]
J = 12

[spectrum]
zeta = 0.24995
""")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(cfgfile),
                     "--out", str(out), "--threads", "1"]) == 2
    assert set(read_csv(out / "spectra.csv")["status"]) == {"GridTooLarge"}
    assert read_summary(out, "spectrum")["circle_grids"] == [
        {"delta": 0.0, "n_grid": 0, "doublings": 0, "newton_iterations": 0,
         "check_error": None}]
    # without the ceiling the point passes on 4096 nodes, each solved by a
    # few Newton iterations from its seed
    monkeypatch.undo()
    assert cli.main(["spectrum", "--config", str(cfgfile),
                     "--out", str(out), "--threads", "1"]) == 0
    (grid,) = read_summary(out, "spectrum")["circle_grids"]
    assert grid.pop("check_error") < 1e-8
    assert grid == {"delta": 0.0, "n_grid": 4096, "doublings": 2,
                    "newton_iterations": 5}


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def _readme_cli_lines():
    """The ``toda-spectra ...`` commands of the README's *Command-line
    usage* section, with backslash continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Command-line usage", 1)[1].split("\n## ", 1)[0]
    joined = section.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("toda-spectra ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.config and args.config.startswith("configs/"), line
        assert (Path(__file__).resolve().parents[1] / args.config).is_file()


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing it at start-up roughly
    # tripled the CLI's set-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import toda_spectra.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

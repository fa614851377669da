"""Tests for the command-line front end: parsing, artifacts, determinism."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import read_csv, read_summary
from toda_spectra import cli

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
order = 220
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

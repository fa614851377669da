"""Tests for the closed-form pole and log leaf families."""

import math
from pathlib import Path

import numpy as np
import pytest

from toda_spectra import (Degenerate, DegenerateSeries, LogBranchCut,
                          LogLeafPoint, NotBracketed, PhaseTable,
                          PoleLeafPoint, gamma_c_solve, log_rho_char,
                          phase_diagram, pole_rho_char)
from toda_spectra import cli, explicit_leaves

import leaf_oracle
from germ_oracle import (log_germ_envelope_radius, log_germ_radius,
                         pole_germ_radius)


# ---------------------------------------------------------------------------
# parameter containers


@pytest.mark.parametrize("b,c", [(1.0, 0.1), (-1.2, 0.1), (0.5 + 0.9j, 0.1),
                                 (0.2, 0.0), (0.2, -0.3)])
def test_pole_point_rejects(b, c):
    with pytest.raises(ValueError):
        PoleLeafPoint(b, c)


@pytest.mark.parametrize("b,g", [(0.0, 0.1), (1.0, 0.1), (-0.2, 0.1),
                                 (0.3, 0.0), (0.3, -0.1)])
def test_log_point_rejects(b, g):
    with pytest.raises(ValueError):
        LogLeafPoint(b, g)


# ---------------------------------------------------------------------------
# pole leaf closed forms


def test_pole_rho_char_hand_values():
    rho, xp, xm = pole_rho_char(PoleLeafPoint(0.3, 0.04))
    assert xp == pytest.approx(1.0 / 0.7, rel=1e-14)
    assert xm == pytest.approx(-10.0, rel=1e-14)
    assert rho == pytest.approx(1.0 / 0.7, rel=1e-14)


def test_pole_rho_char_symmetric_case():
    rho, xp, xm = pole_rho_char(PoleLeafPoint(0.0, 0.09))
    assert xp == pytest.approx(1.0 / 0.6, rel=1e-14)
    assert xm == pytest.approx(-1.0 / 0.6, rel=1e-14)
    assert rho == pytest.approx(1.0 / 0.6, rel=1e-14)


def test_pole_rho_char_degenerate_root():
    # b - 2 sqrt(c) = 0 sends one characteristic value to infinity
    with pytest.raises(Degenerate):
        pole_rho_char(PoleLeafPoint(0.4, 0.04))


def test_pole_germ_radius_symmetric_series():
    got = pole_germ_radius(PoleLeafPoint(0.0, 0.09), 320)
    assert abs(got - 1.0 / 0.6) <= 1e-3 / 0.6


def test_pole_germ_radius_generic_point():
    pt = PoleLeafPoint(0.35, 0.05)
    rho = pole_rho_char(pt)[0]
    assert abs(pole_germ_radius(pt, 320) - rho) <= 1e-3 * rho


def test_pole_germ_radius_needs_orders():
    with pytest.raises(ValueError):
        pole_germ_radius(PoleLeafPoint(0.3, 0.04), 80)


# ---------------------------------------------------------------------------
# log leaf characteristic values


def test_log_conjugate_regime_moduli_tie():
    data = log_rho_char(LogLeafPoint(0.1, 0.05))
    assert data.conjugate_pair
    assert abs(abs(data.x_plus) - abs(data.x_minus)) \
        <= 1e-10 * abs(data.x_plus)
    assert data.rho == pytest.approx(abs(data.x_plus), rel=1e-14)
    assert data.u_minus == pytest.approx(np.conj(data.u_plus), rel=1e-12)


def test_log_cut_regime_needs_policy():
    with pytest.raises(LogBranchCut):
        log_rho_char(LogLeafPoint(0.3, 0.05))          # on_cut="error"
    with pytest.raises(ValueError):
        log_rho_char(LogLeafPoint(0.3, 0.05), on_cut="bogus")


def test_log_split_regime_frozen_values():
    data = log_rho_char(LogLeafPoint(0.3, 0.05), on_cut="split")
    assert not data.conjugate_pair
    assert abs(data.x_plus) == pytest.approx(4.9160161021, abs=1e-9)
    assert abs(data.x_minus) == pytest.approx(4.3100581629, abs=1e-9)
    assert data.rho == pytest.approx(4.3100581629, abs=1e-9)


def test_log_split_real_roots_vieta():
    # above the discriminant the two u-roots are real with product 1/(gamma b)
    b, g = 0.45, 0.1
    data = log_rho_char(LogLeafPoint(b, g), on_cut="split")
    prod = data.u_plus * data.u_minus
    assert prod == pytest.approx(1.0 / (g * b), rel=1e-12)
    assert abs(data.u_plus.imag) < 1e-14 and abs(data.u_minus.imag) < 1e-14


# ---------------------------------------------------------------------------
# log germ series vs characteristic radius


def test_log_envelope_radius_tracks_characteristic_value():
    for b, gamma in [(0.1, 0.05), (0.3, 0.05), (0.5, 0.1)]:
        p = LogLeafPoint(b, gamma)
        rho = log_rho_char(p, on_cut="split").rho
        got = log_germ_envelope_radius(p, 1200)
        assert abs(got - rho) <= 1e-2 * rho, (b, gamma, got, rho)


@pytest.mark.xfail(
    strict=True,
    raises=DegenerateSeries,
    reason="the unscaled germ recursion underflows: coefficient 370 at "
    "(b, gamma) = (0.1, 0.05) is exactly zero, so radius_estimate raises "
    "DegenerateSeries before any ratio is extrapolated",
)
def test_log_ratio_fit_radius_matches_characteristic_value():
    for b, gamma in [(0.1, 0.05), (0.3, 0.05)]:
        p = LogLeafPoint(b, gamma)
        rho = log_rho_char(p, on_cut="split").rho
        assert abs(log_germ_radius(p, 1200) - rho) <= 1e-2 * rho


def test_log_radius_order_guards():
    p = LogLeafPoint(0.2, 0.05)
    with pytest.raises(ValueError):
        log_germ_radius(p, 80)
    with pytest.raises(ValueError):
        log_germ_envelope_radius(p, 150)


# ---------------------------------------------------------------------------
# phase tables


def test_phase_diagram_pole_grid_and_errors():
    table = phase_diagram("pole", [0.3, 0.4], [0.04, 0.2])
    assert isinstance(table, PhaseTable)
    assert table.kind == "pole" and len(table.cells) == 4
    by_key = {(c.b, c.second): c for c in table.cells}
    good = by_key[(0.3, 0.04)]
    assert good.error_code == "" and good.rho_char == pytest.approx(
        1.0 / 0.7, rel=1e-12)
    bad = by_key[(0.4, 0.04)]
    assert bad.error_code == "Degenerate" and math.isnan(bad.rho_char)


def test_phase_diagram_conjugate_flag_flips_at_discriminant():
    gamma = 0.05
    table = phase_diagram("log", np.linspace(0.05, 0.5, 10), [gamma])
    for cell in table.cells:
        assert cell.conjugate_pair == (cell.b < 4.0 * gamma)


def test_phase_contour_solves_each_bracketed_column():
    b_values = np.linspace(-0.9, 0.9, 7)
    table = phase_diagram("pole", b_values, np.linspace(0.002, 0.6, 12))
    assert [b for b, _ in table.contour] == list(b_values)
    for b, c in table.contour:
        assert abs(pole_rho_char(PoleLeafPoint(b, c))[0] - 1.0) <= 1e-14


def test_phase_contour_keeps_grid_value_at_level():
    # b = 0, c = 1/4: x_+/- = +/-1, so rho_char is exactly 1 on the grid
    assert pole_rho_char(PoleLeafPoint(0.0, 0.25))[0] == 1.0
    for seconds in ([0.2, 0.25, 0.3], [0.25, 0.3]):
        assert phase_diagram("pole", [0.0], seconds).contour == ((0.0, 0.25),)


def test_phase_contour_drops_column_when_a_solve_fails(monkeypatch):
    grid = [0.2, 0.3]
    kernel = explicit_leaves._pole_kernel

    def fail_off_grid(b, c):
        v = kernel(b, c)
        off_grid = ~np.isin(c, grid)
        return v._replace(error_code=np.where(off_grid, "Degenerate",
                                              v.error_code))

    monkeypatch.setattr(explicit_leaves, "_pole_kernel", fail_off_grid)
    table = phase_diagram("pole", [0.0, 0.1], grid)
    assert all(cell.error_code == "" for cell in table.cells)
    assert table.contour == ()


# Per-cell scalar oracle (tests/leaf_oracle.py) against the grid kernels,
# on the shipped grids and on grids that meet every failure kind: |b| >= 1,
# c <= 0, b = +/-2 sqrt(c) exactly at (+/-0.4, 0.04); b outside (0, 1),
# gamma <= 0, and cells exactly on b = 4 gamma for the log leaf, whose
# grid also has real roots near 1/gamma b and 1 (gamma = 0.001), where
# u_- must come from Vieta's product.
EPS = np.finfo(float).eps
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FAILURE_GRIDS = {
    "pole": (np.array([-1.2, -1.0, -0.4, 0.0, 0.3, 0.4, 1.0]),
             np.array([-0.1, 0.0, 0.04, 0.25, 0.3])),
    "log": (np.array([-0.2, 0.0, 0.2, 0.4, 0.5, 1.0, 1.3]),
            np.array([-0.1, 0.0, 0.001, 0.05, 0.1, 0.125, 0.3])),
}


def _shipped_grid(name):
    sections = cli._load_sections(str(CONFIGS / f"{name}.ini"))
    v = cli.parse_run_config("leaves", sections).values
    return v["kind"], np.linspace(*v["b_grid"]), np.linspace(*v["second_grid"])


PHASE_GRIDS = {"pole_phase": _shipped_grid("pole_phase"),
               "log_phase": _shipped_grid("log_phase"),
               **{f"{kind}_failures": (kind, *grid)
                  for kind, grid in FAILURE_GRIDS.items()}}


@pytest.mark.parametrize("grid", list(PHASE_GRIDS))
def test_phase_diagram_matches_scalar_oracle(grid):
    kind, bs, seconds = PHASE_GRIDS[grid]
    got = phase_diagram(kind, bs, seconds)
    want = leaf_oracle.phase_diagram(kind, bs, seconds)
    assert [(c.b, c.second, c.conjugate_pair, c.error_code)
            for c in got.cells] == [(c.b, c.second, c.conjugate_pair,
                                     c.error_code) for c in want.cells]
    new = np.array([c[2:5] for c in got.cells], dtype=float)
    old = np.array([c[2:5] for c in want.cells], dtype=float)
    if kind == "pole":
        assert np.array_equal(new, old, equal_nan=True)
    else:
        # numpy's complex products and division against cmath's
        assert np.array_equal(np.isnan(new), np.isnan(old))
        ok = ~np.isnan(old)
        assert np.all(np.abs(new[ok] - old[ok]) <= 4 * EPS * np.abs(old[ok]))
    assert [b for b, _ in got.contour] == [b for b, _ in want.contour]
    for (_, s_new), (_, s_old) in zip(got.contour, want.contour):
        assert abs(s_new - s_old) <= 8 * EPS * abs(s_old)


def test_log_rho_char_matches_scalar_oracle():
    # the characteristic points and values themselves, not only their
    # moduli: the sign of arg(1 - b u) on the cut shows only here
    for b in (0.1, 0.3, 0.45, 0.9):
        for gamma in (0.001, 0.05, 0.1, 0.4):
            got = log_rho_char(LogLeafPoint(b, gamma), on_cut="split")
            want = leaf_oracle.log_point_char(b, gamma, "split")
            assert got.conjugate_pair == want.conjugate_pair
            for name in ("rho", "u_plus", "u_minus", "x_plus", "x_minus"):
                new, old = getattr(got, name), getattr(want, name)
                assert abs(new - old) <= 4 * EPS * abs(old), (b, gamma, name)


def test_failure_grids_meet_every_failure_kind():
    pole = phase_diagram("pole", *FAILURE_GRIDS["pole"])
    assert {c.error_code for c in pole.cells} == {"", "ValueError",
                                                   "Degenerate"}
    bs, gammas = FAILURE_GRIDS["log"]
    assert sum(b == 4.0 * g for b in bs for g in gammas if g > 0) == 3
    # the "error" policy, cell by cell
    got = explicit_leaves._log_kernel(bs[:, None], gammas, "error").error_code
    want = [[leaf_oracle.cell("log", b, g, on_cut="error").error_code
             for g in gammas] for b in bs]
    assert got.tolist() == want
    assert set(np.ravel(want)) == {"", "ValueError", "LogBranchCut"}


def test_phase_diagram_empty_grid():
    table = phase_diagram("pole", [], [])
    assert table.cells == () and table.contour == ()


def test_phase_diagram_rejects_unknown_kind():
    with pytest.raises(ValueError):
        phase_diagram("cubic", [0.1], [0.1])


def test_radius_profile_has_discriminant_cusp():
    """The split at b = 4 gamma leaves a 3/2-power cusp in rho_char(b)."""
    gamma = 0.05

    def slope_jump(b0, h=1e-6):
        r = lambda b: log_rho_char(LogLeafPoint(b, gamma),
                                   on_cut="split").rho
        return (r(b0 + h) + r(b0 - h) - 2.0 * r(b0)) / h

    assert abs(slope_jump(4.0 * gamma)) > 100.0 * abs(slope_jump(0.3))


# ---------------------------------------------------------------------------
# critical gamma


def test_gamma_c_solver_guards(monkeypatch):
    with pytest.raises(ValueError):
        gamma_c_solve(1e-7)
    monkeypatch.setattr(explicit_leaves, "GAMMA_C_BRACKET", (0.3, 0.5))
    with pytest.raises(NotBracketed):
        gamma_c_solve(1e-3)


def test_gamma_c_refines_consistently():
    coarse = gamma_c_solve(1e-3)
    fine = gamma_c_solve(1e-4)
    assert abs(coarse - fine) <= 1.5e-3



def test_gamma_c_matches_envelope_minimum():
    """gamma_c_solve takes the sign of rho_char(1, gamma) - 1 to say whether
    the unit level reaches interior b.  Checked against that question
    asked on b < 1 alone (``envelope_oracle``), over the bracket and on
    both sides of gamma_c."""
    optimize = pytest.importorskip("scipy.optimize")
    from envelope_oracle import boundary_limit, unit_level_attained

    limit_root = optimize.brentq(lambda g: boundary_limit(g) - 1.0,
                                 0.1, 0.5, xtol=1e-14)
    gammas = list(np.linspace(0.1, 0.5, 41)) + [
        limit_root + d for d in (-1e-4, -1e-5, -1e-6, 1e-6, 1e-5, 1e-4)]
    for gamma in gammas:
        rho_1 = float(explicit_leaves._log_kernel(1.0, gamma).rho)
        assert unit_level_attained(gamma) == (rho_1 < 1.0), gamma
        # at gamma = 1/4 the discriminant b = 4 gamma sits at b = 1, and
        # its 3/2-power cusp is a correction the extrapolation leaves in
        tol = 1e-9 if abs(gamma - 0.25) < 1e-3 else 1e-10
        assert abs(rho_1 - boundary_limit(gamma)) <= tol, gamma
    assert abs(gamma_c_solve(1e-5) - 0.27996520996093743) <= 1e-5

"""Span tracing of toda_spectra from outside the package.

``install()`` replaces public functions on the module attributes through
which callers look them up (``spectral_scan.gram_block``,
``hessian_blocks.branch_power_rows``, ...) with wrappers that record a span
per call: calls, calls that raised, inclusive time of the outermost span of
each name, and self time (duration minus the direct child spans).  Spans
are kept in memory; ``layer_metrics()`` turns them into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
from time import perf_counter


class _Stat:
    __slots__ = ("calls", "raised", "total", "self")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.n_grid_max = 0
        self.scan_cells = 0
        self.phase_cells = 0
        self.deepest_point_s = 0.0

    def reset(self) -> None:
        """Zero every figure in place (the wrappers keep their _Stat)."""
        for st in self.stats.values():
            st.calls = st.raised = 0
            st.total = st.self = 0.0
        self.n_grid_max = self.scan_cells = self.phase_cells = 0
        self.deepest_point_s = 0.0

    def stat(self, name: str) -> _Stat:
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def wrap(self, fn, name: str):
        stack = self._stack
        st = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.calls += 1
                st.self += dt - frame[1]
                if all(f[0] != name for f in stack):
                    st.total += dt
                if stack:
                    stack[-1][1] += dt

        return traced

    def patch(self, owner, attr: str, name: str, fn=None):
        setattr(owner, attr, self.wrap(fn or getattr(owner, attr), name))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported package."""
    from toda_spectra import (branch_points, cli, explicit_leaves,
                              hessian_blocks, laplacian_growth, series_engine,
                              spectral_scan)

    def patch_all(owners, attr, name):
        # one wrapper per lookup site, each around the original function
        orig = getattr(owners[0], attr)
        for owner in owners:
            tracer.patch(owner, attr, name, orig)

    tracer.patch(cli, "main", "cli")

    # spectral_scan: scan_path, with grid points delimited by the path calls
    orig_scan_path = cli.scan_path

    def scan_path(path, delta_grid, *args, **kwargs):
        marks = []  # (delta, time the point started)

        def timed_path(delta):
            marks.append((float(delta), perf_counter()))
            return path(delta)

        out = orig_scan_path(timed_path, delta_grid, *args, **kwargs)
        end = perf_counter()
        tracer.scan_cells += len(out)
        if marks:
            i = min(range(len(marks)), key=lambda k: marks[k][0])
            stop = marks[i + 1][1] if i + 1 < len(marks) else end
            tracer.deepest_point_s += stop - marks[i][1]
        return out

    tracer.patch(cli, "scan_path", "spectral_scan.scan_path",
                 functools.wraps(orig_scan_path)(scan_path))
    tracer.patch(cli, "fit_log_scaling", "spectral_scan.fit_log_scaling")

    # hessian_blocks, as called by the scan
    tracer.patch(spectral_scan, "gram_block", "hessian_blocks.gram_block")
    tracer.patch(spectral_scan, "eigenvalues", "hessian_blocks.eigenvalues")
    tracer.patch(spectral_scan, "check_alpha_admissible",
                 "hessian_blocks.check_alpha_admissible")

    # series_engine: coefficient rows (series chain or circle table)
    patch_all((hessian_blocks, cli), "branch_power_rows",
              "series_engine.branch_power_rows")
    table = series_engine.CirclePowerTable
    orig_init = table.__init__

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        tracer.n_grid_max = max(tracer.n_grid_max, int(self.n_grid))

    tracer.patch(table, "__init__", "series_engine.circle_table",
                 functools.wraps(orig_init)(init))
    tracer.patch(table, "rows", "series_engine.circle_rows")
    patch_all((branch_points, hessian_blocks), "taylor_branch",
              "series_engine.taylor_branch")

    # branch_points
    patch_all((branch_points, spectral_scan, laplacian_growth, cli),
              "dominant_data", "branch_points.dominant_data")
    patch_all((branch_points, laplacian_growth, cli), "solve_characteristic",
              "branch_points.solve_characteristic")
    tracer.patch(cli, "critical_parameter", "branch_points.critical_parameter")

    # laplacian_growth
    for cls in (laplacian_growth.MomentDriver, laplacian_growth.SliceDriver):
        tracer.patch(cls, "state", "laplacian_growth.driver_state")
    tracer.patch(laplacian_growth, "harmonic_moments",
                 "laplacian_growth.harmonic_moments")
    tracer.patch(laplacian_growth, "univalence_margin",
                 "laplacian_growth.univalence_margin")
    tracer.patch(cli, "detect_thresholds", "laplacian_growth.detect_thresholds")
    patch_all((laplacian_growth, cli), "radius_excess",
              "laplacian_growth.radius_excess")

    # explicit_leaves
    orig_phase = cli.phase_diagram

    def phase_diagram(*args, **kwargs):
        table = orig_phase(*args, **kwargs)
        tracer.phase_cells += len(table.cells)
        return table

    tracer.patch(cli, "phase_diagram", "explicit_leaves.phase_diagram",
                 functools.wraps(orig_phase)(phase_diagram))
    tracer.patch(cli, "gamma_c_solve", "explicit_leaves.gamma_c_solve")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    s = tracer.stat
    rows = s("series_engine.branch_power_rows")
    circle = s("series_engine.circle_table")
    crows = s("series_engine.circle_rows")
    gram = s("hessian_blocks.gram_block")
    return {
        "cli.self_s": s("cli").self,
        "spectral_scan.scan_path.self_s": s("spectral_scan.scan_path").self,
        "spectral_scan.deepest_point_s": tracer.deepest_point_s,
        "spectral_scan.cells": tracer.scan_cells,
        "spectral_scan.fit_log_scaling.s": s("spectral_scan.fit_log_scaling").total,
        "hessian_blocks.gram_block.self_s": gram.self,
        "hessian_blocks.gram_block.calls": gram.calls,
        "hessian_blocks.gram_block.accepted_ratio":
            (gram.calls - gram.raised) / gram.calls if gram.calls else 0.0,
        "hessian_blocks.eigenvalues.s": s("hessian_blocks.eigenvalues").total,
        "hessian_blocks.check_alpha_admissible.s":
            s("hessian_blocks.check_alpha_admissible").total,
        "series_engine.circle_table.s": circle.total,
        "series_engine.circle_table.calls": circle.calls,
        "series_engine.circle_rows.s": crows.total,
        "series_engine.n_grid_max": tracer.n_grid_max,
        "series_engine.series_rows.self_s": rows.self,
        "series_engine.series_rows.calls": rows.calls - circle.calls,
        "series_engine.taylor_branch.s": s("series_engine.taylor_branch").total,
        "series_engine.taylor_branch.calls": s("series_engine.taylor_branch").calls,
        "branch_points.dominant_data.self_s": s("branch_points.dominant_data").self,
        "branch_points.dominant_data.calls": s("branch_points.dominant_data").calls,
        "branch_points.solve_characteristic.calls":
            s("branch_points.solve_characteristic").calls,
        "branch_points.critical_parameter.s": s("branch_points.critical_parameter").total,
        "laplacian_growth.driver_state.s": s("laplacian_growth.driver_state").total,
        "laplacian_growth.driver_state.calls": s("laplacian_growth.driver_state").calls,
        "laplacian_growth.harmonic_moments.s": s("laplacian_growth.harmonic_moments").total,
        "laplacian_growth.harmonic_moments.calls":
            s("laplacian_growth.harmonic_moments").calls,
        "laplacian_growth.univalence_margin.s":
            s("laplacian_growth.univalence_margin").total,
        "laplacian_growth.univalence_margin.calls":
            s("laplacian_growth.univalence_margin").calls,
        "laplacian_growth.detect_thresholds.self_s":
            s("laplacian_growth.detect_thresholds").self,
        "laplacian_growth.radius_excess.calls": s("laplacian_growth.radius_excess").calls,
        "explicit_leaves.phase_diagram.s": s("explicit_leaves.phase_diagram").total,
        "explicit_leaves.gamma_c_solve.s": s("explicit_leaves.gamma_c_solve").total,
        "explicit_leaves.cells": tracer.phase_cells,
    }

"""Workload definitions: which CLI runs make up one round of each workload.

A workload is a list of jobs; each job is one ``toda_spectra.cli.main`` call
on a shipped config with ``--set`` overrides.  The pipeline itself has no
random seed, so the benchmark seed perturbs continuous inputs instead:

* both scans pin ``scan.zeta_fixed`` (zeta_2) at ``zeta2 * (1 + j)`` with a
  seeded jitter ``|j| <= JITTER``; ``zeta2`` defaults to the shipped 0.01;
* the growth configs get the same relative jitter on their initial data
  (``lg.a0`` of the one-mode run, ``lg.r0`` of the expanding circle,
  ``lg.zeta0`` of the declared slice).

The jitter is small enough that every counted quantity (grid sizes, tail
retries, cells) stays the same across seeds, so run-to-run spread measures
the machine, not the inputs; a larger change of ``zeta2`` (0.008 and 0.012
run clean) re-checks a claim on inputs not used while writing it.  The
phase grids of the explicit leaves are closed-form tables and stay fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

JITTER = 0.005
ZETA2_DEFAULT = 0.01

SCAN_CONFIG = "configs/scan_near_critical.ini"


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the facts its output checks need."""

    name: str
    command: str
    config: str
    overrides: tuple[str, ...] = ()
    check: str = ""
    params: dict = field(default_factory=dict)

    def argv(self, out_dir: str) -> list[str]:
        args = [self.command, "--config", self.config, "--out", out_dir,
                "--threads", "1"]
        for ov in self.overrides:
            args += ["--set", ov]
        return args


def _scan(name: str, zeta2: float, delta_min: str, delta_max: str,
          points: int) -> Job:
    ov = (f"scan.zeta_fixed={zeta2!r}", f"scan.delta_min={delta_min}",
          f"scan.delta_max={delta_max}", f"scan.points={points}")
    return Job(name, "scan", SCAN_CONFIG, ov, "scan", {"zeta2": zeta2})


def build(workload: str, seed: int, zeta2: float = ZETA2_DEFAULT) -> list[Job]:
    """Jobs of one round of ``workload``; the same seed gives the same jobs."""
    rng = random.Random(seed)

    def jitter(x: float) -> float:
        return x * (1.0 + JITTER * (2.0 * rng.random() - 1.0))

    if workload == "scan_near_critical":
        return [_scan("scan", jitter(zeta2), "5e-4", "5e-2", points=7)]
    if workload == "scan_moderate":
        return [_scan("scan", jitter(zeta2), "5e-3", "0.5", points=13)]
    if workload == "growth_and_leaves":
        a0 = jitter(0.05)
        r0 = jitter(1.0)
        z0 = jitter(0.05)
        return [
            Job("lg_demo", "lg", "configs/lg_demo.ini",
                (f"lg.zeta0={z0!r}",), "lg_slice",
                {"zeta0": z0, "rate": 0.2, "t_tol": 1e-6}),
            Job("lg_onemode", "lg", "configs/lg_onemode.ini",
                (f"lg.a0={a0!r}",), "lg_moments", {}),
            Job("lg_circle", "lg", "configs/lg_onemode.ini",
                (f"lg.r0={r0!r}", "lg.a0=0.0", "lg.detect=false"),
                "lg_moments", {"circle_r0": r0}),
            Job("log_phase", "leaves", "configs/log_phase.ini", (), "log", {}),
            Job("pole_phase", "leaves", "configs/pole_phase.ini", (), "pole", {}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan_near_critical", "scan_moderate", "growth_and_leaves")

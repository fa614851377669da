"""Tests for the kernel-Hessian oracle, Gram blocks, and renormalization."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from toda_spectra import (CirclePowerTable, Leaf, NoConvergence, ParamPoint,
                          RenormConfig, TailNotConverged, branch_power_rows,
                          check_alpha_admissible, dominant_data, eigenvalues,
                          gram_block, taylor_branch)
from toda_spectra import series_engine

from kernel_oracle import kernel_hessian_oracle, mode_gram_vectors
from ramp_oracle import ramp_evaluation

POINT2 = ParamPoint(Leaf((2,)), (0.2,))


def _cfg(**kw):
    base = dict(q=1, s=2, J=8, alpha=2.0, beta=1.0)
    base.update(kw)
    return RenormConfig(**base)


# ---------------------------------------------------------------------------
# configuration and Hermitian blocks


@pytest.mark.parametrize("kw", [
    dict(q=0), dict(q=3), dict(s=0), dict(J=0), dict(alpha=1.0),
    dict(alpha=0.5), dict(beta=0.0), dict(beta=-1.0),
])
def test_renorm_config_rejects(kw):
    with pytest.raises(ValueError):
        _cfg(**kw)


def test_renorm_config_p_indices():
    cfg = RenormConfig(q=2, s=3, J=4, alpha=2.0, beta=1.0)
    npt.assert_array_equal(cfg.p_indices, [2, 5, 8, 11, 14])


def test_eigensystem_descending_and_consistent():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T  # Hermitian to the bit: addition commutes
    npt.assert_array_equal(h, h.conj().T)
    vals = eigenvalues(h)
    assert list(vals) == sorted(vals, reverse=True)
    # the general (non-Hermitian) eigensolver as an independent check
    npt.assert_allclose(vals, np.sort(np.linalg.eigvals(h).real)[::-1],
                        rtol=0, atol=1e-10)


def test_eigenvalues_report_solver_failure(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence):
        eigenvalues(np.eye(2))


# ---------------------------------------------------------------------------
# kernel Hessian oracle


def test_oracle_hand_entries_one_mode():
    zeta = 0.2
    h = kernel_hessian_oracle(POINT2, 4)
    assert h[0, 0] == pytest.approx(1.0, rel=1e-14)         # H_11
    assert h[1, 1] == pytest.approx(2.0, rel=1e-14)         # H_22 = 4 * 1/2
    assert h[0, 2] == pytest.approx(3.0 * zeta, rel=1e-13)  # H_13 = 3 R_1(1)
    # H_33 = 9 * (R_1(1)^2 + R_3(0)^2 / 3)
    assert h[2, 2] == pytest.approx(9.0 * (zeta**2 + 1.0 / 3.0), rel=1e-13)


def test_oracle_block_structure():
    for leaf, zeta in [(Leaf((2,)), (0.2,)), (Leaf((3, 6)), (0.08, 0.01))]:
        h = kernel_hessian_oracle(ParamPoint(leaf, zeta), 15)
        npt.assert_array_equal(h, h.conj().T)
        for m in range(1, 16):
            for n in range(1, 16):
                if (m - n) % leaf.s:
                    assert h[m - 1, n - 1] == 0.0


def test_mode_vectors_reproduce_oracle():
    point = ParamPoint(Leaf((3, 6)), (0.08, 0.01))
    h = kernel_hessian_oracle(point, 16)
    s = 3
    for q in (1, 2, 3):
        j_max = (16 - q) // s
        vecs = mode_gram_vectors(point, q, j_max, j_max)
        gram = sum(np.outer(v, np.conj(v)) for v in vecs)
        pj = q + s * np.arange(j_max + 1)
        npt.assert_allclose(gram, h[np.ix_(pj - 1, pj - 1)],
                            rtol=1e-12, atol=1e-14)


def test_mode_vectors_reject_bad_block_index():
    with pytest.raises(ValueError):
        mode_gram_vectors(POINT2, 3, 4, 4)


# ---------------------------------------------------------------------------
# Gram blocks


def _direct_gram(point, cfg, M):
    """Weighted block as the coefficient sum over m <= M, from the
    series rows, divided by the weights w_j1 w_j2."""
    rows = branch_power_rows(point, list(cfg.p_indices), M + cfg.J)
    n = cfg.J + 1
    direct = np.zeros((n, n), dtype=np.complex128)
    for j1 in range(n):
        for j2 in range(n):
            acc = 0.0j
            for m in range(M + 1):
                if m + j2 - j1 < 0:
                    continue
                p_i = cfg.q + cfg.s * (m + j2)
                acc += (np.conj(rows[j1, m + j2 - j1]) * p_i**2
                        * rows[j2, m])
            pj1 = cfg.q + cfg.s * j1
            pj2 = cfg.q + cfg.s * j2
            direct[j1, j2] = acc / math.sqrt(pj1 * pj2)
    # 1/w_j, finite by RenormConfig's construction check
    inv_w = cfg.p_indices ** (-1.5 - cfg.beta) * cfg.alpha ** -cfg.p_indices
    return direct * np.outer(inv_w, inv_w)


def test_gram_block_matches_direct_sum():
    cfg, M = _cfg(J=5), 250  # eta^M = 1.118^-1000: the tail is exhausted
    got = gram_block(CirclePowerTable(POINT2, M + cfg.J), cfg)
    npt.assert_allclose(got, _direct_gram(POINT2, cfg, M), rtol=1e-12)


def test_gram_block_matches_direct_sum_complex_zeta():
    # complex zeta: all N samples, and the imaginary part of the product
    point = ParamPoint(Leaf((2,)), (0.2 * np.exp(0.3j),))
    cfg, M = _cfg(J=5), 250
    got = gram_block(CirclePowerTable(point, M + cfg.J), cfg)
    direct = _direct_gram(point, cfg, M)
    # the weights rescale entries, not their phases: some entry must have
    # an imaginary part above 10% of its modulus
    assert (np.abs(direct.imag) / np.abs(direct)).max() > 0.1
    npt.assert_allclose(got, direct, rtol=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "complex"])
def test_graded_gram_block_matches_uniform_oracle(phase, delta, monkeypatch):
    # the uniform grid sized as the Gram entries' geometric tail demands,
    # eta^M <= 1e-12 with eta = |z_*|^-2, its samples from the radius ramp,
    # against the graded grid of seeded samples doubled until the
    # coefficient check and the aliasing contract hold
    zeta = 0.25 * (1.0 - delta) * np.exp(1j * phase)
    point = ParamPoint(Leaf((2,)), (zeta,))
    z_star = 1.0 / (4.0 * zeta)
    cfg = _cfg(J=12)
    order = math.ceil(math.log(1e-12) / (-2.0 * math.log(abs(z_star)))) + cfg.J
    with monkeypatch.context() as patch:
        patch.setattr(series_engine, "_branch_values", ramp_evaluation)
        uniform = CirclePowerTable(point, order)
    want = gram_block(uniform, cfg)
    # the same uniform table, its samples seeded by the Taylor polynomial
    seeded = CirclePowerTable(point, order)
    assert seeded.n_grid == uniform.n_grid
    assert (np.abs(seeded.values - uniform.values).max()
            <= 1e-13 * (1.0 + np.abs(uniform.values).max()))
    graded = CirclePowerTable(point, 0, dominant_data(point),
                              lambda t: gram_block(t, cfg),
                              series=taylor_branch(point, 250))
    got = gram_block(graded, cfg)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert graded.n_grid <= uniform.n_grid


def test_gram_block_is_hermitian():
    # Hermitian to the bit as assembled: a real point (half the nodes, a
    # real product) and a complex one (all nodes, imaginary part P - P^T),
    # the {3,6} blocks at the shipped scan's J on graded grids
    h = gram_block(CirclePowerTable(POINT2, 220), _cfg(J=6))
    assert h.dtype == np.complex128
    npt.assert_array_equal(h, h.conj().T)
    leaf = Leaf((3, 6))
    for zeta in [(0.11, 0.01), (0.1 * np.exp(0.3j), 0.01 * np.exp(-0.2j))]:
        point = ParamPoint(leaf, zeta)
        for q in (1, 2):
            cfg = RenormConfig(q=q, s=3, J=70)
            table = CirclePowerTable(point, 0, dominant_data(point),
                                     lambda t: gram_block(t, cfg))
            h = gram_block(table, cfg)
            assert h.dtype == np.complex128
            assert (np.abs(h.imag).max() > 0) == (not point.is_real())
            npt.assert_array_equal(h, h.conj().T)


def test_gram_block_checks_leaf_symmetry():
    with pytest.raises(ValueError):
        gram_block(CirclePowerTable(POINT2, 64), _cfg(s=3, q=1))


def test_gram_block_undersized_table_raises():
    # 3e-3 below the critical zeta = 1/4, coefficients decay like 0.997^m:
    # the 4096-point grid passes the table's own check on the first
    # coefficients, but its half grid misses the aliasing contract
    point = ParamPoint(Leaf((2,)), (0.25 * (1.0 - 3e-3),))
    table = CirclePowerTable(point, 64 + 12)
    assert table.n_grid == 4096
    with pytest.raises(TailNotConverged):
        gram_block(table, _cfg(J=12))


# ---------------------------------------------------------------------------
# alpha admissibility


def test_alpha_admissible_warns_when_too_small():
    with pytest.warns(RuntimeWarning):
        check_alpha_admissible(POINT2, dominant_data(POINT2),
                               taylor_branch(POINT2, 250), alpha=1.01)


def test_alpha_admissible_quiet_when_clear():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = check_alpha_admissible(POINT2, dominant_data(POINT2),
                                       taylor_branch(POINT2, 250), alpha=10.0)
    assert 1.0 < bound < 10.0

"""Tests for kernel-Hessian assembly, Gram blocks, and renormalization."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from toda_spectra import (CirclePowerTable, HermitianMatrix, Leaf, ParamPoint,
                          RenormConfig, TailNotConverged, branch_power_rows,
                          check_alpha_admissible, eigensystem, eigenvalues,
                          gram_block, hs_norm, kernel_hessian_oracle,
                          mode_gram_vectors, tail_cutoff_for)

POINT2 = ParamPoint(Leaf((2,)), (0.2,))


def _cfg(**kw):
    base = dict(q=1, s=2, J=8, alpha=2.0, beta=1.0)
    base.update(kw)
    return RenormConfig(**base)


# ---------------------------------------------------------------------------
# configuration and matrix containers


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


def test_hermitian_from_lower_mirrors():
    lower = np.array([[1.0 + 2.0j, 0.0], [3.0 - 1.0j, 4.0]])
    h = HermitianMatrix.from_lower(lower)
    assert h.dim == 2
    assert h.entries[0, 0] == 1.0          # imaginary diagonal part dropped
    assert h.entries[0, 1] == np.conj(h.entries[1, 0])
    npt.assert_array_equal(h.entries, h.entries.conj().T)


def test_eigensystem_descending_and_consistent():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = HermitianMatrix.from_lower(np.tril(a + a.conj().T))
    vals, vecs = eigensystem(h)
    assert list(vals) == sorted(vals, reverse=True)
    npt.assert_allclose(vals, eigenvalues(h), rtol=0, atol=1e-12)
    npt.assert_allclose(h.entries @ vecs, vecs * vals, atol=1e-10)


def test_hs_norm_hand_value():
    h = HermitianMatrix.from_lower(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert hs_norm(h) == 5.0


# ---------------------------------------------------------------------------
# kernel Hessian oracle


def test_oracle_hand_entries_one_mode():
    zeta = 0.2
    h = kernel_hessian_oracle(POINT2, 4).entries
    assert h[0, 0] == pytest.approx(1.0, rel=1e-14)         # H_11
    assert h[1, 1] == pytest.approx(2.0, rel=1e-14)         # H_22 = 4 * 1/2
    assert h[0, 2] == pytest.approx(3.0 * zeta, rel=1e-13)  # H_13 = 3 R_1(1)
    # H_33 = 9 * (R_1(1)^2 + R_3(0)^2 / 3)
    assert h[2, 2] == pytest.approx(9.0 * (zeta**2 + 1.0 / 3.0), rel=1e-13)


def test_oracle_block_structure():
    for leaf, zeta in [(Leaf((2,)), (0.2,)), (Leaf((3, 6)), (0.08, 0.01))]:
        h = kernel_hessian_oracle(ParamPoint(leaf, zeta), 15).entries
        npt.assert_array_equal(h, h.conj().T)
        for m in range(1, 16):
            for n in range(1, 16):
                if (m - n) % leaf.s:
                    assert h[m - 1, n - 1] == 0.0


def test_mode_vectors_reproduce_oracle():
    point = ParamPoint(Leaf((3, 6)), (0.08, 0.01))
    h = kernel_hessian_oracle(point, 16).entries
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


def test_gram_block_matches_direct_sum():
    cfg, M = _cfg(J=5), 250  # eta^M = 1.118^-1000: the tail is exhausted
    got = gram_block(CirclePowerTable(POINT2, M + cfg.J), cfg,
                     use_weights=False).entries
    rows = branch_power_rows(POINT2, list(cfg.p_indices), M + cfg.J)
    direct = np.zeros((6, 6), dtype=np.complex128)
    for j1 in range(6):
        for j2 in range(6):
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
    npt.assert_allclose(got, direct, rtol=1e-12)


def test_gram_block_weight_rescaling():
    cfg = _cfg(J=5)
    table = CirclePowerTable(POINT2, 250)
    plain = gram_block(table, cfg, use_weights=False).entries
    weighted = gram_block(table, cfg, use_weights=True).entries
    pj = cfg.p_indices.astype(float)
    f = pj ** (-1.5 - cfg.beta) * cfg.alpha ** (-pj)
    npt.assert_allclose(weighted, plain * np.outer(f, f), rtol=1e-10)


def test_gram_block_is_hermitian():
    h = gram_block(CirclePowerTable(POINT2, 220), _cfg(J=6), use_weights=True)
    npt.assert_array_equal(h.entries, h.entries.conj().T)


def test_gram_block_checks_leaf_symmetry():
    with pytest.raises(ValueError):
        gram_block(CirclePowerTable(POINT2, 64), _cfg(s=3, q=1),
                   use_weights=False)


def test_gram_block_undersized_table_raises():
    # 3e-3 below the critical zeta = 1/4, coefficients decay like 0.997^m:
    # the 4096-point grid passes the table's own check on the first
    # coefficients, but its half grid misses the aliasing contract
    point = ParamPoint(Leaf((2,)), (0.25 * (1.0 - 3e-3),))
    table = CirclePowerTable(point, 64 + 12)
    assert table.n_grid == 4096
    with pytest.raises(TailNotConverged):
        gram_block(table, _cfg(J=12), use_weights=True)


def test_tail_cutoff_for_values():
    assert tail_cutoff_for(2.0, 2) == 64          # floor dominates
    deep = tail_cutoff_for(1.01, 2)
    eta = 1.01 ** -4
    assert deep == max(64, math.ceil(math.log(1e-12) / math.log(eta)))
    assert deep > 64
    with pytest.raises(ValueError):
        tail_cutoff_for(1.0, 2)


# ---------------------------------------------------------------------------
# alpha admissibility


def test_alpha_admissible_warns_when_too_small():
    with pytest.warns(RuntimeWarning):
        check_alpha_admissible(POINT2, 1.118, alpha=1.01)


def test_alpha_admissible_quiet_when_clear():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = check_alpha_admissible(POINT2, 1.118, alpha=10.0)
    assert 1.0 < bound < 10.0

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import betainc

from ampbound import fock_oracle
from ampbound.analytic import geometric_weights
from ampbound.fock_oracle import TruncationError, TruncationSpec

from dense_reference import dense_reductions, joint_to_dense, ket_to_dense, purity
from su11_reference import (
    SqueezeParams,
    basis_index,
    bch_factors,
    evolve_basis_state,
    joint_kets,
    k_minus_matrix,
    k_plus_matrix,
    k_zero_matrix,
    ladder_weights,
    rotation_phases,
    squeeze_generator,
)


def labelled(ket):
    """``((n_s, n_e), amplitude)`` for every rung of a ladder ket."""
    for i, amp in enumerate(ket.amplitudes):
        ns = ket.first + i
        yield (ns, ns + ket.charge), amp


def interior_mask(n: int, guard: int) -> np.ndarray:
    mask = np.zeros(n * n, dtype=bool)
    for ns in range(n - guard):
        for ne in range(n - guard):
            mask[basis_index(ns, ne, n)] = True
    return mask


class TestSqueezeParams:
    def test_phase_reduction(self):
        p = SqueezeParams(r=1.0, theta=2.5 * math.pi, delta_s=-0.5, delta_e=7.0)
        assert 0.0 <= p.theta < 2 * math.pi
        assert 0.0 <= p.delta_s < 2 * math.pi
        assert p.theta == pytest.approx(0.5 * math.pi, rel=1e-12)

    def test_alpha(self):
        p = SqueezeParams(r=0.3, theta=0.7, delta_s=0.2, delta_e=0.4)
        assert p.alpha == pytest.approx((0.7 + math.pi - 0.4 - 0.2) % (2 * math.pi),
                                        rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParams(r=-0.1)


class TestBchFactors:
    def test_identity_at_zero(self):
        f = bch_factors(SqueezeParams(r=0.0, theta=1.0))
        assert f.plus_coeff == 0.0
        assert f.zero_coeff == 0.0
        assert f.minus_coeff == 0.0

    def test_unit_squeeze(self):
        f = bch_factors(SqueezeParams(r=1.0, theta=0.0))
        assert f.plus_coeff == pytest.approx(-0.7615941559557649, rel=1e-12)
        assert f.zero_coeff == pytest.approx(-0.8675616609660542, rel=1e-12)
        assert f.minus_coeff == pytest.approx(0.7615941559557649, rel=1e-12)

    def test_quarter_phase(self):
        f = bch_factors(SqueezeParams(r=1.0, theta=math.pi / 2.0))
        assert f.plus_coeff == pytest.approx(-1j * 0.7615941559557649, rel=1e-12)
        assert abs(f.plus_coeff) == abs(f.minus_coeff)
        assert abs(f.plus_coeff) == pytest.approx(math.tanh(1.0), rel=1e-14)


class TestGeneratorAlgebra:
    def test_commutators_exact_on_interior(self):
        n = 14
        kp, km, k0 = k_plus_matrix(n, n), k_minus_matrix(n, n), k_zero_matrix(n, n)
        inner = interior_mask(n, 2)
        c1 = (k0 @ kp - kp @ k0 - kp)[:, inner]
        c2 = (k0 @ km - km @ k0 + km)[:, inner]
        c3 = (kp @ km - km @ kp + 2 * k0)[:, inner]
        assert np.abs(c1).max() < 1e-12
        assert np.abs(c2).max() < 1e-12
        assert np.abs(c3).max() < 1e-12

    def test_casimir_constant_per_charge_sector(self):
        n = 12
        kp, km, k0 = k_plus_matrix(n, n), k_minus_matrix(n, n), k_zero_matrix(n, n)
        casimir = k0 @ (k0 - np.eye(n * n)) - kp @ km
        for charge in (0, 1, 3):
            expected = (charge ** 2 - 1) / 4.0
            for ns in range(n - 2 - charge):
                col = casimir[:, basis_index(ns, ns + charge, n)]
                ref = np.zeros(n * n)
                ref[basis_index(ns, ns + charge, n)] = expected
                assert np.abs(col - ref).max() < 1e-12

    def test_bch_factorization_matches_exponential(self):
        # truncated-matrix identity; entries deep inside the cutoff converge
        # to the untruncated operator, so the comparison uses a wide guard
        n, guard = 30, 20
        for (r, theta) in [(0.5, 0.9), (0.3, 0.0)]:
            p = SqueezeParams(r=r, theta=theta)
            f = bch_factors(p)
            kp, km, k0 = k_plus_matrix(n, n), k_minus_matrix(n, n), k_zero_matrix(n, n)
            direct = expm(squeeze_generator(r * np.exp(1j * theta), n, n))
            mid = np.diag(np.exp(f.zero_coeff * np.diag(k0)))
            product = expm(f.plus_coeff * kp) @ mid @ expm(f.minus_coeff * km)
            inner = interior_mask(n, guard)
            diff = np.abs(direct - product)[np.ix_(inner, inner)]
            assert diff.max() < 1e-9


class TestEvolveBasisState:
    TRUNC = TruncationSpec(max_thermal=0, max_squeeze=24, tolerance=1e-6)

    def test_identity_at_zero_squeeze(self):
        ket = evolve_basis_state(0, 0, SqueezeParams(r=0.0), self.TRUNC)
        assert (ket.charge, ket.first) == (0, 0)
        assert list(ket.amplitudes) == [pytest.approx(1.0)]

    def test_vacuum_ladder_moduli_and_norm(self):
        # |0,0> evolves onto the pair ladder with moduli tanh^l / cosh and
        # truncated norm 1 - tanh^(2(L+1))
        r = 1.0
        ket = evolve_basis_state(0, 0, SqueezeParams(r=r), self.TRUNC, tail_tol=1.0)
        t, c = math.tanh(r), math.cosh(r)
        L = self.TRUNC.max_squeeze
        assert len(ket.amplitudes) == L + 1
        for (ns, ne), amp in labelled(ket):
            assert ns == ne
            assert abs(amp) == pytest.approx(t ** ns / c, rel=1e-12)
        assert ket.norm_sq() == pytest.approx(1.0 - t ** (2 * (L + 1)), rel=1e-12)

    def test_thermal_sector_reduces_to_single_ladder(self):
        # with the system starting in the vacuum the amplitudes collapse to
        # tanh^l e^{i(alpha l - delta_e m)} / cosh^(m+1) sqrt(C(m+l, l))
        p = SqueezeParams(r=0.8, theta=1.1, delta_s=0.4, delta_e=0.9)
        m_e = 3
        ket = evolve_basis_state(0, m_e, p, self.TRUNC, tail_tol=1.0)
        t, c = math.tanh(p.r), math.cosh(p.r)
        assert (ket.charge, ket.first) == (m_e, 0)
        for (ns, ne), amp in labelled(ket):
            ell = ns
            assert ne == m_e + ell
            expected = (
                t ** ell
                * np.exp(1j * (p.alpha * ell - p.delta_e * m_e))
                / c ** (m_e + 1)
                * math.sqrt(math.comb(m_e + ell, ell))
            )
            assert amp == pytest.approx(expected, abs=1e-12)

    def test_charge_superselection_is_structural(self):
        for (ms, me) in [(0, 0), (0, 4), (2, 5), (3, 1)]:
            ket = evolve_basis_state(ms, me, SqueezeParams(r=0.9, theta=0.3),
                                     self.TRUNC, tail_tol=1.0)
            assert ket.charge == me - ms
            assert ket.first == ms - min(ms, me)
            dense = ket_to_dense(ket, 40, 40)
            for ns in range(40):
                for ne in range(40):
                    if ne - ns != me - ms:
                        assert dense[ns * 40 + ne] == 0.0

    def test_matches_matrix_exponential_evolution(self):
        # amplitude-level check including the phases, against a direct
        # exponential of the generator followed by the rotation phases
        dim = 30
        p = SqueezeParams(r=0.5, theta=0.7, delta_s=0.3, delta_e=1.1)
        U = expm(squeeze_generator(p.r * np.exp(1j * p.theta), dim, dim))
        rot = rotation_phases(p.delta_s, p.delta_e, dim, dim)
        L = 18
        trunc = TruncationSpec(max_thermal=0, max_squeeze=L, tolerance=1e-6)
        for (ms, me) in [(0, 0), (0, 3), (2, 2), (3, 1), (1, 4), (4, 4)]:
            basis_vec = np.zeros(dim * dim)
            basis_vec[basis_index(ms, me, dim)] = 1.0
            reference = rot * (U @ basis_vec)
            ket = evolve_basis_state(ms, me, p, trunc, tail_tol=1.0)
            complete = ms + L - min(ms, me)  # rungs with every j-term summed
            for (ns, ne), amp in labelled(ket):
                if ns <= min(complete - 2, dim - 10) and ne <= dim - 10:
                    assert amp == pytest.approx(
                        reference[basis_index(ns, ne, dim)], abs=5e-11)

    def test_truncation_error_when_ladder_too_short(self):
        trunc = TruncationSpec(max_thermal=0, max_squeeze=2, tolerance=1e-10)
        with pytest.raises(TruncationError):
            evolve_basis_state(0, 0, SqueezeParams(r=1.5), trunc)

    def test_norm_at_least_one_minus_tail(self):
        trunc = TruncationSpec(max_thermal=0, max_squeeze=60, tolerance=1e-8)
        ket = evolve_basis_state(0, 2, SqueezeParams(r=1.0), trunc)
        assert ket.norm_sq() >= 1.0 - trunc.tolerance


class TestLadderWeights:
    def test_squared_moduli_of_reference_kets(self):
        # the production weights are |amplitude|**2 of the general double sum
        # for a vacuum system, whatever the phases
        p = SqueezeParams(r=0.8, theta=1.1, delta_s=0.4, delta_e=0.9)
        trunc = TruncationSpec(max_thermal=6, max_squeeze=30, tolerance=1e-6)
        _, kets = joint_kets(0.5, p, trunc)
        w = ladder_weights(p.r, np.arange(7), 30)
        np.testing.assert_allclose(w, np.abs(kets) ** 2, rtol=1e-12, atol=0)

    def test_zero_squeeze_keeps_first_rung(self):
        w = ladder_weights(0.0, np.arange(3, 6), 4)
        assert w.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]] * 3

    def test_subnormal_squeeze_keeps_first_rung(self):
        # tanh(r)**2 rounds to 0 at r = 2.2e-309 and to a subnormal at
        # r = 1e-160, where the deviance would divide by zero or overflow:
        # no warning, and every sector stays on its first rung
        for r in (2.2e-309, 1e-160):
            w = ladder_weights(r, np.arange(3, 6), 40)
            assert w.tolist() == [[1.0] + [0.0] * 40] * 3
        rec, unsqueezed = (fock_oracle.verify_point(1.0, r) for r in (2.2e-309, 0.0))
        for key in ("L", "delta_S_oracle", "delta_N_oracle", "purity_oracle"):
            assert rec[key] == unsqueezed[key]

    def test_row_tails_are_negative_binomial(self):
        # deep sectors of the (100, 1.0) truncation: cosh(r)**(-2(m+1))
        # alone underflows there, the saddle-point form does not, and each
        # weight is good to a few 1e-14 relative, so the row sums are too
        r, L = 1.0, 3874
        sectors = np.array([0, 10, 500, 2000, 2846])
        tails = 1.0 - ladder_weights(r, sectors, L).sum(axis=1)
        exact = betainc(L + 1, sectors + 1, math.tanh(r) ** 2)
        np.testing.assert_allclose(tails, exact, rtol=0, atol=1e-13)
        assert exact[-1] > 0.5

    @pytest.mark.parametrize("r", [1.0, 2.25, 3.0, 4.6])
    def test_bulk_weights_match_mpmath(self, r):
        # 20 rungs within six standard deviations of the mean of each of 15
        # sectors, where the mass is, against 40-digit arithmetic on the
        # exact r; at r = 1 the first rung of sector 0 is among them
        rng = np.random.default_rng(7)
        with mpmath.workdps(40):
            t2, c2 = mpmath.tanh(mpmath.mpf(r)) ** 2, mpmath.cosh(mpmath.mpf(r)) ** 2
            n_q = math.sinh(r) ** 2
            worst = 0.0
            for m in [0] + sorted(rng.integers(1, 200, 14).tolist()):
                mean, sd = (m + 1) * n_q, math.sqrt((m + 1) * n_q * (n_q + 1))
                rungs = np.unique(np.maximum(
                    0, np.round(mean + sd * rng.uniform(-6, 6, 20)))).astype(int)
                w = ladder_weights(r, np.array([m]), int(rungs[-1]))[0]
                for ell in rungs.tolist():
                    exact = mpmath.binomial(m + ell, ell) * t2 ** ell / c2 ** (m + 1)
                    worst = max(worst, float(abs(w[ell] - exact) / exact))
        assert worst <= 1e-13


class TestJointDensity:
    def test_no_squeeze_is_vacuum_times_thermal(self):
        trunc = fock_oracle.choose_truncation(1.0, 0.0, 1e-10)
        rho = joint_to_dense(*joint_kets(1.0, SqueezeParams(r=0.0), trunc))
        dim_e = trunc.max_thermal + trunc.max_squeeze + 1
        thermal = np.diag(geometric_weights(1.0, dim_e))
        for i in range(len(rho)):
            ns, ne = divmod(i, dim_e)
            for j in range(len(rho)):
                ms, me = divmod(j, dim_e)
                expected = thermal[ne, me] if (ns == 0 and ms == 0) else 0.0
                assert rho[i, j] == pytest.approx(expected, abs=1e-14)
        joint = fock_oracle.reduce_joint_state(1.0, 0.0, trunc)
        assert joint.p_s.tolist() == [pytest.approx(1.0, abs=1e-10)]
        assert joint.p_e.tobytes() == geometric_weights(1.0, dim_e).tobytes()

    def test_cold_environment_gives_rank_one(self):
        trunc = fock_oracle.choose_truncation(0.0, 0.9, 1e-12)
        rho = joint_to_dense(*joint_kets(0.0, SqueezeParams(r=0.9, theta=0.4), trunc))
        vals = np.linalg.eigvalsh(rho)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(vals[:-1]).max() < 1e-10

    def test_entry_matches_coefficient_formula(self):
        # <1,1| rho |1,1> for n_bar=1, r=0.8 equals the m=0, l=l'=1
        # coefficient: pbar_0/(n_q+1) * (n_q/(n_q+1)); so does the weight
        # the oracle streams for that rung
        n_bar, r = 1.0, 0.8
        trunc = fock_oracle.choose_truncation(n_bar, r, 1e-8)
        p = SqueezeParams(r=r, theta=0.6, delta_s=0.2, delta_e=0.8)
        rho = joint_to_dense(*joint_kets(n_bar, p, trunc))
        n_q = math.sinh(r) ** 2
        expected = (1.0 / (n_bar + 1.0)) / (n_q + 1.0) * (n_q / (n_q + 1.0))
        dim_e = trunc.max_thermal + trunc.max_squeeze + 1
        got = rho[basis_index(1, 1, dim_e), basis_index(1, 1, dim_e)]
        assert got == pytest.approx(expected, rel=1e-12)
        weight = ladder_weights(r, np.arange(1), trunc.max_squeeze)[0, 1]
        assert weight / (n_bar + 1.0) == pytest.approx(expected, rel=1e-12)

    def test_general_coefficients_with_phases(self):
        # every stored entry equals pbar_m e^{i alpha (l-l')} tanh^(l+l')
        # cosh^{-2(m+1)} sqrt(C(m+l,m) C(m+l',m)) on |l, l+m><l', l'+m|
        n_bar, r = 0.7, 0.6
        p = SqueezeParams(r=r, theta=1.3, delta_s=0.5, delta_e=0.2)
        trunc = fock_oracle.choose_truncation(n_bar, r, 1e-10)
        pbar, kets = joint_kets(n_bar, p, trunc)
        t, c = math.tanh(r), math.cosh(r)
        for m in (0, 1, 3):
            expected_pbar = n_bar ** m / (n_bar + 1.0) ** (m + 1)
            block = pbar[m] * np.outer(kets[m], kets[m].conj())
            for ell in (0, 1, 2):
                for ellp in (0, 1, 3):
                    expected = (
                        expected_pbar * np.exp(1j * p.alpha * (ell - ellp))
                        * t ** (ell + ellp) / c ** (2 * (m + 1))
                        * math.sqrt(math.comb(m + ell, m) * math.comb(m + ellp, m))
                    )
                    assert block[ell, ellp] == pytest.approx(expected, rel=1e-11)

    def test_dense_and_block_forms_agree(self):
        # streamed reductions against the dense matrix of the phased kets
        n_bar, r = 0.8, 0.7
        trunc = fock_oracle.choose_truncation(n_bar, r, 1e-10)
        joint = fock_oracle.reduce_joint_state(n_bar, r, trunc)
        dense, rho_s, rho_e = dense_reductions(
            *joint_kets(n_bar, SqueezeParams(r=r, theta=0.9), trunc))
        np.testing.assert_allclose(np.diag(joint.p_s), rho_s, atol=1e-14)
        np.testing.assert_allclose(np.diag(joint.p_e), rho_e, atol=1e-14)
        assert joint.purity == pytest.approx(purity(dense), rel=1e-12)
        assert joint.p_s.sum() == pytest.approx(np.trace(dense).real, rel=1e-12)

    def test_rotation_never_changes_weights_or_entropy(self):
        # phases never reach |amplitude|**2, which is why the oracle streams
        # real weights: rotated and plain reference kets give the same
        # weights as the production kernel
        n_bar, r = 0.6, 0.8
        trunc = fock_oracle.choose_truncation(n_bar, r, 1e-10)
        _, plain = joint_kets(n_bar, SqueezeParams(r=r), trunc)
        _, rotated = joint_kets(
            n_bar, SqueezeParams(r=r, theta=0.0, delta_s=1.2, delta_e=0.7), trunc)
        weights = ladder_weights(r, np.arange(trunc.max_thermal + 1),
                                      trunc.max_squeeze)
        np.testing.assert_allclose(np.abs(plain) ** 2, np.abs(rotated) ** 2,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.abs(rotated) ** 2, weights, rtol=1e-12, atol=0)
        pbar = geometric_weights(n_bar, trunc.max_thermal + 1)
        p_s_rot = (pbar[:, None] * np.abs(rotated) ** 2).sum(axis=0)
        joint = fock_oracle.reduce_joint_state(n_bar, r, trunc)
        assert fock_oracle.von_neumann_entropy(joint.p_s) == pytest.approx(
            fock_oracle.von_neumann_entropy(p_s_rot), abs=1e-12)

    def test_thermal_tail_guard(self):
        trunc = TruncationSpec(max_thermal=2, max_squeeze=10, tolerance=1e-10)
        with pytest.raises(TruncationError):
            fock_oracle.reduce_joint_state(1.0, 0.1, trunc)

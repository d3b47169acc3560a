import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampbound import analytic, fock_oracle, su11
from ampbound.fock_oracle import (
    DensityMatrixError,
    KetEnsemble,
    TruncationInfeasibleError,
    TruncationSpec,
    choose_truncation,
    expectations,
    squeeze_tail,
    thermal_tail,
    thermal_weights,
    verify_grid,
    verify_point,
    von_neumann_entropy,
)

from dense_reference import (
    dense_reductions,
    eigvalsh_entropy,
    joint_to_dense,
    max_offdiagonal,
    partial_trace,
    purity,
)


def joint_blocks(n_bar, r, tol=1e-12, **params):
    trunc = choose_truncation(n_bar, r, tol)
    return su11.build_joint_blocks(n_bar, su11.SqueezeParams(r=r, **params), trunc)


class TestChooseTruncation:
    def test_trivial_point(self):
        trunc = choose_truncation(0.0, 0.0, 1e-12)
        assert (trunc.max_thermal, trunc.max_squeeze) == (0, 0)

    def test_thermal_cutoff_geometric_tail(self):
        # (1/2)**(M+1) <= 5e-11 forces M >= 34
        trunc = choose_truncation(1.0, 1.0, 1e-10)
        assert trunc.max_thermal == 34
        assert thermal_tail(1.0, trunc.max_thermal) <= 5e-11
        assert thermal_tail(1.0, trunc.max_thermal - 1) > 5e-11

    def test_monotone_in_tolerance(self):
        loose = choose_truncation(1.0, 1.0, 1e-6)
        tight = choose_truncation(1.0, 1.0, 1e-12)
        assert tight.max_thermal >= loose.max_thermal
        assert tight.max_squeeze >= loose.max_squeeze

    def test_estimator_invariant(self):
        for (nb, r, tol) in [(0.5, 0.8, 1e-10), (2.0, 1.2, 1e-12), (0.0, 1.0, 1e-8)]:
            trunc = choose_truncation(nb, r, tol)
            total = thermal_tail(nb, trunc.max_thermal) + squeeze_tail(
                nb, r, trunc.max_thermal, trunc.max_squeeze)
            assert total <= tol

    def test_minimality_of_ladder_cutoff(self):
        trunc = choose_truncation(1.0, 1.0, 1e-10)
        assert squeeze_tail(1.0, 1.0, trunc.max_thermal, trunc.max_squeeze - 1) > 5e-11

    def test_infeasible_budget(self):
        with pytest.raises(TruncationInfeasibleError):
            choose_truncation(5.0, 3.0, 1e-12, budget=10_000)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            choose_truncation(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("n_bar, r", [(math.nan, 0.3), (1.0, math.inf),
                                          (math.inf, 0.3), (1.0, math.nan)])
    def test_rejects_non_finite_point(self, n_bar, r):
        with pytest.raises(ValueError, match="finite"):
            choose_truncation(n_bar, r, 1e-12)


class TestKetEnsemble:
    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            KetEnsemble(pbar=np.ones(3), kets=np.ones((2, 4), dtype=complex),
                        dropped_mass=0.0)

    def test_dropped_mass_is_missing_trace(self):
        for (nb, r, tol) in [(0.5, 0.8, 1e-10), (2.0, 1.2, 1e-12), (0.0, 1.0, 1e-8)]:
            joint = joint_blocks(nb, r, tol=tol)
            assert 0.0 <= joint.dropped_mass <= tol
            assert joint.trace() == pytest.approx(1.0 - joint.dropped_mass, abs=1e-14)

    def test_dimensions_follow_labels(self):
        joint = joint_blocks(1.0, 0.8, tol=1e-8)
        rows, rungs = joint.kets.shape
        assert joint.dim_s == rungs
        assert joint.dim_e == rows + rungs - 1

    def test_weights_computed_once(self):
        # the trace, the purity and both reductions share one weight array,
        # equal bit for bit to pbar_m |ket_m[l]|**2
        joint = joint_blocks(1.0, 0.8, tol=1e-10)
        w = joint.pbar[:, None] * np.abs(joint.kets) ** 2
        assert joint._weights is joint._weights
        assert joint._weights.tobytes() == w.tobytes()
        assert joint.reduced_system().tobytes() == w.sum(axis=0).tobytes()
        assert joint.purity() == float(np.sum(np.sum(w, axis=1) ** 2))


class TestPartialTrace:
    def test_product_state_factors(self):
        dim_s, dim_e = 3, 4
        ws = np.array([0.6, 0.3, 0.1])
        we = np.array([0.4, 0.3, 0.2, 0.1])
        rho = np.kron(np.diag(ws), np.diag(we)).astype(complex)
        dims = (dim_s, dim_e)
        np.testing.assert_allclose(
            np.diag(partial_trace(rho, dims, "system")).real, ws, atol=1e-15)
        np.testing.assert_allclose(
            np.diag(partial_trace(rho, dims, "environment")).real, we, atol=1e-15)

    def test_system_reduction_matches_geometric_weights(self):
        blocks = joint_blocks(1.0, 0.8, tol=1e-12)
        p_s = blocks.reduced_system()
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.8)
        expected = analytic.system_weights(mult, p_s.size - 1)
        np.testing.assert_allclose(p_s, expected, atol=1e-10)

    def test_unit_point_weight_from_trace(self):
        # n_bar = n_q = 1: tracing the assembled joint state puts 2/9 of the
        # system weight on the single-pair rung
        blocks = joint_blocks(1.0, math.asinh(1.0), tol=1e-12)
        p1 = float(blocks.reduced_system()[1])
        assert p1 == pytest.approx(2.0 / 9.0, abs=1e-10)

    def test_environment_reduction_matches_marginal_sums(self):
        blocks = joint_blocks(1.0, 0.8, tol=1e-12)
        p_e = blocks.reduced_environment()
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.8)
        table = analytic.environment_weights(mult, p_e.size - 1, p_e.size - 1)
        marginal = np.array([
            sum(table[ell, n - ell] for ell in range(n + 1))
            for n in range(p_e.size)
        ])
        np.testing.assert_allclose(p_e, marginal, atol=1e-10)

    def test_trace_preserved(self):
        blocks = joint_blocks(0.7, 0.6, tol=1e-10)
        dense = joint_to_dense(blocks)
        dims = (blocks.dim_s, blocks.dim_e)
        total = np.trace(dense).real
        for keep in ("system", "environment"):
            assert abs(np.trace(partial_trace(dense, dims, keep)).real - total) < 1e-12
        assert total == pytest.approx(blocks.trace(), abs=1e-14)

    def test_rejects_unknown_keep(self):
        blocks = joint_blocks(0.5, 0.3, tol=1e-8)
        with pytest.raises(ValueError):
            partial_trace(joint_to_dense(blocks), (blocks.dim_s, blocks.dim_e), "both")


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.eye(8)[0]) == 0.0

    def test_reduced_state_at_unit_total(self):
        # N_bar = 1 needs sinh^2(r) (n_bar + 1) = 1
        n_bar = 1.0
        r = math.asinh(math.sqrt(1.0 / (n_bar + 1.0)))
        blocks = joint_blocks(n_bar, r, tol=1e-12)
        s = von_neumann_entropy(blocks.reduced_system())
        assert s == pytest.approx(2 * math.log(2.0), abs=1e-10)

    def test_bose_einstein_mode(self):
        s = von_neumann_entropy(thermal_weights(1.0, 60))
        assert s == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_validity_floor(self):
        with pytest.raises(DensityMatrixError):
            von_neumann_entropy(np.array([1.0, -1e-8]))

    def test_schmidt_symmetry_for_pure_joint(self):
        blocks = joint_blocks(0.0, 1.0, tol=1e-12)
        s_sys = von_neumann_entropy(blocks.reduced_system())
        s_env = von_neumann_entropy(blocks.reduced_environment())
        assert abs(s_sys - s_env) < 1e-9


class TestExpectations:
    def test_thermal_mode(self):
        number, energy = expectations(thermal_weights(1.0, 80), 1.0)
        assert number == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(1.5, abs=1e-12)

    def test_amplified_environment(self):
        blocks = joint_blocks(1.0, 1.0, tol=1e-12)
        number, energy = expectations(blocks.reduced_environment(), 1.0)
        assert number == pytest.approx(1.0 + 2.0 * math.sinh(1.0) ** 2, rel=1e-10)
        # mean-energy identity: omega (1/2 + n_bar + n_q (n_bar + 1))
        assert energy == pytest.approx(0.5 + 1.0 + 2.0 * math.sinh(1.0) ** 2, rel=1e-10)

    def test_vacuum_zero_point(self):
        number, energy = expectations(np.eye(4)[0], 2.0)
        assert number == 0.0
        assert energy == 1.0


class TestPurity:
    def test_rank_one(self):
        # a cold environment leaves one pure ladder ket, short of unit norm
        # only by the truncated tail
        joint = joint_blocks(0.0, 0.9, tol=1e-12)
        assert joint.purity() == pytest.approx(1.0, abs=1e-11)

    def test_thermal_joint(self):
        blocks = joint_blocks(1.0, 0.0, tol=1e-12)
        assert blocks.purity() == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_unitary_invariance_vs_formula(self):
        # the assembled state keeps its initial purity 1/(2 n_bar + 1) at
        # every squeeze; the closed-form expression drifts away from it
        blocks = joint_blocks(1.0, 0.5, tol=1e-12)
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.5)
        assert blocks.purity() == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert abs(blocks.purity() - analytic.joint_purity(mult)) > 0.05

    def test_formula_validity_domain_is_zero_squeeze(self):
        # empirical domain of the closed-form purity: it matches the oracle
        # at r = 0 and departs monotonically as the squeeze grows
        diffs = []
        for r in (0.0, 0.3, 0.6, 0.9):
            blocks = joint_blocks(0.8, r, tol=1e-10)
            mult = analytic.Multiplicities.from_squeeze(0.8, r)
            diffs.append(abs(blocks.purity() - analytic.joint_purity(mult)))
        assert diffs[0] < 1e-10
        assert all(b > a for a, b in zip(diffs, diffs[1:]))


class TestDiagonality:
    def test_reduced_matrices_diagonal(self):
        for (nb, r) in [(0.5, 0.3), (1.0, 0.8)]:
            _, rho_s, rho_e = dense_reductions(joint_blocks(nb, r, tol=1e-8))
            assert max_offdiagonal(rho_s) < 1e-10
            assert max_offdiagonal(rho_e) < 1e-10


class TestVerify:
    def test_point_matches_closed_forms(self):
        rec = verify_point(1.0, 0.8, omega=1.0, tolerance=1e-12)
        assert abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]) < 1e-8
        rel_q = abs(rec["delta_Q_analytic"] - rec["delta_Q_oracle"]) / rec["delta_Q_analytic"]
        assert rel_q < 1e-8

    def test_trivial_grid_passes(self):
        report = verify_grid([(0.0, 0.0)], tolerance=1e-8)
        assert report["pass"]
        assert report["records"][0]["pass"]

    def test_purity_comparison_never_gates(self):
        # unit pair occupation: formula says 4/9, assembled state is pure
        r = math.asinh(1.0)
        report = verify_grid([(0.0, r)], tolerance=1e-8)
        rec = report["records"][0]
        assert report["pass"]
        assert rec["purity_formula"] == pytest.approx(4.0 / 9.0, rel=1e-10)
        assert rec["purity_oracle"] == pytest.approx(1.0, abs=1e-10)

    def test_infeasible_point_recorded_not_raised(self):
        report = verify_grid([(40.0, 3.5)], tolerance=1e-8,
                             truncation_tolerance=1e-12)
        assert not report["pass"]
        assert "error" in report["records"][0]

    def test_invalid_point_recorded_and_sweep_goes_on(self):
        report = verify_grid([(1.0, -0.5), (math.nan, 0.3), (0.5, 0.3)],
                             tolerance=1e-8)
        bad_r, bad_nbar, good = report["records"]
        assert not report["pass"]
        assert "nonnegative" in bad_r["error"]
        assert "finite" in bad_nbar["error"]
        assert good["pass"]

    def test_failed_truncation_recorded_and_sweep_goes_on(self, monkeypatch):
        def short_ladder(n_bar, r, tolerance, budget=None):
            return TruncationSpec(max_thermal=40, max_squeeze=2, tolerance=tolerance)

        monkeypatch.setattr(fock_oracle, "choose_truncation", short_ladder)
        report = verify_grid([(1.0, 1.0), (0.0, 0.0)], tolerance=1e-8)
        short, trivial = report["records"]
        assert not report["pass"]
        assert "dropped mass" in short["error"]
        assert trivial["pass"]

    @settings(max_examples=8, deadline=None)
    @given(
        n_bar=st.floats(min_value=0.0, max_value=2.5),
        r=st.floats(min_value=0.0, max_value=1.3),
    )
    def test_random_points_match_closed_forms(self, n_bar, r):
        rec = verify_point(n_bar, r, tolerance=1e-10)
        assert abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]) < 1e-8
        q_scale = max(rec["delta_Q_analytic"], 1.0)
        assert abs(rec["delta_Q_analytic"] - rec["delta_Q_oracle"]) < 1e-8 * q_scale

    def test_dense_and_block_routes_agree(self):
        # the ket ensemble's label-matched occupation distributions against
        # the dense product-basis matrix reduced by a label-blind einsum, off
        # diagonals included, and their entropies against the eigenvalues of
        # the dense reductions (dense side at most 1672 at these points and
        # tolerance)
        for (n_bar, r) in [(0.5, 0.3), (1.0, 0.3), (0.1, 0.5), (2.0, 0.3)]:
            joint = joint_blocks(n_bar, r, tol=1e-12)
            dense, rho_s, rho_e = dense_reductions(joint)
            np.testing.assert_allclose(np.diag(joint.reduced_system()),
                                       rho_s, rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.diag(joint.reduced_environment()),
                                       rho_e, rtol=0, atol=1e-15)
            assert joint.purity() == pytest.approx(purity(dense), rel=1e-12)
            for mine, ref in ((joint.reduced_system(), rho_s),
                              (joint.reduced_environment(), rho_e)):
                assert von_neumann_entropy(mine) == pytest.approx(
                    eigvalsh_entropy(ref), abs=1e-12)
            rec = verify_point(n_bar, r, tolerance=1e-12)
            assert rec["purity_oracle"] == joint.purity()
            assert rec["delta_S_oracle"] == pytest.approx(
                eigvalsh_entropy(rho_s), abs=1e-12)

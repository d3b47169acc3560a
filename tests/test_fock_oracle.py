import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from ampbound import analytic, fock_oracle, su11
from ampbound.analytic import geometric_tail, geometric_weights
from ampbound.fock_oracle import (
    TruncationInfeasibleError,
    TruncationSpec,
    choose_truncation,
    expectations,
    reduce_joint_state,
    verify_grid,
    verify_point,
    von_neumann_entropy,
)

from analytic_reference import environment_weights
from conftest import FRONTIER_GRID, ORACLE_GRID
from dense_reference import (
    dense_reductions,
    eigvalsh_entropy,
    joint_to_dense,
    ket_dims,
    max_offdiagonal,
    partial_trace,
    purity,
)
from su11_reference import SqueezeParams, joint_kets, ladder_weights, squeeze_tail


def system_ratio(n_bar, r):
    """``N/(N+1)`` of the geometric system marginal, ``N = sinh(r)**2 (n_bar+1)``."""
    N = math.sinh(r) ** 2 * (n_bar + 1.0)
    return N / (N + 1.0)


def reduction(n_bar, r, tol=1e-12):
    return reduce_joint_state(n_bar, r, choose_truncation(n_bar, r, tol))


def reference_kets(n_bar, r, tol=1e-12, **params):
    """``(pbar, kets)`` of the phased double-sum reference."""
    trunc = choose_truncation(n_bar, r, tol)
    return joint_kets(n_bar, SqueezeParams(r=r, **params), trunc)


class TestChooseTruncation:
    def test_trivial_point(self):
        trunc = choose_truncation(0.0, 0.0, 1e-12)
        assert (trunc.max_thermal, trunc.max_squeeze) == (0, 0)

    def test_thermal_cutoff_geometric_tail(self):
        # (1/2)**(M+1) <= 5e-11 forces M >= 34
        trunc = choose_truncation(1.0, 1.0, 1e-10)
        assert trunc.max_thermal == 34
        assert geometric_tail(1.0, trunc.max_thermal + 1) <= 5e-11
        assert geometric_tail(1.0, trunc.max_thermal) > 5e-11

    def test_monotone_in_tolerance(self):
        loose = choose_truncation(1.0, 1.0, 1e-6)
        tight = choose_truncation(1.0, 1.0, 1e-12)
        assert tight.max_thermal >= loose.max_thermal
        assert tight.max_squeeze >= loose.max_squeeze

    def test_estimator_invariant(self):
        for (nb, r, tol) in [(0.5, 0.8, 1e-10), (2.0, 1.2, 1e-12), (0.0, 1.0, 1e-8)]:
            trunc = choose_truncation(nb, r, tol)
            total = geometric_tail(nb, trunc.max_thermal + 1) + squeeze_tail(
                nb, r, trunc.max_thermal, trunc.max_squeeze)
            assert total <= tol

    def test_minimality_of_ladder_cutoff(self):
        # L is the smallest cutoff at which the geometric system marginal's
        # tail (N/(N+1))**(L+1) fits half the tolerance
        trunc = choose_truncation(1.0, 1.0, 1e-10)
        ratio = system_ratio(1.0, 1.0)
        assert ratio ** (trunc.max_squeeze + 1) <= 5e-11
        assert ratio ** trunc.max_squeeze > 5e-11

    @pytest.mark.parametrize("n_bar", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("r", [0.1, 1.0, 2.25, 3.0])
    def test_geometric_bound_dominates_ladder_tails(self, n_bar, r):
        # corners of the default nbar_vs_nq and nbar_vs_r planes; choosing
        # the cutoffs evaluates no weight, so a large budget costs nothing
        trunc = choose_truncation(n_bar, r, 1e-12, budget=10**10)
        M, L = trunc.max_thermal, trunc.max_squeeze
        bound = system_ratio(n_bar, r) ** (L + 1)
        assert squeeze_tail(n_bar, r, M, L) <= bound <= 5e-13
        assert geometric_tail(n_bar, M + 1) + bound <= 1e-12

    def test_infeasible_budget(self):
        with pytest.raises(TruncationInfeasibleError):
            choose_truncation(5.0, 3.0, 1e-12, budget=10_000)

    def test_infeasible_point_allocates_nothing(self):
        # M = 2.8e7 here: the budget is checked before any array exists
        tracemalloc.start()
        try:
            with pytest.raises(TruncationInfeasibleError):
                choose_truncation(1e6, 0.5, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n_bar, r", [
        (1e11, 0.5), (1e15, 0.5), (1e17, 0.5), (1e300, 1.0),
        # N = sinh(r)**2 (n_bar + 1) overflows near r = 355
        (1.0, 355.0), (1.0, 400.0), (1e300, 400.0)])
    def test_extreme_point_is_infeasible_with_short_message(self, n_bar, r):
        with pytest.raises(TruncationInfeasibleError) as info:
            choose_truncation(n_bar, r, 1e-12)
        # cutoffs are printed in short float form, never as long integers
        cutoffs = re.search(r"M=(\S+), L=(\S+)\) needs (\S+) ", str(info.value))
        assert cutoffs and all(len(c) <= 9 for c in cutoffs.groups())

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            choose_truncation(1.0, 1.0, 0.0)

    def test_tolerance_whose_half_rounds_to_zero(self):
        # a zero tail once reached int() as inf, an OverflowError that the
        # verify sweep did not record per point
        with pytest.raises(ValueError, match="half of it rounds to 0"):
            choose_truncation(1.0, 0.5, 5e-324)
        trunc = choose_truncation(1.0, 0.5, 1e-323)
        assert trunc.max_thermal < 2000 and trunc.max_squeeze < 2000

    @pytest.mark.parametrize("n_bar, r", [(math.nan, 0.3), (1.0, math.inf),
                                          (math.inf, 0.3), (1.0, math.nan)])
    def test_rejects_non_finite_point(self, n_bar, r):
        with pytest.raises(ValueError, match="finite"):
            choose_truncation(n_bar, r, 1e-12)


class TestJointReduction:
    def test_dropped_mass_is_missing_trace(self):
        for (nb, r, tol) in [(0.5, 0.8, 1e-10), (2.0, 1.2, 1e-12), (0.0, 1.0, 1e-8)]:
            joint = reduction(nb, r, tol=tol)
            assert 0.0 <= joint.dropped_mass <= tol
            for p in (joint.p_s, joint.p_e):
                assert p.sum() == pytest.approx(1.0 - joint.dropped_mass, abs=1e-14)

    def test_dimensions_follow_labels(self):
        trunc = choose_truncation(1.0, 0.8, 1e-8)
        joint = reduce_joint_state(1.0, 0.8, trunc)
        assert joint.p_s.size == trunc.max_squeeze + 1
        assert joint.p_e.size == trunc.max_thermal + trunc.max_squeeze + 1

    def test_matches_one_shot_weights(self):
        # one tile covers each point, wider than tall at (1.0, 0.8) and
        # taller than wide at (2.0, 0.3): the streamed sums equal those of
        # the whole weight array pbar_m w[m, l] bit for bit
        for n_bar, r in [(1.0, 0.8), (2.0, 0.3)]:
            trunc = choose_truncation(n_bar, r, 1e-10)
            M, L = trunc.max_thermal, trunc.max_squeeze
            pbar = geometric_weights(n_bar, M + 1)
            w = ladder_weights(r, np.arange(M + 1), L)
            norms = w.sum(axis=1)
            w *= pbar[:, None]
            labels = np.arange(M + 1)[:, None] + np.arange(L + 1)
            joint = reduce_joint_state(n_bar, r, trunc)
            assert joint.p_s.tobytes() == w.sum(axis=0).tobytes()
            assert joint.p_e.tobytes() == np.bincount(labels.ravel(), w.ravel()).tobytes()
            assert joint.purity == float(np.sum((pbar * norms) ** 2))

    # the default tile of (2.0, 0.3) is taller than wide, the others wider
    @pytest.mark.parametrize("n_bar, r", [(1.0, 0.8), (2.0, 1.2), (2.0, 0.3)])
    def test_tile_size_does_not_change_reductions(self, monkeypatch, n_bar, r):
        trunc = choose_truncation(n_bar, r, 1e-12)
        sectors, rungs = trunc.max_thermal + 1, trunc.max_squeeze + 1
        whole = reduce_joint_state(n_bar, r, trunc)
        tiles = []
        make_tiles = su11.ladder_tiles

        def recorded(*args):
            for rows, first_rung, w in make_tiles(*args):
                tiles.append((rows.size, first_rung, w.shape[1]))
                yield rows, first_rung, w

        monkeypatch.setattr(su11, "ladder_tiles", recorded)
        # one sector per tile; each row split over two tiles, the second
        # one shorter; a row-block height that leaves a short last block
        half = rungs // 2 + 1
        height = next(k for k in range(2, sectors) if sectors % k)
        for chunk, expected in [
                (rungs, [(1, 0, rungs)] * sectors),
                (half, [(1, 0, half), (1, half, rungs - half)] * sectors),
                (height * rungs, [(height, 0, rungs)] * (sectors // height)
                 + [(sectors % height, 0, rungs)])]:
            tiles.clear()
            monkeypatch.setattr(su11, "CHUNK_ENTRIES", chunk)
            tiled = reduce_joint_state(n_bar, r, trunc)
            assert tiles == expected
            np.testing.assert_allclose(tiled.p_s, whole.p_s, rtol=0, atol=1e-15)
            np.testing.assert_allclose(tiled.p_e, whole.p_e, rtol=0, atol=1e-15)
            assert tiled.purity == pytest.approx(whole.purity, rel=0, abs=1e-15)
            assert tiled.dropped_mass == pytest.approx(whole.dropped_mass,
                                                       rel=0, abs=1e-15)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="n_bar must be nonnegative"):
            reduce_joint_state(-1.0, 0.5, TruncationSpec(2, 2, 1e-3))

    def test_reduction_holds_a_few_tiles(self):
        # (100, 1.0) evaluates 1.1e7 weights; the reduction keeps O(M + L)
        # sums and one tile's buffers, not a block of weights
        trunc = choose_truncation(100.0, 1.0, 1e-12)
        tracemalloc.start()
        try:
            reduce_joint_state(100.0, 1.0, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n_bar, r, lifted", [
        pytest.param(100.0, 2.25, True, id="100.0-2.25"),
        pytest.param(9.5, 4.6, True, id="9.5-4.6")] + [
        # the corners of the default nbar_vs_nq plane, n_bar and n_q each
        # 0.01 or 100; only (100, 100) needs the budget lifted
        pytest.param(n_bar, math.asinh(math.sqrt(n_q)), n_bar == n_q == 100.0,
                     id=f"nbar_vs_nq-{n_bar}-{n_q}")
        for n_bar in (0.01, 100.0) for n_q in (0.01, 100.0)])
    def test_reaches_corners_beyond_the_budget(self, n_bar, r, lifted):
        # the (100, 2.25) corner of nbar_vs_nq and the k = 0.1 de Sitter
        # mode need 1.8e8 and 2.1e8 weights, ten times ENTRY_BUDGET, and the
        # (100, 100) corner 8.1e8; with the budget lifted the measured
        # dropped mass is the exact one, the thermal tail plus the weighted
        # incomplete-beta ladder tails, and stays within the tolerance.  A
        # corner within the budget passes the full oracle and its gates.
        if not lifted:
            report = verify_grid([(n_bar, r)], truncation_tolerance=1e-12)
            assert report["pass"], report["records"]
            return
        with pytest.raises(TruncationInfeasibleError):
            choose_truncation(n_bar, r, 1e-12)
        trunc = choose_truncation(n_bar, r, 1e-12, budget=10**9)
        joint = reduce_joint_state(n_bar, r, trunc)
        M, L = trunc.max_thermal, trunc.max_squeeze
        exact = geometric_tail(n_bar, M + 1) + np.sum(
            geometric_weights(n_bar, M + 1)
            * betainc(L + 1, np.arange(M + 1) + 1, math.tanh(r) ** 2))
        assert joint.dropped_mass == pytest.approx(exact, rel=0, abs=1e-15)
        assert joint.dropped_mass <= trunc.tolerance
        N_bar = analytic.pair_occupation(r) * (n_bar + 1.0)
        law = geometric_weights(N_bar, joint.p_s.size)
        assert np.abs(joint.p_s - law).max() <= trunc.tolerance


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
        p_s = reduction(1.0, 0.8).p_s
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.8)
        expected = geometric_weights(mult.N_bar, p_s.size)
        np.testing.assert_allclose(p_s, expected, atol=1e-10)

    def test_unit_point_weight_from_trace(self):
        # n_bar = n_q = 1: tracing the assembled joint state puts 2/9 of the
        # system weight on the single-pair rung
        p1 = float(reduction(1.0, math.asinh(1.0)).p_s[1])
        assert p1 == pytest.approx(2.0 / 9.0, abs=1e-10)

    def test_environment_reduction_matches_marginal_sums(self):
        p_e = reduction(1.0, 0.8).p_e
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.8)
        table = environment_weights(mult, p_e.size - 1, p_e.size - 1)
        marginal = np.array([
            sum(table[ell, n - ell] for ell in range(n + 1))
            for n in range(p_e.size)
        ])
        np.testing.assert_allclose(p_e, marginal, atol=1e-10)

    @pytest.mark.parametrize("n_bar, r", ORACLE_GRID + FRONTIER_GRID)
    def test_reductions_are_the_geometric_laws(self, n_bar, r):
        # the system is the Bose-Einstein law at N_bar, the environment at
        # n_bar + N_bar, each to the mass the truncation may drop
        joint = reduction(n_bar, r)
        N_bar = analytic.Multiplicities.from_squeeze(n_bar, r).N_bar
        p_s = geometric_weights(N_bar, joint.p_s.size)
        p_e = geometric_weights(n_bar + N_bar, joint.p_e.size)
        assert np.max(np.abs(joint.p_s - p_s)) <= 1e-12
        assert np.max(np.abs(joint.p_e - p_e)) <= 1e-12

    def test_trace_preserved(self):
        pbar, kets = reference_kets(0.7, 0.6, tol=1e-10)
        dense = joint_to_dense(pbar, kets)
        total = np.trace(dense).real
        for keep in ("system", "environment"):
            assert abs(np.trace(partial_trace(dense, ket_dims(kets), keep)).real
                       - total) < 1e-12
        assert total == pytest.approx(reduction(0.7, 0.6, tol=1e-10).p_s.sum(),
                                      abs=1e-14)

    def test_rejects_unknown_keep(self):
        pbar, kets = reference_kets(0.5, 0.3, tol=1e-8)
        with pytest.raises(ValueError):
            partial_trace(joint_to_dense(pbar, kets), ket_dims(kets), "both")


class TestEntropy:
    def test_pure_state(self):
        # +0.0, not -0.0: verify reports this entropy as the gain itself
        assert math.copysign(1.0, von_neumann_entropy(np.eye(8)[0])) == 1.0

    def test_reduced_state_at_unit_total(self):
        # N_bar = 1 needs sinh^2(r) (n_bar + 1) = 1
        n_bar = 1.0
        r = math.asinh(math.sqrt(1.0 / (n_bar + 1.0)))
        s = von_neumann_entropy(reduction(n_bar, r).p_s)
        assert s == pytest.approx(2 * math.log(2.0), abs=1e-10)

    def test_bose_einstein_mode(self):
        s = von_neumann_entropy(geometric_weights(1.0, 60))
        assert s == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_validity_floor(self):
        with pytest.raises(ValueError, match="validity floor"):
            von_neumann_entropy(np.array([1.0, -1e-8]))

    def test_schmidt_symmetry_for_pure_joint(self):
        joint = reduction(0.0, 1.0)
        s_sys = von_neumann_entropy(joint.p_s)
        s_env = von_neumann_entropy(joint.p_e)
        assert abs(s_sys - s_env) < 1e-9


class TestExpectations:
    def test_thermal_mode(self):
        assert expectations(geometric_weights(1.0, 80)) == pytest.approx(1.0, abs=1e-12)

    def test_amplified_environment(self):
        # mean-occupation identity: n_bar + n_q (n_bar + 1)
        assert expectations(reduction(1.0, 1.0).p_e) == pytest.approx(
            1.0 + 2.0 * math.sinh(1.0) ** 2, rel=1e-10)

    def test_vacuum_is_empty(self):
        assert expectations(np.eye(4)[0]) == 0.0

    def test_heat_is_omega_times_particle_flow(self):
        rec = verify_point(1.0, 0.8, omega=2.5)
        assert rec["delta_Q_oracle"] == 2.5 * rec["delta_N_oracle"]


class TestPurity:
    def test_rank_one(self):
        # a cold environment leaves one pure ladder ket, short of unit norm
        # only by the truncated tail
        assert reduction(0.0, 0.9).purity == pytest.approx(1.0, abs=1e-11)

    def test_thermal_joint(self):
        assert reduction(1.0, 0.0).purity == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_unitary_invariance_vs_formula(self):
        # the assembled state keeps its initial purity 1/(2 n_bar + 1) at
        # every squeeze; the closed-form expression drifts away from it
        joint = reduction(1.0, 0.5)
        mult = analytic.Multiplicities.from_squeeze(1.0, 0.5)
        assert joint.purity == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert abs(joint.purity - analytic.joint_purity(mult)) > 0.05

    def test_unitary_invariant_at_every_point(self):
        # the joint evolution is unitary, so the assembled purity stays at
        # its initial 1/(2 n_bar + 1); truncation drops at most the
        # tolerance, which bounds the relative defect by 2.5x of it
        tol = 1e-12
        points = ORACLE_GRID + FRONTIER_GRID + [(0.0, 0.9)]
        report = verify_grid(points, tolerance=1e-8, truncation_tolerance=tol)
        for rec in report["records"]:
            assert "error" not in rec, rec
            exact = 1.0 / (2.0 * rec["n_bar"] + 1.0)
            assert abs(rec["purity_oracle"] - exact) <= 3 * tol * exact, rec

    def test_formula_validity_domain_is_zero_squeeze(self):
        # empirical domain of the closed-form purity: it matches the oracle
        # at r = 0 and departs monotonically as the squeeze grows
        diffs = []
        for r in (0.0, 0.3, 0.6, 0.9):
            joint = reduction(0.8, r, tol=1e-10)
            mult = analytic.Multiplicities.from_squeeze(0.8, r)
            diffs.append(abs(joint.purity - analytic.joint_purity(mult)))
        assert diffs[0] < 1e-10
        assert all(b > a for a, b in zip(diffs, diffs[1:]))


class TestDiagonality:
    def test_reduced_matrices_diagonal(self):
        for (nb, r) in [(0.5, 0.3), (1.0, 0.8)]:
            _, rho_s, rho_e = dense_reductions(*reference_kets(nb, r, tol=1e-8))
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

    @pytest.mark.parametrize("option", [
        {"tolerance": math.nan}, {"tolerance": -1.0}, {"tolerance": math.inf},
        {"truncation_tolerance": math.nan}, {"truncation_tolerance": 0.0},
        {"truncation_tolerance": 1.0}, {"omega": math.nan}, {"omega": math.inf},
        {"omega": -1.0}, {"omega": 0.0}])
    def test_bad_sweep_option_raises_before_any_point(self, monkeypatch, option):
        def never(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(fock_oracle, "verify_point", never)
        with pytest.raises(ValueError, match="must be"):
            verify_grid([(0.5, 0.3)], **option)

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
    @example(n_bar=0.0, r=3.2532208647296655e-155)
    def test_random_points_match_closed_forms(self, n_bar, r):
        rec = verify_point(n_bar, r, tolerance=1e-10)
        assert abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]) < 1e-8
        q_scale = max(rec["delta_Q_analytic"], 1.0)
        assert abs(rec["delta_Q_analytic"] - rec["delta_Q_oracle"]) < 1e-8 * q_scale

    @pytest.mark.parametrize("n_bar, r", [
        (0.0, 3.2532208647296655e-155), (2.5, 1e-160), (100.0, 1e-156)])
    def test_subnormal_N_bar_counts_as_no_squeeze(self, n_bar, r):
        # the closed forms reject a subnormal N_bar; the record takes it as
        # no squeeze, as the ladder weights do
        assert 0 < analytic.pair_occupation(r) * (n_bar + 1.0) < np.finfo(float).tiny
        rec = verify_point(n_bar, r)
        assert rec["delta_S_analytic"] == rec["delta_Q_analytic"] == 0.0
        assert rec["delta_N_analytic"] == rec["delta_N_oracle"] == 0.0
        assert rec["purity_formula"] == 1.0 / (2.0 * n_bar + 1.0)
        assert verify_grid([(n_bar, r)])["pass"]

    def test_dense_and_block_routes_agree(self):
        # the streamed label-matched occupation distributions against the
        # dense product-basis matrix of the phased double-sum kets, reduced
        # by a label-blind einsum, off diagonals included, and their
        # entropies against the eigenvalues of the dense reductions (dense
        # side at most 1672 at these points and tolerance)
        for (n_bar, r) in [(0.5, 0.3), (1.0, 0.3), (0.1, 0.5), (2.0, 0.3)]:
            joint = reduction(n_bar, r)
            dense, rho_s, rho_e = dense_reductions(
                *reference_kets(n_bar, r, theta=0.9, delta_s=0.3, delta_e=1.1))
            np.testing.assert_allclose(np.diag(joint.p_s), rho_s, rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.diag(joint.p_e), rho_e, rtol=0, atol=1e-15)
            assert joint.purity == pytest.approx(purity(dense), rel=1e-12)
            for mine, ref in ((joint.p_s, rho_s), (joint.p_e, rho_e)):
                assert von_neumann_entropy(mine) == pytest.approx(
                    eigvalsh_entropy(ref), abs=1e-12)
            rec = verify_point(n_bar, r, tolerance=1e-12)
            assert rec["purity_oracle"] == joint.purity
            assert rec["delta_S_oracle"] == pytest.approx(
                eigvalsh_entropy(rho_s), abs=1e-12)

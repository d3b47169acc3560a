import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampbound import analytic
from ampbound.analytic import (
    Multiplicities,
    ThermalSpec,
    bound_ratio,
    delta_N,
    delta_Q,
    delta_S,
    entropy_gain,
    geometric_cutoff,
    geometric_tail,
    geometric_weights,
    joint_purity,
    nbar_from_thermal,
    pair_occupation,
    ratio_from_occupation,
    ratio_from_temperature,
)

import analytic_reference as ref
from analytic_reference import environment_pgf, environment_weights, written_ratio


class TestMultiplicities:
    def test_total_relation_exact(self):
        m = Multiplicities(0.7, 2.3)
        assert m.N_bar == 2.3 * (0.7 + 1.0)

    def test_from_squeeze(self):
        m = Multiplicities.from_squeeze(0.0, 1.0)
        assert m.n_q == pytest.approx(1.3810978455418155, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Multiplicities(-0.1, 1.0)
        with pytest.raises(ValueError):
            Multiplicities(1.0, -0.1)

    @pytest.mark.parametrize("n_bar, n_q", [(math.nan, 1.0), (1.0, math.nan),
                                            (math.inf, 1.0), (1.0, math.inf),
                                            (1.0, -math.inf), (math.inf, 0.0),
                                            (1e300, 1e300)])
    def test_non_finite_rejected(self, n_bar, n_q):
        with pytest.raises(ValueError, match="finite"):
            Multiplicities(n_bar, n_q)

    def test_squeeze_overflow_rejected(self):
        # sinh(r)**2 overflows to inf beyond r of about 355 (sinh itself
        # beyond 710), without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (400.0, 800.0):
                assert pair_occupation(r) == math.inf
                with pytest.raises(ValueError, match="finite"):
                    Multiplicities.from_squeeze(1.0, r)

    def test_pair_occupation_is_the_scalar_square(self):
        for r in (0.0, -0.3, 1e-8, 1.0, 20.0, 355.0):
            assert pair_occupation(r) == float(np.sinh(r) ** 2)
            assert type(pair_occupation(r)) is float


class TestThermalSpec:
    def test_nbar_half_log2(self):
        # omega/T = ln 2 makes exp(omega/T) - 1 = 1
        spec = ThermalSpec(T=1.0, omega=math.log(2.0))
        assert nbar_from_thermal(spec) == pytest.approx(1.0, rel=1e-14)

    def test_nbar_unit_point(self):
        spec = ThermalSpec(T=1.0, omega=1.0)
        assert nbar_from_thermal(spec) == pytest.approx(0.5819767068693265, rel=1e-12)

    def test_nbar_freezeout(self):
        assert nbar_from_thermal(ThermalSpec(T=1.0, omega=30.0)) == pytest.approx(
            9.358e-14, rel=1e-3)
        vals = [nbar_from_thermal(ThermalSpec(T=1.0, omega=w))
                for w in (10.0, 20.0, 40.0, 80.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nbar_deep_freezeout_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nbar_from_thermal(ThermalSpec(T=0.01, omega=20.0)) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ThermalSpec(T=0.0, omega=1.0)
        with pytest.raises(ValueError):
            ThermalSpec(T=1.0, omega=1.0, mu=1.0)
        with pytest.raises(ValueError):
            ThermalSpec(T=1.0, omega=1.0, mu=2.0)

    @pytest.mark.parametrize("omega, mu", [(-1.0, -2.0), (0.0, -1.0), (-1e-300, -1.0)])
    def test_non_positive_frequency_rejected(self, omega, mu):
        # mu < omega holds here, so only the frequency itself is at fault
        with pytest.raises(ValueError, match="frequency must be positive"):
            ThermalSpec(T=1.0, omega=omega, mu=mu)

    @pytest.mark.parametrize("field", ["T", "omega", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"T": 1.0, "omega": 1.0, "mu": 0.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            ThermalSpec(**kwargs)


class TestSystemWeights:
    """The system marginal is the Bose-Einstein law at mean ``N_bar``."""

    def test_halving_at_unit_total(self):
        # N_bar = 1: geometric with ratio 1/2
        m = Multiplicities(0.0, 1.0)
        w = geometric_weights(m.N_bar, 7)
        assert w[0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(w, 0.5 ** (np.arange(7) + 1), rtol=1e-14)

    def test_vacuum(self):
        w = geometric_weights(Multiplicities(1.0, 0.0).N_bar, 5)
        assert w[0] == 1.0
        assert np.all(w[1:] == 0.0)
        assert geometric_tail(0.0, 5) == 0.0 and geometric_cutoff(0.0, 1e-12) == 0

    def test_unit_occupations(self):
        # n_bar = n_q = 1 gives N_bar = 2 and p_1 = 2/9; the same number
        # comes out of the partial trace of the assembled joint state
        # (see test_fock_oracle).
        w = geometric_weights(Multiplicities(1.0, 1.0).N_bar, 4)
        assert w[1] == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_truncated_normalization_identity(self):
        # the truncated sum is exactly 1 - (N/(N+1))**(L+1)
        m = Multiplicities(0.8, 1.7)
        for L in (0, 3, 17, 60):
            total = geometric_weights(m.N_bar, L + 1).sum()
            expected = 1.0 - (m.N_bar / (m.N_bar + 1.0)) ** (L + 1)
            assert total == pytest.approx(expected, rel=1e-12)
            assert geometric_tail(m.N_bar, L + 1) == pytest.approx(1.0 - expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(mean=st.one_of(st.sampled_from([0.0, 1e-300, 1e300, math.inf]),
                          st.floats(min_value=1e-300, max_value=1e6)),
           count=st.integers(min_value=0, max_value=400),
           tail=st.floats(min_value=1e-15, max_value=0.5))
    @example(mean=1.0, count=2, tail=0.25)
    def test_law_sums_to_one_and_cutoff_is_minimal(self, mean, count, tail):
        w = geometric_weights(mean, count)
        assert w.shape == (count,)
        # every weight shares the rounding of ln(mean/(mean+1)), a few ulp
        total = math.fsum(w) + geometric_tail(mean, count)
        assert abs(total - 1.0) <= 1e-14 * (count + 1)
        K = geometric_cutoff(mean, tail)
        if K == math.inf:
            # the ratio rounds to 1: no count brings the tail below 1
            assert mean > 1e15 and geometric_tail(mean, 10**9) == 1.0
        else:
            # the tail fits at K and not at K - 1, to rounding
            assert geometric_tail(mean, K + 1) <= tail * (1.0 + 1e-12)
            assert K == 0 or geometric_tail(mean, K) > tail * (1.0 - 1e-12)


class TestEnvironmentWeights:
    def test_no_amplification_is_thermal(self):
        m = Multiplicities(1.3, 0.0)
        w = environment_weights(m, 4, 30)
        thermal = 1.3 ** np.arange(31) / 2.3 ** (np.arange(31) + 1)
        np.testing.assert_allclose(w[0], thermal, rtol=1e-12)
        assert np.all(w[1:] == 0.0)

    def test_cold_environment_is_pair_thermal(self):
        m = Multiplicities(0.0, 0.9)
        w = environment_weights(m, 30, 4)
        pairs = 0.9 ** np.arange(31) / 1.9 ** (np.arange(31) + 1)
        np.testing.assert_allclose(w[:, 0], pairs, rtol=1e-12)
        assert np.all(w[:, 1:] == 0.0)

    def test_unit_point_value(self):
        w = environment_weights(Multiplicities(1.0, 1.0), 2, 2)
        assert w[1, 1] == pytest.approx(0.0625, rel=1e-13)

    def test_normalization_within_envelope_tail(self):
        # both marginals are geometric, so cutoffs chosen from those
        # envelopes put the missing mass below 1e-10
        m = Multiplicities(0.9, 1.4)
        ell_max = int(np.ceil(math.log(1e-11) / math.log(m.N_bar / (m.N_bar + 1))))
        m_max = int(np.ceil(math.log(1e-11) / math.log(m.n_bar / (m.n_bar + 1))))
        total = environment_weights(m, ell_max, m_max).sum()
        assert 1.0 - total < 1e-10
        assert total <= 1.0 + 1e-12

    def test_no_overflow_at_large_indices(self):
        # log-space assembly keeps four-digit indices finite
        w = environment_weights(Multiplicities(0.9, 1.4), 1200, 1200)
        assert np.all(np.isfinite(w))
        assert w.max() < 1.0


class TestPgf:
    def test_marginal_limits(self):
        m = Multiplicities(0.7, 1.1)
        for s in (0.0, 0.3, 0.9):
            assert environment_pgf(m, s, 1.0) == pytest.approx(
                1.0 / (1.0 + (1.0 - s) * m.n_bar), rel=1e-14)
        for w in (0.0, 0.4, 1.0):
            assert environment_pgf(m, 1.0, w) == pytest.approx(
                1.0 / (1.0 + (1.0 - w) * m.N_bar), rel=1e-14)
        assert environment_pgf(m, 1.0, 1.0) == 1.0

    def test_finite_difference_means(self):
        m = Multiplicities(0.7, 1.1)
        h = 1e-6
        mean_m = (environment_pgf(m, 1.0, 1.0) - environment_pgf(m, 1.0 - h, 1.0)) / h
        mean_l = (environment_pgf(m, 1.0, 1.0) - environment_pgf(m, 1.0, 1.0 - h)) / h
        assert mean_m == pytest.approx(m.n_bar, abs=1e-5)
        assert mean_l == pytest.approx(m.N_bar, abs=1e-5)

    def test_pgf_matches_weights_sum(self):
        m = Multiplicities(0.5, 0.8)
        w = environment_weights(m, 140, 140)
        s, t = 0.6, 0.7
        ell = np.arange(141)[:, None]
        mm = np.arange(141)[None, :]
        direct = float(np.sum(w * s ** mm * t ** ell))
        assert direct == pytest.approx(environment_pgf(m, s, t), abs=1e-10)


class TestJointPurity:
    def test_thermal_only(self):
        assert joint_purity(Multiplicities(1.0, 0.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_double_vacuum(self):
        assert joint_purity(Multiplicities(0.0, 0.0)) == 1.0

    def test_cold_amplified_value_disagrees_with_unitarity(self):
        # the expression evaluates to 4/9 here although the evolved state is
        # pure; the oracle comparison is tracked in the verification report
        assert joint_purity(Multiplicities(0.0, 1.0)) == pytest.approx(4.0 / 9.0, rel=1e-14)


class TestFlows:
    def test_delta_S_values(self):
        assert delta_S(Multiplicities(1.0, 0.0)) == 0.0
        assert delta_S(Multiplicities(0.0, 1.0)) == pytest.approx(2 * math.log(2), rel=1e-14)
        assert delta_S(Multiplicities(0.0, 3.0)) == pytest.approx(2.249340578475233, rel=1e-12)

    def test_delta_Q_values(self):
        assert delta_Q(1.0, Multiplicities(5.0, 0.0)) == 0.0
        assert delta_Q(1.0, Multiplicities(1.0, 1.0)) == pytest.approx(2.0, rel=1e-14)
        assert delta_Q(2.0, Multiplicities.from_squeeze(0.0, 1.0)) == pytest.approx(
            2.762195691083631, rel=1e-12)

    def test_delta_N_values(self):
        assert delta_N(Multiplicities(3.0, 0.0)) == 0.0
        assert delta_N(Multiplicities(1.0, 1.0)) == 2.0
        assert delta_N(Multiplicities(0.0, 5.0)) == 5.0

    def test_entropy_gain_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_gain(-0.5)

    def test_overflowing_heat_rejected(self):
        m = Multiplicities(1.0, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            delta_Q(1e308, m)
        with pytest.raises(ValueError, match="overflows"):
            bound_ratio(ThermalSpec(T=1.0, omega=1e308), m)
        # at T = 1 this ratio would be subnormal, which raises on its own
        assert bound_ratio(ThermalSpec(T=1e3, omega=5e307), m).delta_Q == 1e308


class TestBoundRatio:
    def test_violated_point(self):
        spec = ThermalSpec(T=1.0, omega=math.log(2.0))
        report = bound_ratio(spec, Multiplicities(1.0, 1.0))
        assert report.ratio == pytest.approx(1.3774437510817343, rel=1e-10)
        assert not report.satisfied
        assert report.delta_Q == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_satisfied_point(self):
        spec = ThermalSpec(T=1.0, omega=math.log(11.0))
        report = bound_ratio(spec, Multiplicities(0.1, 10.0))
        assert report.ratio == pytest.approx(0.1304944319568385, rel=1e-10)
        assert report.satisfied

    def test_no_amplification(self):
        spec = ThermalSpec(T=1.0, omega=1.0)
        report = bound_ratio(spec, Multiplicities(0.5819767068693265, 0.0))
        assert report.ratio == 0.0
        assert report.delta_S == report.delta_Q == report.delta_N == 0.0
        assert report.satisfied

    def test_zero_entropy_iff_zero_particles(self):
        for n_q in (0.0, 1e-8, 0.5):
            rep = bound_ratio(ThermalSpec(T=1.0, omega=1.0), Multiplicities(0.3, n_q))
            assert (rep.delta_S == 0.0) == (rep.delta_N == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n_bar=st.floats(min_value=1e-3, max_value=1e3),
        N_bar=st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_form_equivalence(self, n_bar, N_bar):
        # with T/(omega-mu) = 1/ln(1+1/n_bar) both forms equal the written
        # temperature form, which is accurate at these N_bar
        omega = math.log1p(1.0 / n_bar)
        written = written_ratio(1.0, omega, 0.0, N_bar)
        assert ratio_from_temperature(1.0, omega, 0.0, N_bar) == pytest.approx(written, rel=1e-12)
        assert ratio_from_occupation(n_bar, N_bar) == pytest.approx(written, rel=1e-12)

    def test_mu_invariance_is_exact(self):
        for (T, omega, mu) in [(1.0, 2.0, 0.7), (0.5, 1.0, -3.0), (2.0, 5.0, 4.0)]:
            n_bar = nbar_from_thermal(ThermalSpec(T=T, omega=omega, mu=mu))
            m = Multiplicities(n_bar, 1.3)
            with_mu = bound_ratio(ThermalSpec(T=T, omega=omega, mu=mu), m)
            shifted = bound_ratio(ThermalSpec(T=T, omega=omega - mu, mu=0.0), m)
            assert with_mu.ratio == shifted.ratio

    def test_shape_factor_monotone_above_one(self):
        N = np.logspace(0.0, 6.0, 400)
        vals = np.array([ratio_from_temperature(1.0, 1.0, 0.0, n) for n in N])
        assert np.all(np.diff(vals) < 0.0)


class TestArrayForms:
    """The closed forms behind ``map`` take arrays; each cell must equal the
    scalar call bit for bit, since ``map`` output is fixed to 17 digits."""

    OCCUPATION = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300))

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(
        st.tuples(OCCUPATION, OCCUPATION,
                  st.floats(min_value=1e-3, max_value=1e3),
                  st.floats(min_value=-10.0, max_value=0.0)),
        min_size=1, max_size=16))
    def test_array_call_matches_scalar_calls(self, cells):
        n_bar, N, omega, mu = (np.array(col) for col in zip(*cells))
        calls = [
            (entropy_gain, (N,)),
            (ratio_from_occupation, (n_bar, N)),
            (ratio_from_temperature, (1.0, omega, mu, N)),
        ]
        for fn, args in calls:
            scalar = [fn(*(a if np.isscalar(a) else float(a[i]) for a in args))
                      for i in range(len(cells))]
            assert all(type(v) is float for v in scalar)
            with np.errstate(all="ignore"):
                array = fn(*args)
            assert array.shape == (len(cells),)
            assert array.tobytes() == np.array(scalar).tobytes(), fn.__name__

    def test_broadcasts_to_a_grid(self):
        xs, ys = np.array([0.0, 0.5, 2.0]), np.array([0.0, 1.0, 10.0, 1e6])
        grid = ratio_from_occupation(xs[:, None], ys[None, :] * (xs[:, None] + 1.0))
        assert grid.shape == (3, 4)
        assert np.all(grid[0] == 0.0) and np.all(grid[:, 0] == 0.0)
        grid = ratio_from_temperature(1.0, ys[None, 1:], 0.5, xs[:, None])
        assert grid.shape == (3, 3)
        assert np.all(grid[0] == 0.0)

    FORMS = [
        entropy_gain,
        lambda N: ratio_from_occupation(1.0, N),
        lambda n_bar: ratio_from_occupation(n_bar, 1.0),
        lambda N: ratio_from_temperature(1.0, 2.0, 0.0, N),
    ]

    @pytest.mark.parametrize("fn", FORMS)
    def test_any_negative_occupation_rejected(self, fn):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(np.array([[1.0, 0.0], [2.0, -1e-300]]))

    @pytest.mark.parametrize("fn", FORMS)
    def test_any_subnormal_occupation_rejected(self, fn):
        # 1/x overflows for a nonzero x below the smallest normal double
        with pytest.raises(ValueError, match="at least"):
            fn(np.array([[1.0, 0.0], [2.0, 1e-310]]))

    def test_zero_temperature_gives_zero(self):
        assert ratio_from_temperature(0.0, 1.0, 0.0, 2.0) == 0.0
        grid = ratio_from_temperature(np.array([0.0, 1.0]), 1.0, 0.0, 2.0)
        assert grid[0] == 0.0 and grid[1] > 0.0

    def test_subnormal_ratio_rejected(self):
        # 17 printed digits of a subnormal ratio would be mostly noise
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_temperature(1.0, 1.7e308, 0.0, 1.0)
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_temperature(1.0, np.array([1.0, 1e6]), 0.0, 1.7e308)
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_occupation(np.array([1.0, 1e-300]), 1e308)
        with pytest.raises(ValueError, match="ratio underflows"):
            bound_ratio(ThermalSpec(T=1.0, omega=1.7e308), Multiplicities(0.0, 1.0))
        # the smallest normal ratio still passes
        assert ratio_from_temperature(1.0, 5e307, 0.0, 1.0) > 2.2e-308

    def test_overflowing_ratio_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            ratio_from_temperature(1e300, 1e-10, 0.0, np.array([1.0, 1e-3]))
        with pytest.raises(ValueError, match="not finite"):
            ratio_from_occupation(1.7e308, 1e-300)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            ratio_from_occupation(1e200, np.array([1e200]) * 1e200)

    def test_overflowing_beta_rejected(self):
        # (omega - mu)/T = 1e310 overflows to inf, which made the ratio a
        # false 0; the true ratio, about 1e-310, is subnormal
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_temperature(1e-10, 1e300, 0.0, 2.0)
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_temperature(np.array([1.0, 1e-10]), 1e300, 0.0, 2.0)
        with pytest.raises(ValueError, match="ratio underflows"):
            ratio_from_temperature(1.0, 1.7e308, -1.7e308, 2.0)
        # T = 0 and N_bar = 0 keep their documented ratio 0
        assert ratio_from_temperature(0.0, 1e300, 0.0, 2.0) == 0.0
        assert ratio_from_temperature(1e-10, 1e300, 0.0, 0.0) == 0.0


class TestAgainstMpmath:
    """The production closed forms against 50-digit references, with the
    occupations drawn log-uniform over the normal doubles."""

    OCCUPATION = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
    SCALE = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)

    @settings(max_examples=300, deadline=None)
    @given(N=OCCUPATION, n_bar=OCCUPATION, T=SCALE, omega=SCALE,
           mu=st.floats(min_value=-10.0, max_value=0.0))
    @example(N=sys.float_info.max, n_bar=1.0, T=1.0, omega=1.0, mu=0.0)
    @example(N=sys.float_info.max, n_bar=1e300, T=1e3, omega=1e-3, mu=0.0)
    def test_relative_error_below_1e_14(self, N, n_bar, T, omega, mu):
        # at the largest N_bar the ratio is about 710/(N beta), so a beta
        # above about 100 makes it subnormal, with fewer digits to compare
        assert ref.rel_err(entropy_gain(N), ref.mp_entropy_gain(N)) <= 1e-14
        assert ref.rel_err(ratio_from_temperature(T, omega, mu, N),
                           ref.mp_ratio_from_temperature(T, omega, mu, N)) <= 1e-14
        assert ref.rel_err(ratio_from_occupation(n_bar, N),
                           ref.mp_ratio_from_occupation(n_bar, N)) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(n_bar=OCCUPATION)
    def test_nbar_from_thermal(self, n_bar):
        # omega/T is exact here: any rounding of (omega - mu)/T is input
        # error, which the exponential amplifies by up to omega/T
        x = math.log1p(1.0 / n_bar)
        got = nbar_from_thermal(ThermalSpec(T=1.0, omega=x))
        assert ref.rel_err(got, ref.mp_nbar_from_thermal(1.0, x, 0.0)) <= 1e-14


class TestAsymptotics:
    # the paper's expansions within 0.1% of the exact ratio deep in their regimes
    @staticmethod
    def check(regime, points):
        for n_bar, N_bar in points:
            m = Multiplicities(n_bar, N_bar / (1.0 + n_bar))
            t = 1.0 / math.log1p(1.0 / n_bar)
            exact = ratio_from_occupation(n_bar, m.N_bar)
            approx = ref.EXPANSIONS[regime](m.n_bar, m.n_q, m.N_bar, t)
            assert abs(approx - exact) / exact < 1e-3, (regime, n_bar, N_bar)

    def test_large_N_consistency(self):
        self.check("largeN_general", [(n_bar, 2e3) for n_bar in (0.05, 0.5, 5.0, 50.0)])
        self.check("largeN_large_nbar", [(1e3, 1e6)])
        self.check("largeN_small_nbar", [(1e-3, 1e4)])

    def test_small_N_consistency(self):
        self.check("smallN_general", [(n_bar, 1e-4) for n_bar in (0.01, 0.3)])
        self.check("smallN_small_nbar", [(1e-3, 1e-4)])
        self.check("smallN_large_nbar", [(1e3, 1e-4)])

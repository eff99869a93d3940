import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from luccsim import (
    MetricUndefinedError,
    SplitMix64,
    distribution_summary,
    fit_report,
)
from luccsim.metrics import ordinal_fit, rmse_and_v

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRmseAndV:
    def test_identical_series(self):
        assert rmse_and_v([10, 20, 30], [10, 20, 30]) == (0.0, 0.0)

    def test_hand_computed(self):
        rmse, v = rmse_and_v([10, 20], [14, 16])
        assert rmse == pytest.approx(4.0, abs=1e-12)
        assert v == pytest.approx(4.0 / 15.0, abs=1e-12)

    def test_zero_observed_mean(self):
        with pytest.raises(MetricUndefinedError, match="observed mean"):
            rmse_and_v([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(MetricUndefinedError, match="lengths differ"):
            rmse_and_v([1, 2, 3], [1, 2])

    @given(st.lists(finite, min_size=2, max_size=30))
    def test_self_rmse_is_zero(self, xs):
        if sum(xs) / len(xs) == 0.0:
            return
        rmse, v = rmse_and_v(xs, xs)
        assert rmse == 0.0
        assert v == 0.0


class TestOrdinalFit:
    def test_perfect_order(self):
        assert ordinal_fit([1, 2, 3], [10, 20, 30]) == (1.0, 1.0)

    def test_reversed_order(self):
        assert ordinal_fit([1, 2, 3], [3, 2, 1]) == (0.0, -1.0)

    def test_mixed_example(self):
        pm, iof = ordinal_fit([1, 2, 3], [2, 1, 3])
        assert pm == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert iof == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_simulated_tie_counts_as_mismatch(self):
        pm, _ = ordinal_fit([1, 2], [5, 5])
        assert pm == 0.0

    def test_observed_ties_excluded(self):
        pm, _ = ordinal_fit([1, 1, 2], [9, 0, 10])
        # only the (obs 1, obs 2) pairs count; both are ordered correctly
        assert pm == 1.0

    def test_all_observed_tied(self):
        with pytest.raises(MetricUndefinedError, match="tied"):
            ordinal_fit([5, 5, 5], [1, 2, 3])

    # Integer-valued series keep the transformed floats exact, so the
    # mathematical order-invariance is not confounded by rounding collapse.
    @given(
        st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=20),
        st.data(),
    )
    def test_iof_identity_and_monotone_invariance(self, obs, data):
        sim = data.draw(
            st.lists(
                st.integers(-10_000, 10_000),
                min_size=len(obs),
                max_size=len(obs),
            )
        )
        obs = [float(o) for o in obs]
        sim = [float(s) for s in sim]
        try:
            pm, iof = ordinal_fit(obs, sim)
        except MetricUndefinedError:
            return
        assert iof == 2.0 * pm - 1.0
        # strictly increasing transforms preserve every pairwise order
        pm2, _ = ordinal_fit([3.0 * o + 7.0 for o in obs], sim)
        pm3, _ = ordinal_fit(obs, [math.atan(s) + 2.0 * s for s in sim])
        assert pm2 == pm
        assert pm3 == pm

    @given(st.lists(finite, min_size=2, max_size=20), st.data())
    def test_symmetric_under_joint_reversal(self, obs, data):
        sim = data.draw(
            st.lists(finite, min_size=len(obs), max_size=len(obs))
        )
        try:
            pm, _ = ordinal_fit(obs, sim)
        except MetricUndefinedError:
            return
        pm_rev, _ = ordinal_fit(obs[::-1], sim[::-1])
        assert pm_rev == pm


class TestFitReport:
    def test_report_bundles_both_views(self):
        report = fit_report([10, 20, 30], [12, 18, 33])
        assert report.iof == 1.0
        assert report.rmse > 0.0

    def test_identity_holds_over_random_pairs(self):
        rng = SplitMix64(2024)
        for _ in range(1000):
            n = 2 + rng.randrange(9)
            obs = [rng.random() * 100.0 - 20.0 for _ in range(n)]
            sim = [rng.random() * 100.0 - 20.0 for _ in range(n)]
            try:
                pm, iof = ordinal_fit(obs, sim)
            except MetricUndefinedError:
                continue
            assert iof == 2.0 * pm - 1.0


class TestDistributionSummary:
    def test_symmetric_values(self):
        s = distribution_summary([1, 2, 3, 4, 5])
        assert (s.q25, s.median, s.q75) == (2.0, 3.0, 4.0)
        assert (s.min, s.max) == (1.0, 5.0)

    def test_constant_series_cv_zero(self):
        assert distribution_summary([10, 10, 10]).cv == 0.0

    def test_population_cv(self):
        assert distribution_summary([0, 10]).cv == pytest.approx(100.0, abs=1e-12)

    def test_zero_mean_has_no_cv(self):
        s = distribution_summary([-0.1, 0.1, -0.3, 0.3])
        assert s.cv is None and s.mean == 0.0
        assert (s.min, s.q25, s.median, s.q75, s.max) == (-0.3, -0.15, 0.0, 0.15, 0.3)

    def test_interpolated_quartiles(self):
        s = distribution_summary([1, 2, 3, 4])
        assert s.q25 == pytest.approx(1.75)
        assert s.median == pytest.approx(2.5)
        assert s.q75 == pytest.approx(3.25)

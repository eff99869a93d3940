import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luccsim import (
    MetricUndefinedError,
    SplitMix64,
    distribution_summary,
    fit_report,
)
from luccsim.metrics import ordinal_fit, rmse_and_v
from luccsim.numeric import sequential_sum

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

    # Each wrote Infinity to fit.json, the second with numpy's overflow warning.
    @pytest.mark.parametrize("observed", [[1e-310, 2e-310, 3e-310], [1e308, -1e308, 1e308]])
    def test_overflow_is_undefined(self, observed):
        with pytest.raises(MetricUndefinedError, match="overflows"):
            rmse_and_v(observed, [1.0, 2.0, 3.0])

    # Each gave (0.0, 0.0): every squared difference is subnormal or zero.
    @pytest.mark.parametrize("shift", [1e-170, 2.0**-512, 5e-324])
    def test_underflowing_squares_are_undefined(self, shift):
        with pytest.raises(MetricUndefinedError, match="underflows"):
            rmse_and_v([0.0, 2e-170, 1.0], [shift, 2e-170, 1.0])

    def test_a_difference_whose_square_is_normal_is_defined(self):
        rmse, _ = rmse_and_v([0.0, 1.0], [2.0**-511, 1.0])
        assert rmse == math.sqrt(2.0**-1022 / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_undefined(self, bad):
        for observed, simulated in ([1.0, bad], [1.0, 2.0]), ([1.0, 2.0], [bad, 1.0]):
            with pytest.raises(MetricUndefinedError, match="finite"):
                fit_report(observed, simulated)

    def test_means_are_left_to_right_sums(self):
        # numpy's pairwise mean gives v = 1.1254628677422756 here
        observed = np.arange(0.1, 1.0, 0.1).tolist()  # 0.30000000000000004, ...
        assert rmse_and_v(observed, [0.0] * 9)[1] == 1.1254628677422753

        def running_mean(values):
            total = 0.0
            for value in values:
                total += value
            return total / len(values)

        rng = np.random.default_rng(7)
        for _ in range(200):
            obs, sim = rng.uniform(0.0, 100.0, size=(2, 27)).tolist()
            rmse = math.sqrt(running_mean([(o - s) ** 2 for o, s in zip(obs, sim)]))
            assert rmse_and_v(obs, sim) == (rmse, rmse / running_mean(obs))

    @given(st.lists(finite, min_size=2, max_size=30))
    def test_self_rmse_is_zero(self, xs):
        # the observed mean is a left-to-right sum; built-in sum() is compensated from 3.12
        if sequential_sum(xs) / len(xs) == 0.0:
            return
        rmse, v = rmse_and_v(xs, xs)
        assert rmse == 0.0
        assert v == 0.0


def _ordinal_fit_by_pairs(observed, simulated):
    """ordinal_fit as a double loop over the pairs (i, j > i), a pair at a time."""
    matches = mismatches = 0
    n = len(observed)
    for i in range(n - 1):
        for j in range(i + 1, n):
            d_obs = observed[i] - observed[j]
            if d_obs == 0:
                continue
            d_sim = simulated[i] - simulated[j]
            if d_sim == 0:
                mismatches += 1
            elif (d_obs > 0) == (d_sim > 0):
                matches += 1
            else:
                mismatches += 1
    total = matches + mismatches
    if total == 0:
        raise MetricUndefinedError("all observed pairs are tied")
    pm = matches / total
    return pm, 2.0 * pm - 1.0


class TestOrdinalFit:
    # n points of each series drawn from at most eight values, so ties are
    # common; some differences overflow.
    @settings(derandomize=True, max_examples=200)
    @given(st.integers(2, 200), st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308]) | st.floats(
            allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1))
    def test_counts_the_pairs_the_double_loop_counts(self, n, values, seed):
        obs, sim = np.random.default_rng(seed).choice(values, size=(2, n)).tolist()
        try:
            expected = _ordinal_fit_by_pairs(obs, sim)
        except MetricUndefinedError:
            with pytest.raises(MetricUndefinedError, match="tied"):
                ordinal_fit(obs, sim)
            return
        assert ordinal_fit(obs, sim) == expected

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

    def test_imports_no_module(self):
        # np.percentile imports numpy.ma on its first call (through np.unique)
        code = (
            "import sys\n"
            "from luccsim.metrics import distribution_summary\n"
            "before = set(sys.modules)\n"
            "distribution_summary([3.0, -1.0, 2.5, 0.0, 7.25])\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert done.stdout.strip() == "[]"

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -7.125]) | st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=200))
    def test_quartiles_min_and_max_have_numpys_bits(self, values):
        arr = np.array(values)
        s = distribution_summary(values)
        got = [s.min, s.q25, s.median, s.q75, s.max]
        expected = [np.min(arr), *(np.percentile(arr, q, method="linear") for q in (25, 50, 75)),
                    np.max(arr)]
        assert np.array(got).tobytes() == np.array(expected, dtype=np.float64).tobytes()

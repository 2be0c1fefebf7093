"""Analyzer-level goldens + hypothesis differentials vs pandas.

Expectations mirror the reference's pinned values
(/root/reference/hooqu/tests/test_analyzers.py); every analyzer also runs
through the local backend with forced multi-chunk folding so merge laws are
exercised on each example."""

import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.pandas import column, data_frames

import hooqu_ray as hq
from hooqu_ray.metrics import Failure, Success
from hooqu_ray.runner import do_analysis_run


def metric(df, analyzer, chunk_rows=None):
    ctx = do_analysis_run(df, [analyzer], chunk_rows=chunk_rows)
    return ctx.metric_map[analyzer]


def df_strategy(allow_nan=True, allow_infinity=True):
    from string import printable

    return data_frames(
        columns=[
            column(name="item", dtype=float),
            column(name="att1", dtype="object"),
            column(name="att2", dtype=float),
        ],
        rows=st.tuples(
            st.floats(allow_nan=allow_nan, allow_infinity=allow_infinity),
            st.text(printable, max_size=5),
            st.floats(allow_nan=allow_nan, allow_infinity=allow_infinity),
        ),
    )


HYPO = settings(max_examples=40, deadline=None)


class TestMinMax:
    @HYPO
    @given(df_strategy())
    def test_min_matches_pandas(self, data):
        m = metric(data, hq.Minimum("item"), chunk_rows=3)
        assert isinstance(m.value, Success)
        np.testing.assert_equal(m.value.get(), data["item"].min())

    @HYPO
    @given(df_strategy())
    def test_max_matches_pandas(self, data):
        m = metric(data, hq.Maximum("item"), chunk_rows=3)
        assert isinstance(m.value, Success)
        np.testing.assert_equal(m.value.get(), data["item"].max())

    def test_min_max_with_filter(self, df_with_numeric_values):
        assert metric(
            df_with_numeric_values, hq.Minimum("att1", where="item != '6'")
        ).value == Success(1.0)
        assert metric(
            df_with_numeric_values, hq.Maximum("att1", where="item != '6'")
        ).value == Success(5.0)

    def test_min_non_numeric_fails(self, df_missing):
        assert isinstance(metric(df_missing, hq.Minimum("att1")).value, Failure)


class TestMeanSumStd:
    @HYPO
    @given(df_strategy())
    def test_mean_matches_pandas(self, data):
        m = metric(data, hq.Mean("att2"), chunk_rows=3)
        assert isinstance(m.value, Success)
        got, expected = m.value.get(), data["att2"].mean()
        # reordered summation error scales with mean(|x|); near DBL_MAX a
        # chunked partial sum may overflow to ±inf where the single pass
        # stays finite — accept either in that pathological zone
        absvals = np.abs(data["att2"][np.isfinite(data["att2"])])
        big = len(absvals) > 0 and absvals.sum() > 1e307
        if np.isinf(got) != np.isinf(expected) and big:
            return
        scale = float(absvals.mean()) if len(absvals) else 0.0
        np.testing.assert_allclose(
            got, expected, rtol=4e-9, atol=1e-9 * scale, equal_nan=True
        )

    @HYPO
    @given(df_strategy())
    def test_sum_matches_pandas(self, data):
        m = metric(data, hq.Sum("att2"), chunk_rows=3)
        assert isinstance(m.value, Success)
        got, expected = m.value.get(), data["att2"].sum()
        # reordered summation error scales with sum(|x|), not the result;
        # near DBL_MAX a partial sum may overflow to ±inf in one order and
        # stay finite in another — accept either when overflow is plausible
        scale = np.nansum(np.abs(data["att2"])) if len(data) else 0.0
        if np.isinf(got) != np.isinf(expected) and scale > 1e307:
            return
        if not np.isfinite(scale):
            # Σ|x| overflowed: cancellation across ±DBL_MAX terms makes the
            # result order-dependent with UNBOUNDED absolute error (e.g.
            # [0,0,1,DBL_MAX,-DBL_MAX] sums to 0.0 or 1.0 depending on chunking)
            # — any same-signed-inf/finite outcome is acceptable
            return
        np.testing.assert_allclose(
            got, expected, rtol=1e-9, atol=1e-9 * float(scale), equal_nan=True
        )

    @HYPO
    @given(df_strategy())
    @example(
        pd.DataFrame(
            [(0, 0.0, 8.988466e307), (1, 0.0, 8.988466e307)],
            columns=["item", "att1", "att2"],
        )
    )
    @example(
        pd.DataFrame(
            [(0, 0.0, 0.0), (1, 0.0, float("inf"))], columns=["item", "att1", "att2"]
        )
    )
    @example(
        pd.DataFrame(
            [(0.0, "", 8.988466e307), (0.0, "", np.nan), (0.0, "", np.nan),
             (0.0, "", 8.988466e307)],
            columns=["item", "att1", "att2"],
        )
    )
    def test_std_matches_pandas(self, data):
        m = metric(data, hq.StandardDeviation("att2"), chunk_rows=3)
        if len(data) and data["att2"].count():
            assert isinstance(m.value, Success)
            expected = data["att2"].std(ddof=0)
            # the reference normalizes pandas' nan-vs-inf incoherence:
            # tests/test_analyzers.py:128-148
            if math.isnan(expected) and not math.isnan(data["att2"].sum()):
                expected = float("inf")
            got = m.value.get()
            finite = data["att2"][np.isfinite(data["att2"])]
            overflow_zone = np.abs(finite).sum() > 1e307
            if overflow_zone:
                # near DBL_MAX pandas' sum of squares overflows (two equal
                # values give NaN, normalized to inf above): the exact std,
                # computed scaled by the largest finite magnitude so it
                # cannot overflow, is also right
                x, scale = data["att2"], np.abs(finite).max()
                exact = (x / scale).std(ddof=0) * scale
                if math.isnan(exact) and not math.isnan(x.sum()):
                    exact = float("inf")
                if np.isclose(got, exact, rtol=1e-9, atol=0, equal_nan=True):
                    return
            # near DBL_MAX pandas' running sum can overflow to a phantom ±inf
            # that collides with real infs into NaN; the engine tracks actual
            # inf values — accept the divergence in that pathological zone
            if (math.isnan(expected) != math.isnan(got)) and overflow_zone:
                return
            # chunked Chan merges may differ from the single pass in the
            # last ulp; that is inherent to parallel variance
            np.testing.assert_allclose(got, expected, rtol=1e-9, equal_nan=True)
        else:
            assert isinstance(m.value, Failure)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("att2", [
        [8.988466e307, 8.988466e307],
        [8.988466e307, np.nan, np.nan, 8.988466e307]],
        ids=["two_values", "nans_between"])
    def test_std_exact_near_dbl_max(self, att2, chunk_rows):
        """Equal values whose sum overflows have std 0.0 in any chunking
        (the two explicit examples of ``test_std_matches_pandas``)."""
        df = pd.DataFrame({"item": range(len(att2)), "att2": att2})
        m = metric(df, hq.StandardDeviation("att2"), chunk_rows=chunk_rows)
        assert m.value == Success(0.0)

    def test_filtered_goldens(self, df_with_numeric_values):
        df = df_with_numeric_values
        w = "item != '6'"
        assert metric(df, hq.Mean("att1", where=w)).value == Success(3.0)
        assert metric(df, hq.StandardDeviation("att1", where=w)).value == Success(
            1.4142135623730951
        )
        assert metric(df, hq.Sum("att1", where=w)).value == Success(15.0)

    def test_non_numeric_fails(self, df_missing):
        for a in (hq.Mean("att1"), hq.Sum("att1"), hq.StandardDeviation("att1")):
            assert isinstance(metric(df_missing, a).value, Failure)


class TestCompleteness:
    def test_golden(self, df_missing):
        assert metric(df_missing, hq.Completeness("att1")).value == Success(0.5)
        assert metric(df_missing, hq.Completeness("att2")).value == Success(0.75)

    def test_missing_column_fails(self, df_missing):
        m = metric(df_missing, hq.Completeness("some_missing_column"))
        assert m.value.isFailure
        assert m.entity == hq.Entity.COLUMN

    def test_with_filter(self, df_missing):
        m = metric(df_missing, hq.Completeness("att1", "item==1 or item==2"))
        assert m.value == Success(1.0)

    @HYPO
    @given(df_strategy())
    def test_matches_pandas(self, data):
        m = metric(data, hq.Completeness("att2"), chunk_rows=3)
        expected = data["att2"].notnull().sum() / len(data) if len(data) else float("nan")
        np.testing.assert_equal(m.value.get(), expected)


class TestCompliance:
    def test_goldens(self, df_with_numeric_values):
        df = df_with_numeric_values
        assert metric(df, hq.Compliance("rule1", "att1 > 3")).value == Success(0.5)
        assert metric(df, hq.Compliance("rule2", "att1 > 2")).value == Success(4 / 6)

    def test_with_filter(self, df_with_numeric_values):
        m = metric(df_with_numeric_values, hq.Compliance("rule1", "att2 == 0", "att1 < 4"))
        assert m.value == Success(1.0)

    def test_missing_column_fails(self, df_with_numeric_values):
        m = metric(df_with_numeric_values, hq.Compliance("rule1", "attNoSuchColumn"))
        assert m.value.isFailure


class TestPatternMatch:
    def test_prefix(self):
        df = pd.DataFrame({"col": ["miguel", "benjamin", "miguelito"]})
        assert metric(df, hq.PatternMatch("col", r"^miguel")).value == Success(2 / 3)

    def test_non_string_fails(self):
        df = pd.DataFrame({"some": [1.1, None, 3.2, 4.4]})
        assert metric(df, hq.PatternMatch("some", r"\d\.\d")).value.isFailure

    def test_email(self):
        df = pd.DataFrame({"some": ["someone@somewhere.org", "someone@else"]})
        m = metric(df, hq.PatternMatch("some", hq.patterns.EMAIL))
        assert m.value == Success(0.5)

    def test_credit_card(self):
        vals = [
            "378282246310005", "6011111111111117", "6011 1111 1111 1117",
            "6011-1111-1111-1117", "5555555555554444", "5555 5555 5555 4444",
            "5555-5555-5555-4444", "4111111111111111", "4111 1111 1111 1111",
            "4111-1111-1111-1111", "0000111122223333", "000011112222333",
            "00001111222233",
        ]
        df = pd.DataFrame({"some": vals})
        m = metric(df, hq.PatternMatch("some", hq.patterns.CREDITCARD), chunk_rows=4)
        assert m.value == Success(10 / 13)

    def test_urls(self):
        vals = [
            "http://foo.com/blah_blah", "http://foo.com/blah_blah_(wikipedia)",
            "http://foo.bar/?q=Test%20URL-encoded%20stuff", "http://➡.ws/䨹",
            "http://⌘.ws/", "http://☺.damowmow.com/", "http://例子.测试",
            "https://foo_bar.example.com/", "http://userid@example.com:8080",
            "http://foo.com/blah_(wikipedia)#cite-1", "http://../", "h://test",
            "http://.www.foo.bar/",
        ]
        df = pd.DataFrame({"some": vals})
        m = metric(df, hq.PatternMatch("some", hq.patterns.URL), chunk_rows=5)
        assert m.value == Success(10 / 13)

    def test_nulls_count_in_denominator(self):
        df = pd.DataFrame({"some": ["a@b.org", None, None, "nope"]})
        m = metric(df, hq.PatternMatch("some", hq.patterns.EMAIL))
        assert m.value == Success(0.25)


class TestQuantile:
    @pytest.mark.parametrize("q", [-0.1, 1.1, 100])
    def test_invalid_q_fails(self, df_with_numeric_values, q):
        m = metric(df_with_numeric_values, hq.Quantile("att1", q))
        assert m.value.isFailure
        assert "percentiles should all be in the interval [0, 1]" in str(
            m.value.failed().get()
        )

    @pytest.mark.parametrize("q, expected", [(0.5, 0.0), (0.25, -500.0), (0.75, 500)])
    def test_range_goldens(self, q, expected):
        df = pd.DataFrame({"att1": range(-1000, 1001)})
        assert metric(df, hq.Quantile("att1", q), chunk_rows=100).value == Success(expected)

    @HYPO
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_pandas_nearest(self, values, q):
        df = pd.DataFrame({"v": values})
        m = metric(df, hq.Quantile("v", q), chunk_rows=7)
        expected = df["v"].quantile(q, interpolation="nearest")
        np.testing.assert_equal(m.value.get(), expected)

    def test_all_null(self):
        df = pd.DataFrame({"v": [np.nan, np.nan]})
        m = metric(df, hq.Quantile("v", 0.5))
        assert math.isnan(m.value.get())


class TestUniqueness:
    def test_address_table(self):
        rows = [
            ("India", "Xavier House, 2nd Floor", "St. Peter Colony, Prd", "Bandra (West)"),
            ("India", "503 Godavari", "Sir Pochkhanwala Road", "Worli"),
            ("India", "4/4 Seema Society", "N Dutta Road, Four Bungalows", "Andheri"),
            ("India", "1001D Abhishek Apartments", "Juhu Versova Road", "Andheri"),
            ("India", "95, Hill Road", None, None),
            ("India", "90 Cuffe Parade", "Taj President Hotel", "Cuffe Parade"),
            ("India", "4, Seven PM", "Sir Pochkhanwala Rd", "Worli"),
            ("India", "1453 Sahar Road", None, None),
        ]
        df = pd.DataFrame(
            rows, columns=("Country", "Address Line 1", "Address Line 2", "Address Line 3")
        )
        assert metric(df, hq.Uniqueness(["Address Line 1"])).value == Success(1.0)
        m = metric(df, hq.Uniqueness(["Address Line 1", "Address Line 3"]))
        assert m.value == Success(1.0)
        assert m.entity == hq.Entity.MULTICOLUMN

    def test_filtered(self):
        df = pd.DataFrame(
            [("1", "unique"), ("2", "unique"), ("3", "duplicate"),
             ("3", "duplicate"), ("4", "unique")],
            columns=("value", "type"),
        )
        assert metric(df, hq.Uniqueness(["value"])).value == Success(0.6)
        assert metric(df, hq.Uniqueness(["value"], "type=='unique'")).value == Success(1.0)

    def test_frequency_goldens(self):
        df = pd.DataFrame({"att1": ["A", "B", "B"]})
        assert metric(df, hq.Uniqueness(["att1"])).value == Success(1 / 3)
        assert metric(df, hq.Distinctness(["att1"])).value == Success(2 / 3)
        assert metric(df, hq.CountDistinct(["att1"])).value == Success(2.0)
        assert metric(df, hq.UniqueValueRatio(["att1"])).value == Success(0.5)
        expected_entropy = -(1 / 3 * math.log(1 / 3) + 2 / 3 * math.log(2 / 3))
        assert abs(metric(df, hq.Entropy(["att1"])).value.get() - expected_entropy) < 1e-12


class TestSketches:
    def test_approx_count_distinct_accuracy(self):
        n = 5000
        df = pd.DataFrame({"v": np.arange(n) % 1234})
        m = metric(df, hq.ApproxCountDistinct("v"), chunk_rows=500)
        assert abs(m.value.get() - 1234) / 1234 < 0.05

    def test_approx_quantile_accuracy(self):
        rng = np.random.default_rng(7)
        df = pd.DataFrame({"v": rng.normal(size=20000)})
        m = metric(df, hq.ApproxQuantile("v", 0.5), chunk_rows=1000)
        exact = df["v"].quantile(0.5)
        assert abs(m.value.get() - exact) < 0.05

    def test_merge_invariance(self):
        df = pd.DataFrame({"v": np.arange(3000) % 321})
        whole = metric(df, hq.ApproxCountDistinct("v")).value.get()
        chunked = metric(df, hq.ApproxCountDistinct("v"), chunk_rows=100).value.get()
        assert whole == chunked  # HLL merge is exactly order/partition invariant


class TestCorrelation:
    def test_matches_pandas(self, df_with_numeric_values):
        m = metric(df_with_numeric_values, hq.Correlation("att1", "att2"), chunk_rows=2)
        expected = df_with_numeric_values["att1"].corr(df_with_numeric_values["att2"])
        assert abs(m.value.get() - expected) < 1e-12


class TestAnalyzerIdentity:
    def test_dedup(self, df_full):
        ctx = do_analysis_run(
            df_full,
            [hq.Size(), hq.Size(), hq.Completeness("att1"), hq.Completeness("att1")],
        )
        assert len(ctx.metric_map) == 2

    def test_distinct_where_distinct_metric(self, df_with_numeric_values):
        a1 = hq.Mean("att1")
        a2 = hq.Mean("att1", where="item != '6'")
        ctx = do_analysis_run(df_with_numeric_values, [a1, a2])
        assert len(ctx.metric_map) == 2
        assert ctx.metric_map[a1].value == Success(3.5)
        assert ctx.metric_map[a2].value == Success(3.0)


class TestLengthAnalyzers:
    def test_min_max_length(self):
        df = pd.DataFrame({"s": ["ab", "abcd", "", None, "xyzxyz"]})
        m1 = metric(df, hq.MinLength("s"), chunk_rows=2)
        m2 = metric(df, hq.MaxLength("s"), chunk_rows=2)
        assert m1.value == Success(0.0)
        assert m2.value == Success(6.0)

    def test_non_string_fails(self, df_with_numeric_values):
        assert metric(df_with_numeric_values, hq.MinLength("att1")).value.isFailure

    def test_all_null(self):
        df = pd.DataFrame({"s": pd.array([None, None], dtype="string")})
        m = metric(df, hq.MinLength("s"))
        assert math.isnan(m.value.get())


class TestMutualInformation:
    def test_matches_direct_computation(self):
        from collections import Counter

        df = pd.DataFrame(
            {"x": ["a", "a", "b", "b", "a", "b", "c"], "y": ["p", "p", "q", "q", "p", "p", "q"]}
        )
        a = hq.MutualInformation(["x", "y"])
        got = metric(df, a, chunk_rows=3).value.get()
        n = len(df)
        joint, px, py = Counter(zip(df.x, df.y)), Counter(df.x), Counter(df.y)
        expected = sum(
            (c / n) * math.log((c / n) / ((px[x] / n) * (py[y] / n)))
            for (x, y), c in joint.items()
        )
        assert abs(got - expected) < 1e-12

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(5)
        df = pd.DataFrame({"x": rng.integers(0, 2, 4000).astype(str),
                           "y": rng.integers(0, 2, 4000).astype(str)})
        got = metric(df, hq.MutualInformation(["x", "y"])).value.get()
        assert got < 0.01

    def test_requires_two_columns(self):
        df = pd.DataFrame({"x": ["a"]})
        m = metric(df, hq.MutualInformation(["x"]))
        assert m.value.isFailure


class TestQuantileInfinities:
    @HYPO
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.sampled_from([float("inf"), float("-inf")]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_pandas_with_infs(self, values, q):
        df = pd.DataFrame({"v": values})
        m = metric(df, hq.Quantile("v", q), chunk_rows=5)
        expected = df["v"].quantile(q, interpolation="nearest")
        # `+ 0.0` canonicalizes -0.0 to 0.0 on BOTH sides: pandas' own tie
        # choice among bit-distinct equal zeros comes from np.partition order
        # and is implementation-arbitrary, so the differential is numeric
        # equality, not the zero's sign bit (NaN/inf still compared exactly).
        np.testing.assert_equal(m.value.get() + 0.0, expected + 0.0)


def test_uniqueness_partial_null_multi_key_groups_like_sql():
    rng = np.random.default_rng(0)
    k2 = [None if rng.random() < 0.5 else int(x) for x in rng.integers(0, 3, 200)]
    df = pd.DataFrame({"k1": rng.choice(["a", "b"], size=200),
                       "k2": pd.array(k2, dtype="Int64")})
    sizes = df.groupby(["k1", "k2"], dropna=False).size()
    m = metric(df, hq.Uniqueness(["k1", "k2"]))
    assert m.value.get() == pytest.approx((sizes == 1).sum() / len(df))

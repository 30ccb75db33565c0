import numpy as np
import pytest

from claimsplice.ingest import (
    ClaimPairSample,
    IngestError,
    histogram_export,
    load_csv,
    summarize,
    summarize_sample,
    write_csv,
)


def write(tmp_path, text, name="claims.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_well_formed(tmp_path):
    p = write(tmp_path, "tcost_bi,tcost_pd\n100.5,20\n2e3,30.25\n4.0,1e-1\n")
    s = load_csv(p, cols="tcost_bi,tcost_pd")
    assert s.n == 3
    assert s.claim1.tolist() == [100.5, 2000.0, 4.0]
    assert s.claim2.tolist() == [20.0, 30.25, 0.1]


def test_load_by_index_without_header(tmp_path):
    p = write(tmp_path, "1,2\n3,4\n")
    s = load_csv(p, cols="0,1")
    assert s.n == 2


def test_strict_mode_names_bad_row(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n0,5\n")
    with pytest.raises(IngestError, match="row 3"):
        load_csv(p, cols="a,b", strict=True)


def test_lenient_mode_rejects_with_diagnostics(tmp_path):
    p = write(tmp_path, "a,b\n1,2\nx,5\n-3,5\n4,4\n")
    s = load_csv(p, cols="a,b")
    assert s.n == 2
    assert len(s.rejected_rows) == 2
    assert "row 3" in s.rejected_rows[0]


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_strict_mode_rejects_non_finite(tmp_path, bad):
    p = write(tmp_path, f"a,b\n1,2\n3,{bad}\n")
    with pytest.raises(IngestError, match="row 3: non-finite"):
        load_csv(p, cols="a,b", strict=True)


def test_lenient_mode_rejects_non_finite(tmp_path):
    p = write(tmp_path, "a,b\n1,2\nnan,5\n4,inf\n1e400,3\n4,4\n")
    s = load_csv(p, cols="a,b")
    assert s.claim1.tolist() == [1.0, 4.0]
    assert [r.split(":")[0] for r in s.rejected_rows] == ["row 3", "row 4", "row 5"]
    assert all("non-finite" in r for r in s.rejected_rows)


def test_missing_column(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(IngestError, match="not found"):
        load_csv(p, cols="a,c")


def test_missing_file(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        load_csv(tmp_path / "nope.csv")


def test_no_valid_rows(tmp_path):
    p = write(tmp_path, "a,b\n0,0\n")
    with pytest.raises(IngestError, match="no valid rows"):
        load_csv(p, cols="a,b")


def test_european_delimiters(tmp_path):
    p = write(tmp_path, "a;b\n1,5;2,25\n3;4\n")
    s = load_csv(p, cols="a,b", delimiter=";", decimal=",")
    assert s.claim1.tolist() == [1.5, 3.0]
    assert s.claim2.tolist() == [2.25, 4.0]


def test_round_trip_full_precision(tmp_path, rng):
    vals1 = rng.lognormal(7, 2, size=50)
    vals2 = rng.lognormal(6, 1.5, size=50)
    s = ClaimPairSample(vals1, vals2)
    out = tmp_path / "out.csv"
    write_csv(s, out)
    s2 = load_csv(out, cols="claim1,claim2")
    assert np.array_equal(s.claim1, s2.claim1)
    assert np.array_equal(s.claim2, s2.claim2)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["mean"] == 3.0
    assert s["min"] == 1.0 and s["max"] == 5.0
    assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]


def test_summarize_symmetric_zero_skew():
    vals = np.concatenate([np.arange(-10.0, 11.0)]) + 100.0
    assert summarize(vals)["skewness"] == pytest.approx(0.0, abs=1e-12)


def test_summarize_is_permutation_invariant(rng):
    vals = rng.lognormal(size=101)
    a, b = summarize(vals), summarize(vals[::-1])
    assert a == pytest.approx(b, rel=1e-12)


def test_summarize_constant_data_errors():
    with pytest.raises(ValueError, match="skewness undefined"):
        summarize([2.0, 2.0, 2.0])


def test_summarize_kurtosis_not_excess(rng):
    vals = rng.normal(size=200_000)
    assert summarize(vals)["kurtosis"] == pytest.approx(3.0, abs=0.1)


def test_summarize_sample_shape(rng):
    s = ClaimPairSample(rng.lognormal(size=10), rng.lognormal(size=10))
    doc = summarize_sample(s)
    assert set(doc) == {"claim1", "claim2", "n"}


def test_histogram_two_bins():
    h = histogram_export([1.0, 1.0, 2.0, 2.0], bins=2)
    assert h["counts"] == [2, 2]
    assert h["edges"][0] == 1.0 and h["edges"][-1] == 2.0


def test_histogram_counts_sum_to_n(rng):
    vals = rng.lognormal(size=500)
    for bins in (1, 7, 50):
        h = histogram_export(vals, bins=bins)
        assert sum(h["counts"]) == 500


def test_histogram_log_bins_hand_fixture():
    # values 1..1000, 3 log bins: edges 1, 10, 100, 1000
    vals = [1.0, 5.0, 9.0, 50.0, 500.0, 1000.0]
    h = histogram_export(vals, bins=3, log_scale=True)
    assert h["edges"] == pytest.approx([1.0, 10.0, 100.0, 1000.0], rel=1e-12)
    assert h["counts"] == [3, 1, 2]


def test_sample_invariants():
    with pytest.raises(IngestError):
        ClaimPairSample([1.0], [2.0, 3.0])
    with pytest.raises(IngestError):
        ClaimPairSample([1.0, -1.0], [2.0, 3.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(IngestError, match="finite"):
            ClaimPairSample([1.0, 2.0], [2.0, bad])

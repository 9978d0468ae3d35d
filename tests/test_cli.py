import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmomdiv import cli
from lmomdiv.cli import UsageError, main, read_column
from lmomdiv.divergence import CHI2
from lmomdiv.estimator import (
    EstimationError,
    asymptotic_covariance,
    confidence_stat,
    fit_divergence,
)
from lmomdiv.lmoments import SortedSample, sample_lmoments_v
from lmomdiv.models import ParametricFamily, weibull_model
from oracles import family_density, read_column_csv, read_column_rowwise


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    x = ParametricFamily("gpd", 3.0, 0.3).sample(120, rng)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    return str(path), x


def test_read_column_plain(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.5\n2.5\n3.5\n")
    assert np.allclose(read_column(str(p)), [1.5, 2.5, 3.5])


def test_read_column_header_and_col(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("id,value\n1,10.0\n2,20.0\n")
    assert np.allclose(read_column(str(p), col=1), [10.0, 20.0])


def test_read_column_rejects_bad_rows(tmp_path):
    from lmomdiv.cli import UsageError

    p = tmp_path / "c.csv"
    p.write_text("1.0\noops\n3.0\n")
    with pytest.raises(UsageError):
        read_column(str(p))


# cells of generated CSV files: numbers, padded numbers, blanks, words and
# non-finite values
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "\t", " 1.5 ", "\t-2e3", "x", "value", "1e400",
                     "nan", "inf", "-Infinity", "1,5"]),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, max_size=3), max_size=8),
       col=st.integers(0, 2))
def test_read_column_matches_rowwise_reader(tmp_path_factory, rows, col):
    # one pass with one vectorized finiteness test reads what the row-wise
    # reader reads, and names the same bad lines in the same order
    path = str(tmp_path_factory.mktemp("csv") / "gen.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")
    outcomes = []
    for reader in (read_column, read_column_rowwise):
        try:
            outcomes.append(reader(path, col))
        except UsageError as exc:
            outcomes.append(str(exc))
    new, ref = outcomes
    if isinstance(ref, str):
        assert new == ref
    else:
        assert np.array_equal(new, ref)


def test_read_column_skips_a_byte_order_mark(tmp_path, capsys):
    # the mark once made line 1 non-numeric, so its value was dropped as a header
    p = tmp_path / "bom.csv"
    p.write_text("\ufeff1.5\n2.5\n3.5\n", encoding="utf-8")
    assert main(["lmoments", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_read_column_bom_header_is_still_a_header(tmp_path):
    p = tmp_path / "bom-header.csv"
    p.write_text("\ufeffx\n1.5\n2.5\n", encoding="utf-8")
    assert read_column(str(p)).tolist() == [1.5, 2.5]


def test_read_column_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("x\n1.5\n2,5 \u00e9\n".encode("latin-1"))
    assert main(["lmoments", str(p)]) == 2


def _both_readers(path: str, col: int):
    """(read_column's outcome, the csv reader's): the column, or the error text."""
    outcomes = []
    for reader in (read_column, read_column_csv):
        try:
            outcomes.append(reader(path, col))
        except UsageError as exc:
            outcomes.append(str(exc))
    return outcomes


def _same_outcome(new, ref) -> bool:
    if isinstance(ref, str) or isinstance(new, str):
        return new == ref
    return new.dtype == ref.dtype and np.array_equal(new, ref)


#: line endings and text pieces a CSV file can hold: quotes, a lone carriage
#: return, a byte-order mark, blank and whitespace lines
_PIECES = st.sampled_from(["\n", "\r\n", "\r", ",", "\"", "\"1.5\"", "\"1,5\"", "\"x\"\"y\"",
                           " ", "\t", "", "x", "2.5", "-3e2", "nan", "1e400", "7"])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, max_size=3), max_size=8), col=st.integers(0, 2),
       ending=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.booleans(),
       tail=st.booleans())
def test_read_column_matches_the_csv_reader(tmp_path_factory, rows, col, ending, bom, tail):
    # every file the one-pass parse reads gives the csv reader's values, and
    # every other file its error, bad lines included
    path = tmp_path_factory.mktemp("csv") / "gen.csv"
    text = ending.join(",".join(row) for row in rows) + (ending if tail else "")
    path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
    assert _same_outcome(*_both_readers(str(path), col))


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_PIECES, max_size=30), col=st.integers(0, 2))
def test_read_column_matches_the_csv_reader_on_quotes_and_endings(tmp_path_factory, pieces,
                                                                   col):
    path = tmp_path_factory.mktemp("csv") / "gen.csv"
    path.write_bytes("".join(pieces).encode("utf-8"))
    assert _same_outcome(*_both_readers(str(path), col))


@pytest.mark.parametrize("text,col", [
    ("x\n1.5\n2.5\n", 0),
    ("\ufeffx\r\n1.5\r\n2.5\r\n", 0),              # BOM and CRLF
    ("x\n\n1.5\n\n2.5\n\n", 0),                      # empty lines
    ("x\n  \n1.5\n\t\n2.5\n", 0),                     # whitespace lines
    ('"x"\n"1.5"\n"2.5"\n', 0),                       # quoted cells
    ('id,v\n1,"2,5"\n2,"3.5"\n', 1),                  # a quoted comma
    ("a,b\n1,2\n3\n4,5\n", 1),                       # a short row
    ("a,b\n1,2\n3,oops\n4,inf\n5,nan\n", 1),         # every bad line named
    ("1.5\r2.5\r3.5\r", 0),                           # bare carriage returns
    ("x\n1_000\n2.5\n", 0),                           # float's own grammar
    ("x\n1.5\n", 0),                                   # one value
    ("", 0),
    ("1,2\n3,4\n", 2),                                 # every row short
    ('"1.5"\n2.5\n', 0),                             # a quoted number on line 1 is data
    ("1\n2,3\n4,5\n", 1),                            # a short line 1 is a bad line
    ("x\n1.5\n#\n2.5\n", 0),                         # a # line is a bad line
    ("x\n1.5\n   \n2.5\n", 0),                       # a line of spaces is blank
    ("x\n1.5\n\x1c2.5\n", 0),                        # a separator float does not strip
])
def test_read_column_matches_the_csv_reader_on_files(tmp_path, text, col):
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same_outcome(*_both_readers(str(path), col))


@pytest.mark.parametrize("n,stream", [(1_000, [3, 3]), (10_000, [0, 1]), (100_000, [1, 0])])
def test_read_column_reads_the_benchmark_files_as_the_csv_reader(tmp_path, monkeypatch, n,
                                                                 stream):
    # the cli-fit inputs: GPD(3, 0.4) draws, a header x and one repr per row
    values = ParametricFamily("gpd", 3.0, 0.4).sample(n, np.random.default_rng(stream))
    path = tmp_path / "bench.csv"
    path.write_text("x\n" + "\n".join(map(repr, values.tolist())) + "\n")
    ref = read_column_csv(str(path), 0)

    def no_row_by_row_read(*args):
        raise AssertionError("the file was read again row by row")

    monkeypatch.setattr(cli, "_parse_rows", no_row_by_row_read)
    new = read_column(str(path), 0)
    assert _same_outcome(new, ref) and np.array_equal(new, values)


@pytest.mark.parametrize("text", ["", "\n\n", "\r\n \n\t\n", "x\n", "x\n\n\n"])
def test_read_column_of_no_data_rows_exits_2_without_a_warning(tmp_path, capsys, text):
    p = tmp_path / "empty.csv"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lmoments", str(p)]) == 2
    assert "fewer than two usable values" in capsys.readouterr().err


def test_lmoments_command(data_file, capsys):
    path, x = data_file
    assert main(["lmoments", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    lm = sample_lmoments_v(SortedSample(x), 4)
    assert np.allclose(out["v_statistic"], lm.values)
    assert out["n"] == 120


def test_lmoments_table_output(data_file, capsys):
    path, _ = data_file
    assert main(["lmoments", path]) == 0
    out = capsys.readouterr().out
    assert "l_r(V)" in out
    assert "tau_3" in out


def test_fit_command_json(data_file, capsys):
    path, _ = data_file
    assert main(["fit", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "divergence:chi2"
    assert 0.0 < out["theta"]["nu"] < 1.0
    assert len(out["xi"]) == 3


def test_fit_classical_method(data_file, capsys):
    path, _ = data_file
    assert main(["fit", path, "--method", "mle", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "mle"


def test_fit_asymptotics(data_file, capsys):
    path, _ = data_file
    assert main(["fit", path, "--asymptotics", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "cov_theta" in out
    assert "confidence" in out
    # three constraints, two parameters: df = c - d by construction
    assert out["confidence"]["df"] == 1


def test_test_command(data_file, capsys):
    path, _ = data_file
    assert main(["test", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"s_n", "df", "p_value"}
    assert out["s_n"] >= 0.0
    assert 0.0 <= out["p_value"] <= 1.0


def test_sigma_edge_fit_exits_3(tmp_path, capsys):
    # 15 zeros and 5 Exp(1) draws: the chi-square minimum lies on the scale
    # edge 1e-3 s of the box, no law of the model; it once exited 0 there
    x = np.concatenate([np.zeros(15), np.random.default_rng(0).exponential(size=5)])
    p = tmp_path / "zeros.csv"
    p.write_text("\n".join(map(repr, x.tolist())) + "\n")
    assert main(["fit", str(p), "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "the fit has left the model: sigma = 0.000125 lies on the edge 0.000125" in err


@pytest.fixture(scope="module")
def weibull_file(tmp_path_factory):
    x = ParametricFamily("weibull", 3.0, 0.5).sample(500, np.random.default_rng(4))
    path = tmp_path_factory.mktemp("weibull") / "weibull.csv"
    path.write_text("\n".join(map(repr, x.tolist())) + "\n")
    sample = SortedSample(x)
    model = weibull_model()
    report = fit_divergence(sample, model, CHI2)
    cov = asymptotic_covariance(
        report.theta, model, ParametricFamily("weibull", *report.theta))
    s_n = confidence_stat(report.xi, cov.p, cov.sigma, sample.n).s_n
    return str(path), cov.cov_theta / sample.n, s_n


def test_weibull_test_uses_weibull_plugin(weibull_file, capsys):
    path, _, s_n = weibull_file
    assert main(["test", path, "--model", "weibull-l234", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s_n"] == pytest.approx(s_n, rel=1e-9)


def test_weibull_fit_reports_asymptotics(weibull_file, capsys):
    path, cov_theta, _ = weibull_file
    assert main(["fit", path, "--model", "weibull-l234", "--asymptotics", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["cov_theta"], cov_theta, rtol=1e-9, atol=0.0)


def test_classical_fit_asymptotics_is_usage_error(data_file, capsys):
    # the plug-in sandwich belongs to the divergence estimator, not the MLE
    path, _ = data_file
    assert main(["fit", path, "--method", "mle", "--asymptotics", "--json"]) == 2
    assert "divergence fit" in capsys.readouterr().err


def test_orderstat_test_is_usage_error(data_file, capsys):
    path, _ = data_file
    assert main(["test", path, "--model", "orderstat3", "--json"]) == 2
    assert "no plug-in law" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["fit", "--div", "foo"], "unknown divergence 'foo'"),
    (["fit", "--model", "foo"], "unknown model 'foo'"),
    (["test", "--model", "foo"], "unknown model 'foo'"),
    (["fit", "--div", "power:abc"], "could not convert string to float"),
    # a classical method fits the GPD alone and is no divergence fit
    (["fit", "--method", "mle", "--model", "weibull-l234"], "--model weibull-l234"),
    (["fit", "--method", "lmom", "--model", "nosuch"], "--model: unknown model 'nosuch'"),
    (["fit", "--method", "mle", "--div", "klm"], "--div klm"),
    (["test", "--method", "mle"], "--method mle"),
], ids=["fit-div", "fit-model", "test-model", "fit-power", "mle-model", "lmom-unknown-model",
        "mle-div", "test-mle"])
def test_unknown_name_is_usage_error(data_file, capsys, argv, message):
    path, _ = data_file
    assert main([argv[0], path, *argv[1:]]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("method", ["lmom", "moment", "mle"])
def test_classical_fit_json_is_valid(data_file, capsys, method):
    # a classical fit has no criterion, and NaN is not JSON (RFC 8259)
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    path, _ = data_file
    assert main(["fit", path, "--method", method, "--json"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["method"] == method and "criterion" not in out


def test_cli_fit_law_sample_has_a_statistic(tmp_path, capsys):
    # a GPD(3, 0.4) sample of 1000 whose plug-in multiplier covariance had no
    # positive eigenvalue when Sigma came from a quadrature in x; in quantile
    # space it is positive semi-definite and S_n exists
    x = ParametricFamily("gpd", 3.0, 0.4).sample(1000, np.random.default_rng([11, 3]))
    p = tmp_path / "cli-fit.csv"
    p.write_text("\n".join(map(repr, x.tolist())) + "\n")
    assert main(["test", str(p), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["p_value"] <= 1.0
    assert main(["fit", str(p), "--asymptotics", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["confidence"]["p_value"] <= 1.0
    assert "confidence_error" not in out["diagnostics"]


def test_multiplier_covariance_without_rank(data_file, capsys, monkeypatch):
    # when the plug-in multiplier covariance p^T Sigma p is not positive
    # definite, S_n and its p-value do not exist: `test` fails, while `fit
    # --asymptotics` still reports theta's covariance and says why the statistic is missing
    def no_rank(*args):
        raise EstimationError("multiplier covariance p^T Sigma p is not positive definite "
                              "(diagonal [-1.0])")

    monkeypatch.setattr("lmomdiv.cli.confidence_stat", no_rank)
    path, _ = data_file
    assert main(["test", path, "--json"]) == 3
    assert "not positive definite" in capsys.readouterr().err
    assert main(["fit", path, "--asymptotics", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "confidence" not in out
    assert "not positive definite" in out["diagnostics"]["confidence_error"]
    assert np.all(np.diag(out["cov_theta"]) > 0)


@pytest.mark.parametrize("div", ["chi2", "klm"])
def test_rank_deficient_rows_are_numeric_error(tmp_path, capsys, div):
    # 50 ties then 1 and 2: two positive spacings cannot pin three
    # constraints, so the fit fails instead of returning a boundary theta
    p = tmp_path / "ties.csv"
    p.write_text("0\n" * 50 + "1\n2\n")
    assert main(["fit", str(p), "--div", div, "--json"]) == 3
    assert "rank deficient" in capsys.readouterr().err


def test_mle_with_many_zeros_is_numeric_error(tmp_path, capsys):
    x = np.concatenate([np.zeros(15), np.random.default_rng(0).exponential(size=5)])
    p = tmp_path / "zeros.csv"
    p.write_text("\n".join(map(repr, x.tolist())) + "\n")
    assert main(["fit", str(p), "--method", "mle", "--json"]) == 3
    assert "15 of 20 observations are zero" in capsys.readouterr().err


def test_shift_invariant_fit(tmp_path, capsys):
    rng = np.random.default_rng(5)
    x = ParametricFamily("gpd", 3.0, 0.3).sample(100, rng)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    b.write_text("\n".join(f"{v + 400.0:.17g}" for v in x) + "\n")
    assert main(["fit", str(a), "--json"]) == 0
    fit_a = json.loads(capsys.readouterr().out)
    assert main(["fit", str(b), "--json"]) == 0
    fit_b = json.loads(capsys.readouterr().out)
    assert fit_a["theta"]["nu"] == pytest.approx(fit_b["theta"]["nu"], abs=1e-6)


def test_missing_file_is_usage_error(capsys):
    assert main(["lmoments", "/nonexistent/path.csv"]) == 2


def test_unusable_data_is_numeric_error(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("2.0\n2.0\n2.0\n2.0\n2.0\n2.0\n")
    code = main(["fit", str(p), "--method", "moment"])
    assert code == 3


def test_dist_command(capsys):
    assert main(["dist", "gpd:3:0.7", "gpd:3:0.7"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-8)
    assert main(["dist", "gpd:3:0.7", "weibull:3:0.4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["l1_distance"] <= 2.0
    # heavy-tail pair, whose far tail carries half the distance
    assert main(["dist", "gpd:17.18:0.693", "gpd:3:0.1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l1_distance"] == pytest.approx(1.1516216, abs=1e-7)


@pytest.mark.parametrize("shape, code", [(0.04, 0), (0.039, 3), (1e-300, 3)])
def test_dist_of_a_small_weibull_shape(capsys, shape, code):
    # below a shape of 0.0390 a scan quantile of Weibull(3, shape) leaves the
    # normal floats; at 1e-300, (x / 3)^shape is 1 at every positive float, and
    # the distance, about 2, was printed as 0 with numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dist", f"weibull:3:{shape}", "gpd:3:0.7"]) == code
    out = capsys.readouterr()
    assert (out.out == "" and "not resolved in floats" in out.err) if code else out.err == ""


def test_json_of_a_non_finite_result_exits_3(capsys, monkeypatch):
    # JSON has no inf: --json printed the token Infinity, which no JSON
    # parser reads, and exited 0; it now prints nothing and exits 3
    monkeypatch.setattr(cli, "l1_density_distance", lambda f1, f2: math.inf)
    assert main(["dist", "gpd:3:0.7", "gpd:3:0.1", "--json"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "--json: the result is not finite" in out.err


#: the files of values near the largest float: the sums of the first
#: overflow, and the range of the second
_HUGE_FILES = {"sum": "x\n1e300\n1e305\n1e307\n1.7e308\n1.0\n",
               "range": "x\n-1e308\n1e308\n0\n1\n2\n"}


def test_lmoments_json_of_values_whose_sums_overflow(tmp_path, capsys):
    # [REGRESSION] printed Infinity for lambda_1 and +-Infinity for all four
    # U-statistics, behind numpy's overflow warnings, and exited 0
    path = tmp_path / "huge.csv"
    path.write_text(_HUGE_FILES["sum"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lmoments", str(path), "--json"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out, parse_constant=lambda c: pytest.fail(f"JSON holds {c}"))
    assert out.err == "" and payload["v_statistic"][0] == payload["u_statistic"][0] > 3e307


def test_fit_of_values_whose_mean_overflows_warns_nothing(tmp_path, capsys):
    # [REGRESSION] the fit exited 0 after numpy's overflow warning from the
    # sample mean, which it never reads
    path = tmp_path / "huge.csv"
    path.write_text(_HUGE_FILES["sum"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_classical_fit_whose_scale_overflows_exits_3(tmp_path, capsys):
    # [REGRESSION] the moment fit of a range past the largest float printed
    # "sigma inf" (or Infinity under --json) and exited 0
    path = tmp_path / "range.csv"
    path.write_text(_HUGE_FILES["range"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", str(path), "--method", "moment"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "the moment fit overflows a float" in out.err


def test_simulate_moment_fits_of_a_scale_near_the_largest_float(tmp_path):
    # [REGRESSION] scenario 1 with sigma 3 * 2^996 (2e300) failed every moment
    # fit, "sample skewness nan", after numpy's overflow warning; its samples
    # are those of sigma 3 times 2^996, and so are its fits
    runs = {}
    for label, sigma in (("small", 3.0), ("huge", 3.0 * 2.0 ** 996)):
        cfg = {"scenario": 1, "sigma": sigma, "n": 30, "replicates": 3, "estimators": ["moment"],
               "output_dir": str(tmp_path / label)}
        (tmp_path / f"{label}.json").write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(tmp_path / f"{label}.json")]) == 0
        runs[label] = json.loads((tmp_path / label / "summary.json").read_text())
    assert runs["huge"]["failures"] == runs["small"]["failures"] == {"moment": 0}
    small, huge = runs["small"]["stats"]["moment"], runs["huge"]["stats"]["moment"]
    assert huge["nu"]["mean"] == pytest.approx(small["nu"]["mean"], rel=1e-14)
    assert huge["sigma"]["mean"] == pytest.approx(small["sigma"]["mean"] * 2.0 ** 996, rel=1e-14)


_EXTREME_LAWS = ["gpd:1e-300:0.5", "gpd:1e300:-0.5", "weibull:1e308:20", "gpd:5e-324:0",
                 "gpd:1.7e308:800", "gpd:3:-1e300", "weibull:1e-310:1e300", "weibull:3:1e-300",
                 "gpd:3:1e-310", "weibull:5e-324:1e-5"]
_EXTREME_CONFIGS = [{"sigma": 1e300}, {"sigma": 1e-300}, {"sigma": 1.7e308}, {"sigma": 5e-324},
                    {"nu": -4.9}, {"nu": 0.99, "sigma": 1e300}, {"family": "weibull", "nu": 0.05},
                    {"family": "weibull", "nu": 20.0, "sigma": 1e300},
                    {"outlier": 1.7e308, "contamination": 0.2},
                    {"outlier": -1.7e308, "contamination": 0.2}]


@pytest.mark.parametrize("argv", [
    *(["dist", a, b, "--json"] for a, b in zip(_EXTREME_LAWS, _EXTREME_LAWS[1:] + ["gpd:3:0.7"])),
    *(["simulate", i] for i in range(len(_EXTREME_CONFIGS))),
    *([command, f, *flags] for f in _HUGE_FILES for command, flags in (
        ("lmoments", ["--json"]), ("lmoments", ["--max-order", "5"]), ("fit", ["--json"]),
        ("fit", ["--div", "klm", "--json"]), ("fit", ["--model", "weibull-l234", "--asymptotics"]),
        ("fit", ["--method", "moment", "--json"]), ("fit", ["--method", "lmom"]),
        ("fit", ["--method", "mle"]), ("fit", ["--model", "orderstat3", "--json"]),
        ("test", ["--json"]), ("test", ["--model", "weibull-l234"])))],
    ids=lambda argv: " ".join(map(str, argv)))
def test_extreme_inputs_exit_0_2_or_3_without_a_warning(tmp_path, capsys, argv):
    # the command-line leg of the sweep: extreme laws and files of values near
    # the largest float end in exit 0, 2 or 3, with no traceback (an exception
    # out of main) and no warning (an error here); --json output is JSON.
    # `test` of the range file once exited 3 only after numpy's overflow
    # warning from the quantile slope
    command, *rest = argv
    if command == "simulate":
        cfg = {"scenario": 1, "n": 20, "replicates": 2, "output_dir": str(tmp_path / "out"),
               **_EXTREME_CONFIGS[rest[0]]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rest = [str(tmp_path / "cfg.json")]
    elif command != "dist":
        (tmp_path / "x.csv").write_text(_HUGE_FILES[rest[0]])
        rest = [str(tmp_path / "x.csv"), *rest[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, *rest])
    out = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in out.err and "Warning" not in out.err
    assert (out.err == "") == (code == 0)
    if code == 0 and "--json" in rest:
        json.loads(out.out, parse_constant=lambda c: pytest.fail(f"JSON holds {c}"))


def test_dist_bad_spec(capsys):
    assert main(["dist", "gpd:3", "gpd:3:0.7"]) == 2
    assert main(["dist", "gpd:-1:0.7", "gpd:3:0.7"]) == 2


@pytest.mark.parametrize("spec", [
    "gpd:nan:0.7", "gpd:3:nan", "gpd:inf:0.7", "gpd:3:inf", "gpd:3:-inf", "weibull:3:inf",
])
def test_dist_rejects_non_finite_parameters(capsys, spec):
    # each of these once printed a distance, 0 or 2, and exited 0
    assert main(["dist", spec, "gpd:3:0.7"]) == 2
    assert main(["dist", "gpd:3:0.7", spec]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be finite" in out.err


def test_simulate_command(tmp_path, capsys):
    cfg = {
        "scenario": 3,
        "n": 40,
        "replicates": 2,
        "seed": 1,
        "estimators": ["chi2", "lmom"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfg_path)]) == 0
    out_dir = tmp_path / "out"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["scenario"] == 3
    assert "chi2" in summary["stats"]
    lines = (out_dir / "replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2      # header + replicates x estimators
    density = (out_dir / "density_chi2.csv").read_text().splitlines()
    assert density[0] == "x,fitted_density,true_density"
    assert len(density) == 401
    # the densities of the mean fit and of the true law, against the numpy oracle
    x, fitted, true = np.array([list(map(float, row.split(","))) for row in density[1:]]).T
    mean = summary["stats"]["chi2"]
    fam = ParametricFamily("gpd", mean["sigma"]["mean"], mean["nu"]["mean"])
    assert np.allclose(fitted, family_density(fam, x), rtol=1e-12, atol=0.0)
    truth = ParametricFamily("gpd", 3.0, 0.1)
    assert np.allclose(true, family_density(truth, x), rtol=1e-12, atol=0.0)


def test_simulate_plots_the_density_of_a_fit_with_a_subnormal_scale(tmp_path):
    # the MLE's mean fit here is GPD(1.7e-314, 5); its plotted density was 0,
    # because nu / sigma overflowed in the log-density
    cfg = {"scenario": 4, "replicates": 2, "estimators": ["lmom", "mle"], "sigma": 1e-300,
           "nu": 0.05, "output_dir": str(tmp_path)}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", str(tmp_path / "cfg.json")]) == 0
    mean = json.loads((tmp_path / "summary.json").read_text())["stats"]["mle"]
    fam = ParametricFamily("gpd", mean["sigma"]["mean"], mean["nu"]["mean"])
    assert fam.sigma < 1e-300
    rows = (tmp_path / "density_mle.csv").read_text().splitlines()[1:]
    x, fitted, _ = np.array([list(map(float, row.split(","))) for row in rows]).T
    oracle = family_density(fam, x)
    assert np.array_equal(fitted == 0.0, oracle == 0.0) and fitted.max() > 0.0
    assert np.allclose(fitted, oracle, rtol=1e-12, atol=0.0)


def test_simulate_whose_plot_quantile_overflows_exits_3(tmp_path, capsys):
    # [REGRESSION] GPD(3, 110): the samples are finite, but the plot's range
    # ends at Q(0.999) = 3 (1000^110 - 1) / 110, past the floats; the density
    # file was written with x = nan, inf, ..., behind numpy's overflow
    # warning, and the command exited 0
    cfg = {"scenario": 1, "nu": 110.0, "n": 10, "replicates": 2, "estimators": ["lmom"],
           "output_dir": str(tmp_path)}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(tmp_path / "cfg.json")]) == 3
    assert "quantile of ParametricFamily(name='gpd', sigma=3.0, nu=110.0) overflows" in (
        capsys.readouterr().err)
    assert not (tmp_path / "density_lmom.csv").exists()


@pytest.mark.parametrize("fam", [
    ParametricFamily("gpd", 3.0, 0.1),
    ParametricFamily("gpd", 2.0, 0.0),
    ParametricFamily("gpd", 2.0, -0.5),
    ParametricFamily("gpd", 2.0, -1.0),
    ParametricFamily("gpd", 2.0, -2.0),
    ParametricFamily("gpd", 3.0, 1.5),
    ParametricFamily("weibull", 3.0, 0.4),
    ParametricFamily("weibull", 3.0, 4.0),
], ids=str)
def test_plot_densities_match_the_numpy_density(fam):
    # exp(log f) inside the open support, within 1e-12 of the numpy density,
    # and exactly 0 at 0, at a finite end and past it, where that density is 0
    x = np.linspace(0.0, 12.0, 401).tolist()
    ours, oracle = np.array(cli._densities(fam, x)), family_density(fam, np.array(x))
    assert np.array_equal(ours == 0.0, oracle == 0.0)
    assert np.allclose(ours, oracle, rtol=1e-12, atol=0.0)


def test_plot_density_past_the_largest_float_is_inf():
    # GPD(1e-310, 0) has a density near 1e310 at 0+: math.exp of its
    # log-density raised OverflowError, and simulate exited with a traceback
    fam = ParametricFamily("gpd", 1e-310, 0.0)
    assert cli._densities(fam, [0.0, 1e-320, 1e-308]) == [
        0.0, math.inf, math.exp(fam.log_density_fn()(1e-308))]


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": 1, "bogus": True}))
    assert main(["simulate", str(cfg_path)]) == 2


@pytest.mark.parametrize("cfg,message", [
    ({"scenario": 5}, "scenario must be 1..4"),
    ({"scenario": "x"}, "invalid literal for int()"),
    ({"scenario": 1, "replicates": 0}, "at least one replicate"),
    ({"scenario": 1, "n": 3}, "at least 5"),
    ({"scenario": 1, "contamination": 1.5}, "contamination fraction"),
    ({"scenario": 1, "estimators": ["kl"]}, "unknown estimators: ['kl']"),
    ({"scenario": 1, "family": "cauchy"}, "unknown family 'cauchy'"),
    ({"scenario": 1, "sigma": "3"}, "sigma, nu and outlier must be numbers"),
    ({"scenario": 1, "nu": "x"}, "sigma, nu and outlier must be numbers"),
    ({"scenario": 2, "outlier": "x"}, "sigma, nu and outlier must be numbers"),
    ({"scenario": 4, "nu": -1.0}, "Weibull shape must be positive"),
    ({"scenario": 1, "jobs": "two"}, "invalid literal for int()"),
    ({"scenario": 1, "output_dir": 5}, "expected str, bytes or os.PathLike object"),
    ([1, 2], "must be a JSON object"),
    ({"scenario": 1, "seed": -1}, "seed must be a non-negative integer"),
    ({"scenario": 1, "sigma": math.nan}, "scale and shape must be finite"),
    ({"scenario": 1, "nu": math.inf}, "scale and shape must be finite"),
    ({"scenario": 2, "outlier": math.nan}, "outlier must be finite"),
    ({"scenario": 1, "outlier": -math.inf}, "outlier must be finite"),
])
def test_simulate_rejects_bad_config_values(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfg_path), "--output", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _capture_jobs(monkeypatch):
    """The ``n_jobs`` each ``run_scenario`` call gets; the run itself is serial."""
    import lmomdiv.cli

    seen, run = [], lmomdiv.cli.run_scenario
    monkeypatch.setattr(lmomdiv.cli, "run_scenario",
                        lambda config, n_jobs: seen.append(n_jobs) or run(config, n_jobs=1))
    return seen


def test_simulate_flags_win_over_the_config(tmp_path, capsys, monkeypatch):
    # the config's output_dir and jobs once beat --output and --jobs
    seen = _capture_jobs(monkeypatch)
    cfg = {"scenario": 1, "n": 20, "replicates": 1, "estimators": ["lmom"],
           "output_dir": str(tmp_path / "from_config"), "jobs": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", str(cfg_path)]) == 0
    assert seen == [3] and (tmp_path / "from_config" / "summary.json").exists()
    (tmp_path / "from_config" / "summary.json").unlink()
    assert main(["simulate", str(cfg_path), "--output", str(tmp_path / "from_flag"),
                 "--jobs", "2"]) == 0
    assert seen == [3, 2]
    assert (tmp_path / "from_flag" / "summary.json").exists()
    assert not (tmp_path / "from_config" / "summary.json").exists()


@pytest.mark.parametrize("cfg_jobs,flag", [(0, []), (2, ["--jobs", "0"])],
                         ids=["config", "flag"])
def test_simulate_jobs_below_one_is_usage_error(tmp_path, capsys, monkeypatch, cfg_jobs, flag):
    # "jobs": 0 once ran serially with exit 0
    seen = _capture_jobs(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": 1, "n": 20, "replicates": 1, "jobs": cfg_jobs}))
    assert main(["simulate", str(cfg_path), "--output", str(tmp_path / "out"), *flag]) == 2
    assert seen == []
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["lmoments", "fit", "test"])
def test_negative_col_is_usage_error(tmp_path, capsys, command):
    # row[-1] would take each row's last cell: 10, 2, 30, 40 from this file
    p = tmp_path / "ragged.csv"
    p.write_text("x,y\n1,10\n2\n3,30\n4,40\n")
    assert main([command, str(p), "--col", "-1", "--json"]) == 2
    assert "column -1 is negative" in capsys.readouterr().err


def test_json_full_precision(data_file, capsys):
    # JSON output carries full float precision, the table six significants
    path, x = data_file
    main(["lmoments", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    lm = sample_lmoments_v(SortedSample(x), 4)
    assert out["v_statistic"][1] == lm[2]
    main(["lmoments", path])
    table = capsys.readouterr().out
    numbers = re.findall(r"\d+\.\d+", table)
    assert all(len(tok.replace(".", "").lstrip("0")) <= 6 for tok in numbers)


def test_cli_import_skips_scipy_stats_and_integrate():
    # both are slow to import, and no command of the CLI needs them
    code = ("import sys, lmomdiv.cli; "
            "print(sorted({'scipy.stats', 'scipy.integrate'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    code = f"import sys, lmomdiv.cli; print({_SCIPY_LOADED})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_commands_load_no_scipy(tmp_path):
    # the four commands of a cli-fit cycle and `lmoments` run on numpy alone;
    # each prints its result and leaves no scipy module behind
    x = ParametricFamily("gpd", 3.0, 0.4).sample(1000, np.random.default_rng([0, 0]))
    path = tmp_path / "gpd.csv"
    path.write_text("x\n" + "\n".join(map(repr, x.tolist())) + "\n")
    commands = [
        ["fit", str(path), "--asymptotics", "--json"],
        ["fit", str(path), "--div", "klm", "--json"],
        ["fit", str(path), "--div", "kl", "--json"],
        ["test", str(path), "--json"],
        ["lmoments", str(path), "--json"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from lmomdiv.cli import main\n"
        "out = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        f"    out.append([code, {_SCIPY_LOADED}])\n"
        "print(json.dumps(out))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [[0, []]] * len(commands)


def test_only_the_plugin_asymptotics_load_numpy_polynomial(tmp_path):
    # the import and the fits without asymptotics evaluate their polynomials
    # on numpy core; the plug-in Gauss rule loads numpy.polynomial when it runs
    x = ParametricFamily("gpd", 3.0, 0.4).sample(1000, np.random.default_rng([0, 0]))
    path = tmp_path / "gpd.csv"
    path.write_text("x\n" + "\n".join(map(repr, x.tolist())) + "\n")
    commands = [
        ["fit", str(path), "--json"],
        ["fit", str(path), "--div", "klm", "--json"],
        ["lmoments", str(path), "--json"],
        ["fit", str(path), "--asymptotics", "--json"],
        ["test", str(path), "--json"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from lmomdiv.cli import main\n"
        "out = [['import', 'numpy.polynomial' in sys.modules]]\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    out.append([code, 'numpy.polynomial' in sys.modules])\n"
        "print(json.dumps(out))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [["import", False], [0, False], [0, False], [0, False],
                               [0, True], [0, True]]


def test_weibull_fit_loads_no_scipy(tmp_path):
    # the Weibull L-moment start and derivatives use no scipy.special; the
    # JSON report counts the fit's steps
    x = ParametricFamily("weibull", 3.0, 0.5).sample(1000, np.random.default_rng([0, 0]))
    path = tmp_path / "weibull.csv"
    path.write_text("x\n" + "\n".join(map(repr, x.tolist())) + "\n")
    code = (
        "import contextlib, io, json, sys\n"
        "from lmomdiv.cli import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = main(['fit', {str(path)!r}, '--model', 'weibull-l234', '--div', 'klm', '--json'])\n"
        f"print(json.dumps([code, {_SCIPY_LOADED}, json.loads(buf.getvalue())]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    code, loaded, report = json.loads(out)
    assert (code, loaded) == (0, [])
    diag = report["diagnostics"]
    assert diag["start"] == "lmoment"
    # each of the fit's steps is a joint step, an outer step and one criterion
    # evaluation, after the start's one
    assert 0 < diag["outer_iterations"] == diag["joint_steps"] == diag["criterion_evaluations"] - 1


def test_simulation_and_dist_load_no_scipy():
    # a classical replicate of each scenario, then `dist` on a Weibull pair,
    # run on numpy alone
    code = (
        "import contextlib, io, sys\n"
        "from lmomdiv.cli import main\n"
        "from lmomdiv.sim import ScenarioConfig, run_scenario\n"
        "for scenario in (1, 2, 3, 4):\n"
        "    run_scenario(ScenarioConfig.preset(scenario, replicates=1,\n"
        "                 estimators=('chi2', 'lmom', 'moment', 'mle')))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['dist', 'weibull:3:0.4', 'gpd:3:0.7'])\n"
        f"print(code, {_SCIPY_LOADED})\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0 []"


def test_failed_inner_solves_are_labelled_without_scipy(tmp_path):
    # with scipy blocked, a KLM fit whose inner solves fail ends as it does
    # with scipy: the many-zeros sample exits 3 with both solves outside the
    # cone, the heavy-tailed Weibull sample exits 3 with both inside it.  The
    # Weibull sample once exited 0 with the estimate of an unconverged outer
    # search, at which a multiplier vector with xi.t1 = 0 has a higher dual
    # objective (2.16e-4 in units of s) than the reported criterion (1.65e-4)
    files = {
        "zeros": np.concatenate([np.zeros(15), np.random.default_rng(0).exponential(1.0, 5)]),
        "weibull": 3.0 * np.random.default_rng(2).weibull(0.1, 1000),
    }
    code = "import sys; sys.modules['scipy'] = None; from lmomdiv.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = {}
    for name, x in files.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("x\n" + "\n".join(map(repr, x.tolist())) + "\n")
        model = "weibull-l234" if name == "weibull" else "gpd-l234"
        runs[name] = subprocess.run(
            [sys.executable, "-c", code, "fit", str(path), "--model", model, "--div", "klm", "--json"],
            capture_output=True, text=True)
    zeros, weibull = runs["zeros"], runs["weibull"]
    assert (zeros.returncode, zeros.stdout) == (3, "")
    assert zeros.stderr == (
        "error: the inner solve failed at the start of the profile search: inner_status "
        "{'converged': 0, 'infeasibleDirection': 2, 'maxIter': 0, 'stalled': 0}\n")
    assert (weibull.returncode, weibull.stdout) == (3, "")
    assert weibull.stderr == (
        "error: the inner solve failed at the start of the profile search: inner_status "
        "{'converged': 0, 'infeasibleDirection': 0, 'maxIter': 2, 'stalled': 0}\n")


@pytest.mark.parametrize("poison", ["omega", "jacobian"])
def test_non_finite_covariance_exits_3(data_file, monkeypatch, capsys, poison):
    # a NaN in Omega or in the Jacobian given to asymptotic_covariance is a
    # numeric failure with a message, never a NaN covariance in the output
    from lmomdiv import cli, estimator

    if poison == "omega":
        monkeypatch.setattr(estimator, "plugin_second_moments",
                            lambda *a: np.full((3, 3), np.nan))
    else:
        real = estimator.asymptotic_covariance

        def nan_jacobian(theta, model, plugin):
            nan = [np.nan] * 3
            model = dataclasses.replace(model, law=(lambda nu: nan, lambda nu: (nan, nan)))
            return real(theta, model, plugin)

        monkeypatch.setattr(cli, "asymptotic_covariance", nan_jacobian)
    path, _ = data_file
    assert main(["fit", path, "--asymptotics", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "infs or NaNs" in err

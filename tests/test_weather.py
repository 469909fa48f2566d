import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter
from scipy.special import expit

from searesponse.errors import ConfigurationError, DataError, ParseError, SchemaError
from searesponse.fileio import read_csv
from searesponse.weather import (
    AR1_COEFF,
    DEFAULT_BOX,
    WEATHER_COLUMNS,
    InputBox,
    WeatherRecord,
    _ar1_series,
    _logistic,
    load_weather,
    sample_uniform_inputs,
    synthesize_weather,
    write_weather,
)


def assert_inside(box, weather):
    """Every hour's (hs, tp, vw) lies in the box, bounds included."""
    lo, hi = np.array(list(box.bounds().values())).T
    assert ((lo <= weather.inputs) & (weather.inputs <= hi)).all()


def assert_same(a, b):
    """Two Weather values hold the same columns, bit for bit."""
    assert a.index.tobytes() == b.index.tobytes() and a.inputs.tobytes() == b.inputs.tobytes()


def row_loop(path):
    """The index and (n, 3) inputs of a weather CSV as a row-by-row loader
    builds them: int() and float() on each cell, one row of a C-ordered
    float array per hour."""
    rows = [(int(row[0]), *map(float, row[1:])) for _, row in read_csv(path, WEATHER_COLUMNS)]
    inputs = np.empty((len(rows), 3))
    for i, row in enumerate(rows):
        inputs[i] = row[1:]
    return [row[0] for row in rows], inputs


def _write(tmp_path, text, name="weather.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadWeather:
    def test_table_style_rows(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0,3.2,11.3,1.2\n1,7.4,9.6,16.5\n")
        weather = load_weather(path)
        assert len(weather) == 2
        assert weather.index.tolist() == [0, 1]
        assert weather.inputs.tolist() == [[3.2, 11.3, 1.2], [7.4, 9.6, 16.5]]

    def test_negative_hs_reports_file_line(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0,3.2,11.3,1.2\n1,7.4,9.6,16.5\n2,-1.0,9.0,5.0\n")
        with pytest.raises(ParseError) as err:
            load_weather(path)
        assert err.value.line == 4

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0,abc,11.3,1.2\n")
        with pytest.raises(ParseError) as err:
            load_weather(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("header", ["hs,tp,vw", "index,hs,tp,vw,extra", "index,hs,vw,tp"])
    def test_wrong_columns(self, tmp_path, header):
        path = _write(tmp_path, header + "\n")
        with pytest.raises(SchemaError):
            load_weather(path)

    def test_row_with_missing_field(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0,3.2,11.3\n")
        with pytest.raises(ParseError):
            load_weather(path)

    def test_zero_tp_rejected(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0,3.2,0.0,1.2\n")
        with pytest.raises(ParseError):
            load_weather(path)

    @pytest.mark.parametrize("row,column", [("0,inf,11.3,1.2", "hs"), ("0,3.2,-inf,1.2", "tp"),
                                            ("0,3.2,11.3,nan", "vw"), ("0,3.2,11.3,inf", "vw")])
    def test_non_finite_value_names_column(self, tmp_path, row, column):
        path = _write(tmp_path, f"index,hs,tp,vw\n{row}\n")
        with pytest.raises(ParseError, match=f"non-finite value .* in column {column}$") as err:
            load_weather(path)
        assert err.value.line == 2

    def test_non_integer_index(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n0.5,3.2,11.3,1.2\n")
        with pytest.raises(ParseError, match="non-integer value '0.5' in column index"):
            load_weather(path)

    def test_header_only_file_is_data_error(self, tmp_path):
        path = _write(tmp_path, "index,hs,tp,vw\n\n")
        with pytest.raises(DataError, match="no weather records"):
            load_weather(path)

    def test_write_load_round_trip(self, tmp_path):
        weather = synthesize_weather(50, seed=3)
        path = tmp_path / "w.csv"
        write_weather(path, weather)
        assert_same(load_weather(path), weather)

    @pytest.mark.parametrize("body,error", [
        # Loaded as a row-by-row loader loads them.
        ("0,3.2,11.3,1.2\r\n1,7.4,9.6,16.5\r\n", None),
        ('"0","3.2",11.3,"1.2"\n1,"7.4","9.6",16.5\n', None),
        ("0,3.2,11.3,1.2\n\n\n1,7.4,9.6,16.5\n\n", None),
        (" 0 , 3.2,11.3 ,  1.2\n1,\t7.4,9.6,16.5 \n", None),
        ("+0,+3.2,+11.3,+1.2\n1,7.4,9.6,+0\n", None),
        # Refused, naming the line.
        ("0,3.2,11.3,1.2\n   \n1,7.4,9.6,16.5\n", 3),
        ("0,3.2,11.3,1.2\n3.0,7.4,9.6,16.5\n", 3),
        ("0,3.2,11.3,1.2,\n", 2),
        ("0,3.2,11.3,1.2\n1,nan,9.6,16.5\n", 3),
        ("0,0,11.3,1.2\n", 2),
        # numpy's parser alone would take these two for "3.2" and "5".
        ("0,3.2\x1c,11.3,1.2\n", 2),
        ("5\u01fe,3.2,11.3,1.2\n", 2),
        # Refused, naming the file alone: an index outside int64, and
        # numerals float() and int() take but a decimal parser does not.
        ("12345678901234567890,3.2,11.3,1.2\n", "int64"),
        ("0,1_0,11.3,1.2\n", "plain decimal"),
        ("0,3.2,11.3,1.2\n\u0661,7.4,9.6,16.5\n", "plain decimal"),
        ("0,\u0663.2,11.3,1.2\n", "plain decimal"),
    ], ids=["crlf", "quoted", "blank-lines", "spaces", "plus",
            "whitespace-line", "float-index", "trailing-comma", "nan", "zero-hs",
            "separator-0x1c", "letter-after-index",
            "index-beyond-int64", "digit-separator", "non-ascii-index", "non-ascii-digit"])
    def test_edge_cases(self, tmp_path, body, error):
        # error: None for a file that loads, the line a ParseError names, or
        # a fragment of the message of one that names the file alone.
        path = tmp_path / "weather.csv"
        path.write_bytes(("index,hs,tp,vw\n" + body).encode())
        if error is None:
            weather = load_weather(path)
            index, inputs = row_loop(path)
            assert weather.index.tolist() == index
            assert weather.inputs.tobytes() == inputs.tobytes()
            return
        with pytest.raises(ParseError) as err:
            load_weather(path)
        if isinstance(error, int):
            assert err.value.line == error
            assert str(err.value).startswith(f"{path}: line {error}: ")
        else:
            row_loop(path)  # a row-by-row loader takes the file
            assert err.value.line is None
            assert str(err.value).startswith(f"{path}: ") and error in str(err.value)


class TestSynthesizeWeather:
    def test_paper_scale_count(self):
        weather = synthesize_weather(24 * 365 * 25, seed=1)
        assert len(weather) == 219_000 and weather.inputs.shape == (219_000, 3)

    def test_deterministic(self):
        assert_same(synthesize_weather(200, seed=9), synthesize_weather(200, seed=9))
        assert not np.array_equal(synthesize_weather(200, seed=9).inputs,
                                  synthesize_weather(200, seed=10).inputs)

    def test_lag1_autocorrelation_exceeds_half(self):
        hs = synthesize_weather(10_000, seed=5).inputs[:, 0]
        rho = np.corrcoef(hs[:-1], hs[1:])[0, 1]
        assert rho > 0.5

    def test_all_records_inside_box(self):
        box = InputBox(hs=(0.5, 4.0), tp=(5.0, 9.0), vw=(1.0, 10.0))
        weather = synthesize_weather(2000, box=box, seed=7)
        assert_inside(box, weather)
        assert weather.index.tolist() == list(range(2000))

    def test_zero_hours_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize_weather(0, seed=1)

    @pytest.mark.parametrize("coeff", [0.95, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 1460, 8760])
    def test_ar1_recurrence_matches_lfilter_bit_for_bit(self, n, coeff):
        # Weather files written with lfilter keep their bytes only if the
        # recurrence agrees with it in every bit.
        for seed in range(20):
            eps = np.random.default_rng(seed).standard_normal(n)
            eps[1:] *= np.sqrt(1.0 - coeff * coeff)
            expected = lfilter([1.0], [1.0, -coeff], eps)
            got = _ar1_series(n, coeff, np.random.default_rng(seed))
            assert got.dtype == expected.dtype and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 1460, 8760])
    def test_logistic_matches_expit_bit_for_bit(self, n):
        # Weather files written with scipy's expit keep their bytes only if
        # the float logistic agrees with it in every bit.
        for seed in range(20):
            z = _ar1_series(n, AR1_COEFF, np.random.default_rng(seed))
            got = _logistic(z)
            assert got.dtype == z.dtype and got.shape == (n,)
            assert got.tobytes() == expit(z).tobytes()

    def test_logistic_matches_expit_at_the_edges(self):
        z = np.array([0.0, -0.0, 40.0, -40.0, 700.0, -700.0])
        assert _logistic(z).tobytes() == expit(z).tobytes()

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigurationError):
            InputBox(hs=(2.0, 2.0))
        with pytest.raises(ConfigurationError):
            InputBox(tp=(-1.0, 5.0))


class TestSampleUniformInputs:
    def test_count_and_support(self):
        design = sample_uniform_inputs(5000, seed=11)
        assert len(design) == 5000
        assert_inside(DEFAULT_BOX, design)

    def test_deterministic(self):
        assert_same(sample_uniform_inputs(64, seed=2), sample_uniform_inputs(64, seed=2))

    def test_mean_within_three_standard_errors_of_midpoint(self):
        n = 5000
        arr = sample_uniform_inputs(n, seed=13).inputs
        for j, (lo, hi) in enumerate(DEFAULT_BOX.bounds().values()):
            mid = 0.5 * (lo + hi)
            se = (hi - lo) / np.sqrt(12.0) / np.sqrt(n)
            assert abs(arr[:, j].mean() - mid) < 3.0 * se

    def test_chi_square_uniformity(self):
        n = 5000
        arr = sample_uniform_inputs(n, seed=17).inputs
        for j, (lo, hi) in enumerate(DEFAULT_BOX.bounds().values()):
            counts, _ = np.histogram(arr[:, j], bins=20, range=(lo, hi))
            result = stats.chisquare(counts)
            assert result.pvalue > 0.001

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_uniform_inputs(10, box=InputBox(vw=(5.0, 5.0)), seed=1)


def test_records_to_array_layout(tmp_path):
    # One row of inputs per hour record, in the column order (hs, tp, vw).
    path = _write(tmp_path, "index,hs,tp,vw\n0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n")
    weather = load_weather(path)
    np.testing.assert_array_equal(weather.inputs, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(weather.index, [0, 1])


def test_records_to_array_matches_the_row_loop(tmp_path):
    # C-ordered float64 inputs, as the row loop stacks them: reductions over
    # their columns (the GP's standardization) keep their summation order and
    # bits. Checked on the inputs of load_weather and of synthesize_weather.
    synthesized = synthesize_weather(1000, seed=9)
    path = tmp_path / "w.csv"
    write_weather(path, synthesized)
    index, inputs = row_loop(path)
    for weather in (synthesized, load_weather(path)):
        assert weather.inputs.flags.c_contiguous and weather.inputs.dtype == np.float64
        assert weather.index.dtype == np.int64 and weather.index.tolist() == index
        assert weather.inputs.tobytes() == inputs.tobytes()


def test_record_is_immutable_and_built_by_keyword():
    record = WeatherRecord(hs=1.0, tp=2.0, vw=3.0, index=4)
    assert record == WeatherRecord(1.0, 2.0, 3.0, 4)
    with pytest.raises(AttributeError):
        record.hs = 5.0

import re

import numpy as np
import pytest

from searesponse.distfit import DistFamily, TrainingTable, load_training_table, write_training_table
from searesponse.errors import ParseError, SchemaError
from searesponse.fileio import parse_float, read_csv, read_json_object, write_csv
from searesponse.orderstats import QoiResult, load_qoi_result, save_qoi_result
from searesponse.weather import load_weather, synthesize_weather, write_weather


def _weather(tmp_path):
    path = tmp_path / "weather.csv"
    write_weather(path, synthesize_weather(3, seed=1))
    return path, lambda: load_weather(path), "tp"


def _table(tmp_path):
    path = tmp_path / "training_table.csv"
    means = {f: np.full((3, len(f.param_names)), np.nan) for f in DistFamily}
    stds = {f: np.full((3, len(f.param_names)), np.nan) for f in DistFamily}
    means[DistFamily.RAYLEIGH][:] = 2.0
    stds[DistFamily.RAYLEIGH][:] = 0.1
    write_training_table(path, TrainingTable(
        inputs=np.array([[1.0 + i, 8.0, 5.0] for i in range(3)]), means=means, stds=stds,
        l_mean=np.full(3, 100.0), l_std=np.full(3, 3.0), test=np.zeros(3, dtype=bool)))
    return path, lambda: load_training_table(path), "l_mean"


def _qoi(tmp_path):
    result = QoiResult(k=3, source="simulator", base_seed=1, yk_samples=np.array([5.0, 6.0]),
                       rank_means=np.array([9.0, 8.0, 7.0]), rank_p025=np.array([8.5, 7.5, 6.5]),
                       rank_p975=np.array([9.5, 8.5, 7.5]), total_count=40)
    save_qoi_result(tmp_path / "run", result)
    return tmp_path / "run" / "rank_summary.csv", lambda: load_qoi_result(tmp_path / "run"), "mean"


def _set_cell(lines, line, column, text):
    header = lines[0].split(",")
    cells = lines[line - 1].split(",")
    cells[header.index(column)] = text
    lines[line - 1] = ",".join(cells)


def _no_header(lines, column):
    lines.clear()


def _wrong_header(lines, column):
    lines[0] = ",".join(reversed(lines[0].split(",")))


def _short_row(lines, column):
    lines[2] = lines[2].rsplit(",", 1)[0]


def _non_numeric(lines, column):
    _set_cell(lines, 3, column, "abc")


def _non_finite(lines, column):
    _set_cell(lines, 3, column, "nan")


@pytest.mark.parametrize("fault,error,line,names_cell", [
    (_no_header, SchemaError, None, False),
    (_wrong_header, SchemaError, None, False),
    (_short_row, ParseError, 3, False),
    (_non_numeric, ParseError, 3, True),
    (_non_finite, ParseError, 3, True),
], ids=["no-header", "wrong-header", "short-row", "non-numeric", "non-finite"])
@pytest.mark.parametrize("make", [_weather, _table, _qoi], ids=["weather", "table", "qoi"])
def test_loader_faults_name_file_and_line(tmp_path, make, fault, error, line, names_cell):
    path, load, column = make(tmp_path)
    lines = path.read_text().splitlines()
    fault(lines, column)
    path.write_text("".join(f"{text}\n" for text in lines))
    with pytest.raises(error) as err:
        load()
    assert type(err.value) is error
    assert getattr(err.value, "line", None) == line
    message = str(err.value)
    assert message.startswith(f"{path}: ")
    if line is not None:
        assert message.startswith(f"{path}: line {line}: ")
    if names_cell:
        assert f"in column {column}" in message
        assert ("'abc'" if fault is _non_numeric else "'nan'") in message


class TestWriteCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, ("a", "b", "c"), [(1, 0.1, None), ("x", np.float64(1e16), -0.0)])
        assert path.read_bytes() == b"a,b,c\n1,0.1,\nx,1e+16,-0.0\n"

    def test_floats_read_back_exactly(self, tmp_path):
        values = np.random.default_rng(3).standard_normal(50) * 1e5
        path = tmp_path / "f.csv"
        write_csv(path, ("v",), ([v] for v in values.tolist()))
        read = [parse_float(path, line, "v", row[0]) for line, row in read_csv(path, ("v",))]
        assert np.array(read).tobytes() == values.tobytes()


class TestReadCsv:
    def test_blank_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        assert list(read_csv(path, ("a", "b"))) == [(2, ["1", "2"]), (4, ["3", "4"])]

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n")
        assert list(read_csv(path, ("a", "b"))) == []


class TestReadJsonObject:
    def test_object(self, tmp_path):
        (tmp_path / "f.json").write_text('{"a": 1}')
        assert read_json_object(tmp_path / "f.json") == {"a": 1}

    @pytest.mark.parametrize("data", [b"{", b"[1, 2]", b"3", bytes(range(256))],
                             ids=["truncated", "list", "number", "binary"])
    def test_not_an_object(self, tmp_path, data):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match="^" + re.escape(f"{path}: ")):
            read_json_object(path)

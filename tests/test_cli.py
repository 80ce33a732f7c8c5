"""End-to-end command-line tests driven through main()."""
from __future__ import annotations

import collections
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plpcr
from plpcr import cli
from plpcr.cli import main
from plpcr.data import harvester_fixture, parse_history, serialize_history
from plpcr.errors import ValidationError
from plpcr.inference import EstimateRow, EstimateTable, Method, fit

CSV_COLUMNS = ["parameter", "method", "point", "sd", "sd_paper_compat",
               "ci_lo", "ci_hi", "level"]

# Full-precision `fit --fixtures harvester --format csv` output (stdout, stderr),
# pinned byte for byte: a performance change must keep every digit.
JEFFREYS_SHARED_WARNING = ('{"warning": "jeffreys: no closed-form posterior under the '
                           'shared-shape model; rows omitted"}\n')
HARVESTER_CSV = {
    ("distinct", "map"): ("""\
parameter,method,point,sd,sd_paper_compat,ci_lo,ci_hi,level
beta_1,mle,0.5567102145662488,0.17604722747103935,0.17604722747103935,0.21166398914488127,0.9017564399876163,0.95
beta_1,cmle,0.5010391931096239,0.1584425047239354,0.1584425047239354,0.1904975902303931,0.8115807959888546,0.95
beta_1,jeffreys,0.5010391931096239,0.17604722747103937,0.17604722747103937,0.2669641869952451,0.9511284595261748,0.95
beta_1,reference,0.5010391931096239,0.17604722747103937,0.17604722747103937,0.2669641869952451,0.9511284595261748,0.95
beta_2,mle,1.0924927367450012,0.22300414606016697,0.22300414606016697,0.6554126420639642,1.5295728314260382,0.95
beta_2,cmle,1.0469722060472928,0.21371230664099333,0.21371230664099333,0.6281037819779656,1.46584063011662,0.95
beta_2,jeffreys,1.0469722060472928,0.2230041460601669,0.2230041460601669,0.6999807106181797,1.5709723676368503,0.95
beta_2,reference,1.0469722060472928,0.2230041460601669,0.2230041460601669,0.6999807106181797,1.5709723676368503,0.95
beta_3,mle,1.3271766767216435,0.35470288685783063,0.35470288685783063,0.6319717932679099,2.0223815601753774,0.95
beta_3,cmle,1.2323783426700976,0.32936696636798557,0.32936696636798557,0.5868309508916306,1.8779257344485645,0.95
beta_3,jeffreys,1.2323783426700976,0.35470288685783063,0.35470288685783063,0.7255798391399855,2.1074044983477473,0.95
beta_3,reference,1.2323783426700976,0.35470288685783063,0.35470288685783063,0.7255798391399855,2.1074044983477473,0.95
alpha_1,mle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,cmle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,jeffreys,10.0,3.3166247903554,3.1622776601683795,5.491160367236839,18.390356042017753,0.95
alpha_1,reference,10.0,3.24037034920393,3.1622776601683795,5.141448891261433,17.739437952863618,0.95
alpha_2,mle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,cmle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,jeffreys,24.0,5.0,4.898979485566356,16.178681847834717,35.71009759375316,0.95
alpha_2,reference,24.0,4.949747468305833,4.898979485566356,15.77745823133945,35.111206783217234,0.95
alpha_3,mle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,cmle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,jeffreys,14.0,3.872983346207417,3.7416573867739413,8.39538613278332,23.48962112183554,0.95
alpha_3,reference,14.0,3.8078865529319543,3.7416573867739413,8.023535847682442,22.861142902087245,0.95
""", ""),
    ("distinct", "mean"): ("""\
parameter,method,point,sd,sd_paper_compat,ci_lo,ci_hi,level
beta_1,mle,0.5567102145662488,0.17604722747103935,0.17604722747103935,0.21166398914488127,0.9017564399876163,0.95
beta_1,cmle,0.5010391931096239,0.1584425047239354,0.1584425047239354,0.1904975902303931,0.8115807959888546,0.95
beta_1,jeffreys,0.5567102145662488,0.17604722747103937,0.17604722747103937,0.2669641869952451,0.9511284595261748,0.95
beta_1,reference,0.5567102145662488,0.17604722747103937,0.17604722747103937,0.2669641869952451,0.9511284595261748,0.95
beta_2,mle,1.0924927367450012,0.22300414606016697,0.22300414606016697,0.6554126420639642,1.5295728314260382,0.95
beta_2,cmle,1.0469722060472928,0.21371230664099333,0.21371230664099333,0.6281037819779656,1.46584063011662,0.95
beta_2,jeffreys,1.0924927367450012,0.2230041460601669,0.2230041460601669,0.6999807106181797,1.5709723676368503,0.95
beta_2,reference,1.0924927367450012,0.2230041460601669,0.2230041460601669,0.6999807106181797,1.5709723676368503,0.95
beta_3,mle,1.3271766767216435,0.35470288685783063,0.35470288685783063,0.6319717932679099,2.0223815601753774,0.95
beta_3,cmle,1.2323783426700976,0.32936696636798557,0.32936696636798557,0.5868309508916306,1.8779257344485645,0.95
beta_3,jeffreys,1.3271766767216435,0.35470288685783063,0.35470288685783063,0.7255798391399855,2.1074044983477473,0.95
beta_3,reference,1.3271766767216435,0.35470288685783063,0.35470288685783063,0.7255798391399855,2.1074044983477473,0.95
alpha_1,mle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,cmle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,jeffreys,10.0,3.3166247903554,3.1622776601683795,5.491160367236839,18.390356042017753,0.95
alpha_1,reference,10.0,3.24037034920393,3.1622776601683795,5.141448891261433,17.739437952863618,0.95
alpha_2,mle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,cmle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,jeffreys,24.0,5.0,4.898979485566356,16.178681847834717,35.71009759375316,0.95
alpha_2,reference,24.0,4.949747468305833,4.898979485566356,15.77745823133945,35.111206783217234,0.95
alpha_3,mle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,cmle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,jeffreys,14.0,3.872983346207417,3.7416573867739413,8.39538613278332,23.48962112183554,0.95
alpha_3,reference,14.0,3.8078865529319543,3.7416573867739413,8.023535847682442,22.861142902087245,0.95
""", ""),
    ("shared", "map"): ("""\
parameter,method,point,sd,sd_paper_compat,ci_lo,ci_hi,level
beta,mle,0.950881339672026,0.13724789935675907,0.13724789935675907,0.6818803999790002,1.219882279365052,0.95
beta,cmle,0.9310713117621922,0.13438856812015992,0.13438856812015992,0.667674558312771,1.1944680652116133,0.95
beta,reference,0.9310713117621922,0.13724789935675905,0.13724789935675905,0.701104836181604,1.238127464273848,0.95
alpha_1,mle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,cmle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,reference,10.0,3.24037034920393,3.1622776601683795,5.141448891261433,17.739437952863618,0.95
alpha_2,mle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,cmle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,reference,24.0,4.949747468305833,4.898979485566356,15.77745823133945,35.111206783217234,0.95
alpha_3,mle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,cmle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,reference,14.0,3.8078865529319543,3.7416573867739413,8.023535847682442,22.861142902087245,0.95
""", JEFFREYS_SHARED_WARNING),
    ("shared", "mean"): ("""\
parameter,method,point,sd,sd_paper_compat,ci_lo,ci_hi,level
beta,mle,0.950881339672026,0.13724789935675907,0.13724789935675907,0.6818803999790002,1.219882279365052,0.95
beta,cmle,0.9310713117621922,0.13438856812015992,0.13438856812015992,0.667674558312771,1.1944680652116133,0.95
beta,reference,0.950881339672026,0.13724789935675905,0.13724789935675905,0.701104836181604,1.238127464273848,0.95
alpha_1,mle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,cmle,10.0,3.1622776601683795,3.1622776601683795,3.8020496769543843,16.197950323045617,0.95
alpha_1,reference,10.0,3.24037034920393,3.1622776601683795,5.141448891261433,17.739437952863618,0.95
alpha_2,mle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,cmle,24.0,4.898979485566356,4.898979485566356,14.39817664728938,33.60182335271062,0.95
alpha_2,reference,24.0,4.949747468305833,4.898979485566356,15.77745823133945,35.111206783217234,0.95
alpha_3,mle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,cmle,14.0,3.7416573867739413,3.7416573867739413,6.66648627943482,21.33351372056518,0.95
alpha_3,reference,14.0,3.8078865529319543,3.7416573867739413,8.023535847682442,22.861142902087245,0.95
""", JEFFREYS_SHARED_WARNING),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows parsed from {text!r}"
    return rows


class TestFit:
    def test_reference_table_matches_published_alpha_rows(self, capsys):
        code, out, err = _run(capsys, ["fit", "--fixtures", "harvester",
                                       "--prior", "reference", "--level", "0.95",
                                       "--format", "csv"])
        assert code == 0
        rows = {r["parameter"]: r for r in _parse_csv(out)}
        assert set(rows) == {"beta_1", "beta_2", "beta_3", "alpha_1", "alpha_2", "alpha_3"}
        assert float(rows["alpha_1"]["point"]) == 10.0
        assert float(rows["alpha_2"]["point"]) == 24.0
        assert float(rows["alpha_3"]["point"]) == 14.0
        for name, lo, hi in (("alpha_1", 5.141, 17.739),
                             ("alpha_2", 15.777, 35.111),
                             ("alpha_3", 8.024, 22.861)):
            assert abs(float(rows[name]["ci_lo"]) - lo) < 1e-3
            assert abs(float(rows[name]["ci_hi"]) - hi) < 1e-3

    @pytest.mark.parametrize("model, point", list(HARVESTER_CSV), ids="-".join)
    def test_full_precision_csv_is_pinned(self, capsys, model, point):
        argv = ["fit", "--fixtures", "harvester", "--format", "csv", "--model", model,
                "--point", point]
        assert _run(capsys, argv) == (0, *HARVESTER_CSV[model, point])

    def test_schema_stable(self, capsys):
        code, out, _ = _run(capsys, ["fit", "--fixtures", "harvester", "--format", "csv"])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == CSV_COLUMNS
        for row in _parse_csv(out):
            assert list(row) == CSV_COLUMNS

    def test_csv_json_numeric_agreement(self, capsys):
        code, csv_out, _ = _run(capsys, ["fit", "--fixtures", "harvester", "--format", "csv"])
        assert code == 0
        code, json_out, _ = _run(capsys, ["fit", "--fixtures", "harvester", "--format", "json"])
        assert code == 0
        csv_rows = _parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)

        def sig12(x: float) -> float:
            return float(f"{x:.12g}")

        for c_row, j_row in zip(csv_rows, json_rows):
            assert c_row["parameter"] == j_row["parameter"]
            assert c_row["method"] == j_row["method"]
            for column in ("point", "sd", "sd_paper_compat", "ci_lo", "ci_hi", "level"):
                assert sig12(float(c_row[column])) == sig12(float(j_row[column]))

    def test_paper_compat_switches_beta_point(self, capsys):
        _, default_out, _ = _run(capsys, ["fit", "--fixtures", "harvester",
                                          "--prior", "reference", "--format", "csv"])
        _, compat_out, _ = _run(capsys, ["fit", "--fixtures", "harvester",
                                         "--prior", "reference", "--paper-compat",
                                         "--format", "csv"])
        default_rows = {r["parameter"]: r for r in _parse_csv(default_out)}
        compat_rows = {r["parameter"]: r for r in _parse_csv(compat_out)}
        # map point is (n-1)/n of the mean point.
        mean_point = float(compat_rows["beta_1"]["point"])
        map_point = float(default_rows["beta_1"]["point"])
        assert abs(map_point - 0.9 * mean_point) < 1e-12
        # Published three-decimal values arise under the compat convention.
        assert round(float(compat_rows["beta_1"]["point"]), 3) == 0.557
        assert float(default_rows["alpha_1"]["point"]) == 10.0

    def test_empty_input_errors(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,cause\n", encoding="utf-8")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "10"])
        assert code != 0
        record = json.loads(err.splitlines()[-1])
        assert "no failures" in record["error"]["message"]

    def test_oversized_field_errors(self, capsys, tmp_path):
        # A field beyond the csv module's size limit of 131,072 characters.
        path = tmp_path / "big.csv"
        path.write_text("time,cause\n1.0,1\n" + "1" * 140_000 + ",1\n", encoding="utf-8")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "10"])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert record["message"].startswith("line 3: field larger than field limit")

    def test_input_requires_truncation(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time,cause\n1.0,1\n", encoding="utf-8")
        code, _, err = _run(capsys, ["fit", "--input", str(path)])
        assert code != 0
        assert "truncation" in json.loads(err.splitlines()[-1])["error"]["message"]

    def test_warnings_emitted_for_empty_cause(self, capsys, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("time,cause\n1.0,1\n2.0,1\n", encoding="utf-8")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "10",
                                       "--num-causes", "2", "--format", "csv"])
        assert code == 0
        warnings = [json.loads(line)["warning"] for line in err.splitlines()]
        assert any("cause 2" in w for w in warnings)

    def test_file_input_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "harvester.csv"
        path.write_text(serialize_history(harvester_fixture()), encoding="utf-8")
        code, out, _ = _run(capsys, ["fit", "--input", str(path), "--truncation", "254",
                                     "--prior", "reference", "--format", "csv"])
        assert code == 0
        rows = {r["parameter"]: r for r in _parse_csv(out)}
        assert float(rows["alpha_2"]["point"]) == 24.0

    def test_map_beta_of_zero_warns(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("time,cause\n1.0,1\n2.0,2\n", encoding="utf-8")
        argv = ["fit", "--input", str(path), "--truncation", "10", "--prior", "reference"]
        code, out, err = _run(capsys, argv)
        assert code == 0
        assert out.splitlines()[1].split()[:3] == ["beta_1", "reference", "0.000"]
        warnings = [json.loads(line)["warning"] for line in err.splitlines()]
        for j in (1, 2):
            assert any(w.startswith(f"cause {j}:") and "--point mean" in w for w in warnings)
        code, _, err = _run(capsys, argv + ["--point", "mean"])
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("text, extra", [
        ("time,cause\n1.0,1\n2.0,2\n", []),
        ("time,cause\n1.0,1\n", ["--model", "shared"]),
    ])
    def test_empty_table_is_an_error(self, capsys, tmp_path, text, extra):
        # Every cause excluded from the one method chosen: one error record
        # and status 1, not warnings and a table without rows.
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "5",
                                       "--methods", "cmle", "--format", "json", *extra])
        assert (code, out) == (1, "")
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "EstimationError"
        assert record["message"].startswith("nothing to estimate for the chosen methods: ")

    @pytest.mark.parametrize("command", ["fit", "duane"])
    def test_non_utf8_input_errors(self, capsys, tmp_path, command):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"time,cause\n1.0,1\n\xff\xfe\n")
        code, out, err = _run(capsys, [command, "--input", str(path), "--truncation", "10"])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert str(path) in record["message"]

    @pytest.mark.parametrize("command", ["fit", "duane"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, command):
        # Excel's "CSV UTF-8" and Notepad start a file with a UTF-8 byte-order mark.
        text = serialize_history(harvester_fixture())
        runs = []
        for name, encoding in (("plain.csv", "utf-8"), ("marked.csv", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(text, encoding=encoding)
            runs.append(_run(capsys, [command, "--input", str(path), "--truncation", "254"]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""

    def test_only_a_leading_byte_order_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("\ufefftime,cause\n1.0,1\n", encoding="utf-8-sig")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "10"])
        assert (code, out) == (1, "")
        assert "got ['\\ufefftime', 'cause']" in json.loads(err)["error"]["message"]

    def test_non_utf8_offset_counts_the_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbftime,cause\n1.0,1\n\xff\n")
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--truncation", "10"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["message"].endswith("(invalid start byte at byte 20)")

    def test_unknown_method_errors(self, capsys):
        code, _, err = _run(capsys, ["fit", "--fixtures", "harvester",
                                     "--methods", "bogus"])
        assert code != 0
        assert "unknown method" in json.loads(err.splitlines()[-1])["error"]["message"]


def _indented_json(table: EstimateTable) -> str:
    """The fit command's JSON as json.dumps(payload, indent=2) lays it out."""
    payload = {"columns": list(EstimateRow._fields),
               "rows": [{**r._asdict(), "method": r.method.value} for r in table.rows],
               "warnings": list(table.warnings)}
    return json.dumps(payload, indent=2) + "\n"


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
# Quotes, backslashes, control characters, and text that looks like the layout.
_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                                           "}", "{", ",", " ", "\u00e9", "\U0001f600"]),
                          st.characters()), max_size=20)
_ROWS = st.builds(EstimateRow, _TEXT, st.sampled_from(list(Method)),
                  _CELLS, _CELLS, _CELLS, _CELLS, _CELLS, _CELLS)


class TestJsonLayout:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_ROWS, max_size=12), warnings=st.lists(_TEXT, max_size=3))
    def test_bytes_equal_indented_dumps(self, rows, warnings):
        table = EstimateTable(tuple(rows), tuple(warnings))
        assert cli._table_json(table) == _indented_json(table)

    def test_traced_names_are_looked_up_per_call(self, capsys, monkeypatch, tmp_path):
        # A tracer times the layers by replacing these module attributes of
        # cli; each must be looked up when fit runs, not bound at import.
        calls = collections.Counter()
        names = ("_table_text", "_table_csv", "_table_json", "build_estimate_table",
                 "parse_history", "cause_stats")
        for name in names:
            def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        path = tmp_path / "harvester.csv"
        path.write_text(serialize_history(harvester_fixture()), encoding="utf-8")
        for fmt in ("table", "csv", "json"):
            assert main(["fit", "--input", str(path), "--truncation", "254",
                         "--format", fmt]) == 0
        capsys.readouterr()
        assert calls == {"_table_text": 1, "_table_csv": 1, "_table_json": 1,
                         "build_estimate_table": 3, "parse_history": 3, "cause_stats": 3}


class TestSimulate:
    def test_byte_identical_reports(self, capsys):
        argv = ["simulate", "--scenario", "scenario1", "--replications", "512",
                "--seed", "7"]
        code_a, out_a, _ = _run(capsys, argv)
        code_b, out_b, _ = _run(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "custom.scenario"
        path.write_text("beta = [1.5, 1.0]\nalpha = [6.45, 2.75]\nT = 5.5\n"
                        "replications = 256\nseed = 11\n", encoding="utf-8")
        code, out, _ = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 0
        assert "# replications=256" in out

    def test_scenario_file_with_byte_order_mark(self, capsys, tmp_path):
        text = ("beta = [1.5, 1.0]\nalpha = [6.45, 2.75]\nT = 5.5\n"
                "replications = 256\nseed = 11\n")
        runs = []
        for folder, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            path = tmp_path / folder / "custom.scenario"  # the stem names the report
            path.parent.mkdir()
            path.write_text(text, encoding=encoding)
            runs.append(_run(capsys, ["simulate", "--scenario", str(path)]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "# scenario=custom" in runs[0][1]

    @pytest.mark.parametrize("line", ['replications = "many"', "T = 'x'", "seed = 1.9",
                                      "replications = 3.7", "replications = True",
                                      "seed = True", "beta = [True, 1.0]",
                                      "beta = [0.0, 1.0]", "T = 0", "level = 1.5",
                                      "alpha = [6.45]"])
    def test_bad_scenario_value_errors(self, capsys, tmp_path, line):
        # The bad line replaces its key's line in an otherwise valid file.
        key, _, value = line.partition(" = ")
        lines = {"beta": "[1.5, 1.0]", "alpha": "[6.45, 2.75]", "T": "5.5",
                 "replications": "64", key: value}
        path = tmp_path / "bad.scenario"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert f"{key} must be" in record["message"]

    def test_non_utf8_scenario_errors(self, capsys, tmp_path):
        path = tmp_path / "latin.scenario"
        path.write_bytes(b"beta = [1.5]\nalpha = [6.45]\nT = 5.5\n# \xff\xfe\n")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert str(path) in record["message"]

    def test_deeply_nested_scenario_value_errors(self, capsys, tmp_path):
        # 3,000 unary minus signs overflow Python's parser.
        path = tmp_path / "deep.scenario"
        path.write_text("beta = [" + "-" * 3000 + "1]\nalpha = [6.45]\nT = 5.5\n",
                        encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert record["message"].startswith("line 1: cannot parse value")

    @pytest.mark.parametrize("line", ["replication = 100", "sede = 9"])
    def test_unknown_scenario_key_errors(self, capsys, tmp_path, line):
        path = tmp_path / "typo.scenario"
        path.write_text(f"beta = [1.5, 1.0]\nalpha = [6.45, 2.75]\nT = 5.5\n{line}\n",
                        encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        assert f"unknown key '{line.split()[0]}'" in record["message"]

    def test_count_of_ten_million_gets_a_report(self, capsys, tmp_path):
        # Counts near 1e7 take the quantile solver's large-shape branch (Temme's
        # expansion), which has no upper limit on the shape: the study reports.
        path = tmp_path / "huge.scenario"
        path.write_text("beta = [1.0]\nalpha = [1e7]\nT = 5.0\nreplications = 16\n",
                        encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert (code, err) == (0, "")
        assert "# used=16\n" in out
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert [(r["parameter"], r["method"]) for r in rows] == [
            (p, m) for p in ("beta_1", "alpha_1") for m in ("mle", "cmle", "jeffreys", "reference")]
        for row in rows:
            assert math.isfinite(float(row["mre"])) and 0.0 <= float(row["cp"]) <= 1.0
        # The reference alpha interval at that count, against scipy.
        from scipy.special import gammaincinv
        _, alpha = fit("reference", [10_000_000], [1.0], 0.95)
        assert alpha.lo[0] == pytest.approx(gammaincinv(1e7 + 0.5, 0.025), rel=1e-12, abs=0)
        assert alpha.hi[0] == pytest.approx(gammaincinv(1e7 + 0.5, 0.975), rel=1e-12, abs=0)

    @pytest.mark.parametrize("beta, alpha, named", [
        ("[1.0]", "[1e19]", "alpha = [1e+19]"),  # past numpy's Poisson range
        ("[1e-320]", "[5.0]", "beta = [1e-320]"),  # log sums overflow
        ("[1e300, 1.0]", "[5.0, 5.0]", "beta = [1e+300, 1.0]"),  # squared errors overflow
    ])
    def test_float_range_faults_end_in_one_record(self, capsys, tmp_path, beta, alpha, named):
        # Valid values whose draws or sums leave the float64 range end in one
        # DomainError record naming the parameter, not a traceback, a numpy
        # warning or a report of 0.0 and inf cells.
        path = tmp_path / "range.scenario"
        path.write_text(f"beta = {beta}\nalpha = {alpha}\nT = 5.0\nreplications = 64\n",
                        encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "DomainError"
        assert record["message"].startswith(named)

    def test_beta_square_underflow_is_refused(self, capsys, tmp_path):
        # beta^2 scales every beta MSE; at beta = 1e-300 it underflows, and the
        # study ends in the DomainError record rather than printing 0.0 cells.
        path = tmp_path / "tiny.scenario"
        path.write_text("beta = [1e-300, 1.0]\nalpha = [5.0, 5.0]\nT = 5.0\n"
                        "replications = 64\n", encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path)])
        assert (code, out) == (1, "")
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "DomainError"
        assert record["message"].startswith("beta = [1e-300, 1.0] takes the squared errors")
        assert "underflow" in record["message"]

    def test_full_scale_study_is_quiet(self, capsys):
        code, out, err = _run(capsys, ["simulate", "--scenario", "scenario1",
                                       "--replications", "1000000", "--format", "json"])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["used"] + payload["discarded"] == 1_000_000

    def test_unknown_scenario_errors(self, capsys):
        code, _, err = _run(capsys, ["simulate", "--scenario", "scenario99"])
        assert code != 0
        assert "scenario" in json.loads(err.splitlines()[-1])["error"]["message"]

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, ["simulate", "--scenario", "scenario1",
                                     "--replications", "256", "--seed", "3",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["replications"] == 256
        assert payload["used"] + payload["discarded"] == 256
        assert {row["method"] for row in payload["rows"]} == {
            "mle", "cmle", "jeffreys", "reference"}


class TestFileFaults:
    """A file that cannot be read or written ends in one ValidationError record
    that names the path and keeps the operating system's reason."""

    def _record(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        (line_out,) = err.splitlines()
        record = json.loads(line_out)["error"]
        assert record["type"] == "ValidationError"
        return record["message"]

    def test_missing_input(self, capsys, tmp_path):
        path = tmp_path / "nope.csv"
        message = self._record(capsys, ["fit", "--input", str(path), "--truncation", "10"])
        assert message == f"{path}: cannot read ({os.strerror(errno.ENOENT)})"

    def test_scenario_that_is_a_directory(self, capsys, tmp_path):
        message = self._record(capsys, ["simulate", "--scenario", str(tmp_path)])
        assert message == f"{tmp_path}: cannot read ({os.strerror(errno.EISDIR)})"

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        message = self._record(capsys, ["fixtures", "--output", str(path)])
        assert message == f"{path}: cannot write ({os.strerror(errno.ENOENT)})"

    def test_nul_byte_in_input_path(self, capsys):
        message = self._record(capsys, ["fit", "--input", "a\x00b", "--truncation", "1"])
        assert message == "a\x00b: cannot read (embedded null byte)"

    def test_nul_byte_in_output_path(self, capsys):
        message = self._record(capsys, ["fixtures", "--output", "a\x00b"])
        assert message == "a\x00b: cannot write (embedded null byte)"

    @pytest.mark.skipif(sys.getfilesystemencoding() != "utf-8",
                        reason="needs file names decoded as UTF-8 with escapes")
    def test_undecodable_scenario_name_with_output(self, capsys, tmp_path):
        # The report header carries the file's name, whose byte 0xff has no
        # UTF-8 text, so a UTF-8 file cannot hold the report.
        scenario = tmp_path / os.fsdecode(b"\xff")
        scenario.write_text("beta = [1.5]\nalpha = [6.0]\nT = 5.0\n", encoding="utf-8")
        output = tmp_path / "out.csv"
        message = self._record(capsys, ["simulate", "--scenario", str(scenario),
                                        "--replications", "100", "--output", str(output)])
        assert message.startswith(f"{output}: cannot write ('utf-8' codec can't encode")
        assert message.endswith("surrogates not allowed)")

    @pytest.mark.skipif(sys.getfilesystemencoding() != "utf-8",
                        reason="needs file names decoded as UTF-8 with escapes")
    def test_refused_output_keeps_the_old_file(self, capsys, tmp_path):
        # The report is encoded before the file is opened, so a report that
        # cannot be written leaves the file that was there as it was.
        scenario = tmp_path / os.fsdecode(b"\xff")
        scenario.write_text("beta = [1.5]\nalpha = [6.0]\nT = 5.0\n", encoding="utf-8")
        output = tmp_path / "out.csv"
        output.write_bytes(b"an earlier report\n")
        message = self._record(capsys, ["simulate", "--scenario", str(scenario),
                                        "--replications", "100", "--output", str(output)])
        assert message.startswith(f"{output}: cannot write ('utf-8' codec can't encode")
        assert output.read_bytes() == b"an earlier report\n"

    def test_full_standard_output(self, capsys, monkeypatch):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("sys.stdout", Full())
        code = main(["fixtures"])
        monkeypatch.undo()
        (line_out,) = capsys.readouterr().err.splitlines()
        assert code == 1
        assert json.loads(line_out)["error"] == {
            "type": "ValidationError",
            "message": f"stdout: cannot write ({os.strerror(errno.ENOSPC)})"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_full_standard_output_in_a_fresh_process(self):
        # A real buffered stdout keeps the bytes it failed to write, and the
        # flush at interpreter exit must not report them a second time.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(plpcr.__file__).parents[1])
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "plpcr", "fixtures"], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        (line_out,) = done.stderr.splitlines()
        assert done.returncode == 1
        assert json.loads(line_out)["error"] == {
            "type": "ValidationError",
            "message": f"stdout: cannot write ({os.strerror(errno.ENOSPC)})"}

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
    def test_closed_standard_output_in_a_fresh_process(self):
        # With descriptor 1 closed at start-up, Python's sys.stdout is None.
        env = dict(os.environ, PYTHONPATH=str(Path(plpcr.__file__).parents[1]))
        done = subprocess.run(["/bin/sh", "-c", 'exec "$0" -m plpcr fixtures >&-',
                               sys.executable], env=env, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        (line_out,) = done.stderr.splitlines()
        assert done.returncode == 1
        assert json.loads(line_out)["error"] == {
            "type": "ValidationError",
            "message": "stdout: cannot write (standard output is closed)"}


class TestCommandLine:
    """The parser decides a command line once: aliases share their option's
    destination, conflicting or malformed lines are refused, and every refusal
    is one JSON error record with status 1."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--fixtures", "harvester", "--methods", "mle", "--prior", "reference"],
        ["fit", "--fixtures", "harvester", "--point", "map", "--paper-compat"],
        ["fit", "--fixtures", "harvester", "--truncation", "10"],
        ["fit", "--fixtures", "harvester", "--num-causes", "4"],
        ["fit", "--fixtures", "harvester", "--input", "h.csv"],
        ["fit"],
        ["duane", "--cause", "1"],
        ["fit", "--fixtures", "harvester", "--level", "abc"],
        ["fit", "--fixtures", "harvester", "--bogus"],
        ["fit", "--fixtures", "harvester", "--prior", "mle"],
        ["fit", "--fixtures", "harvester", "--point", "median"],
        ["fit", "--fixtures", "harvester", "--methods", "bogus"],
        ["fit", "--fixtures", "harvester", "--methods", " , "],
        ["fit", "--input", "h.csv"],
        ["simulate"],
        ["simulate", "--scenario", "scenario1", "--workers", "2"],
        ["simulate", "--scenario", "scenario99"],
        ["simulate", "--scenario", "scenario1", "--replications", "0"],
        ["simulate", "--scenario", "scenario1", "--seed", "-1"],
        ["simulate", "--scenario", "scenario1", "--level", "1.5"],
        ["fit", "--fixtures", "harvester", "--level", "1.5"],
        ["frobnicate"],
        [],
    ], ids=" ".join)
    def test_refused_command_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.csv").write_text("time,cause\n1.0,1\n", encoding="utf-8")
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert "usage:" not in err
        (line_out,) = err.splitlines()
        assert json.loads(line_out)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--replications", "0"], "argument --replications: value must be a "
                                             "positive integer, got 0"),
        (["simulate", "--seed", "-1"], "argument --seed: value must be an integer in "
                                       "0..18446744073709551615, got -1"),
        (["simulate", "--seed", str(2**64)], "argument --seed: value must be an integer in "
                                             "0..18446744073709551615, got 18446744073709551616"),
        (["simulate", "--level", "1.5"], "argument --level: value must be a real in "
                                         "(0.0, 1.0), got 1.5"),
        (["simulate", "--level", "nan"], "argument --level: value must be a real in "
                                         "(0.0, 1.0), got nan"),
        (["simulate", "--replications", "1e4"], "argument --replications: invalid int value: "
                                                "'1e4'"),
        (["fit", "--fixtures", "harvester", "--level", "0"], "argument --level: value must be a "
                                                             "real in (0.0, 1.0), got 0.0"),
        (["fit", "--input", "h.csv", "--truncation", "-1"], "argument --truncation: value must "
                                                            "be a positive real, got -1.0"),
        (["fit", "--fixtures", "harvester", "--truncation", "inf"], "argument --truncation: value "
                                                                    "must be a positive real, "
                                                                    "got inf"),
        (["fit", "--input", "h.csv", "--truncation", "9", "--num-causes", "0"],
         "argument --num-causes: value must be a positive integer, got 0"),
        (["duane", "--input", "h.csv", "--truncation", "nan"], "argument --truncation: value "
                                                               "must be a positive real, got nan"),
        (["duane", "--fixtures", "harvester", "--num-causes", "-2"], "argument --num-causes: value "
                                                                     "must be a positive integer, "
                                                                     "got -2"),
        (["duane", "--fixtures", "harvester", "--cause", "0"], "argument --cause: value must be a "
                                                               "positive integer, got 0"),
        (["duane", "--fixtures", "harvester", "--cause", "1.5"], "argument --cause: invalid int "
                                                                 "value: '1.5'"),
    ], ids=" ".join)
    def test_number_option_refusal_names_the_flag(self, capsys, argv, message):
        # The parser holds each number option to the package's number rule, so a
        # fault is a usage fault that names the flag, not a model-level DomainError.
        if argv[0] == "simulate":
            argv = argv + ["--scenario", "scenario1"]
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert json.loads(err)["error"] == {"type": "ValidationError", "message": message}

    @pytest.mark.parametrize("alias, spelled_out", [
        (["--prior", "reference"], ["--methods", "reference"]),
        (["--prior", "jeffreys"], ["--methods", "jeffreys"]),
        (["--paper-compat"], ["--point", "mean"]),
        (["--methods", "mle,reference,MLE"], ["--methods", "mle,reference"]),
    ])
    def test_alias_matches_its_option(self, capsys, alias, spelled_out):
        base = ["fit", "--fixtures", "harvester", "--format", "csv"]
        assert _run(capsys, base + alias) == _run(capsys, base + spelled_out)

    def test_simulate_help_lists_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--scenario" in out and "--workers" not in out


class TestParserReuse:
    ARGVS = (["fit", "--fixtures", "harvester", "--prior", "jeffreys"],
             ["fit", "--fixtures", "harvester"],
             ["fit", "--fixtures", "harvester", "--format", "csv", "--level", "0.9",
              "--model", "shared"],
             ["simulate", "--scenario", "scenario1", "--replications", "300", "--seed", "4"],
             ["fit", "--fixtures", "harvester", "--methods", "mle", "--paper-compat",
              "--format", "json"],
             ["duane", "--fixtures", "harvester", "--cause", "2"],
             ["fit", "--fixtures", "harvester"])

    def test_consecutive_calls_match_fresh_calls(self, capsys):
        # main builds its parser once; no parsed option may leak into a later call.
        consecutive = [_run(capsys, argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(_run(capsys, argv))
        assert consecutive == fresh
        assert all(code == 0 for code, _, _ in consecutive)


class TestDispatch:
    """main sends a line that starts with a subcommand straight to that
    subcommand's parser; build_parser's two levels are the oracle."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            outcome = vars(parse(argv))
            outcome.pop("command", None)  # set by the top level only, and read by nothing
        except ValidationError as exc:
            outcome = ("ValidationError", str(exc))
        except SystemExit as exc:
            outcome = ("SystemExit", exc.code)
        return outcome, capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        *TestParserReuse.ARGVS,
        ["fit", "--input", "h.csv", "--trunc", "254"],
        ["fit", "--fixtures=harvester", "--level=0.9", "--form", "json"],
        ["fit", "--fixtures", "harvester", "--methods", "bogus"],
        ["fit", "--fixtures", "harvester", "--methods", "mle", "--prior", "reference"],
        ["fit", "--fixtures", "harvester", "extra"],
        ["fit", "--", "--fixtures", "harvester"],
        ["fit", "fit"],
        ["fit"],
        ["simulate"],
        ["simulate", "--scenario", "scenario1", "--workers", "2"],
        ["duane", "--cause", "1"],
        ["duane", "--fixtures", "harvester", "--cause", "1.5"],
        ["fixtures", "--name", "bogus"],
        ["fixtures"],
        ["fit", "-h"],
        ["simulate", "--help"],
        ["fixtures", "-h", "--bogus"],
        ["--help"],
        ["-h", "fit"],
        ["--bogus", "fit"],
        ["frobnicate"],
        ["Fit"],
        [],
    ], ids=" ".join)
    def test_direct_parse_matches_both_levels(self, capsys, argv):
        oracle = self._outcome(cli.build_parser().parse_args, argv, capsys)
        assert self._outcome(cli._parse_args, argv, capsys) == oracle

    def test_no_argv_reads_the_process_arguments(self, capsys, monkeypatch):
        for argv in (["fit", "--fixtures", "harvester", "--format", "csv"], ["--help"], []):
            monkeypatch.setattr("sys.argv", ["plpcr", *argv])
            oracle = self._outcome(lambda _: cli.build_parser().parse_args(), None, capsys)
            assert self._outcome(cli._parse_args, None, capsys) == oracle


class TestDuane:
    def test_single_cause(self, capsys):
        code, out, _ = _run(capsys, ["duane", "--fixtures", "harvester", "--cause", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cause,log_time,log_count"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert abs(float(first[1]) - math.log(4.987)) < 1e-12

    def test_all_causes(self, capsys):
        code, out, _ = _run(capsys, ["duane", "--fixtures", "harvester"])
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 48

    def test_no_failures_is_a_diagnostic_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,cause\n", encoding="utf-8")
        code, out, err = _run(capsys, ["duane", "--input", str(path), "--truncation", "10"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "DiagnosticError", "message": "no failures observed; no Duane points to emit"}


class TestFixtures:
    def test_roundtrip(self, capsys):
        code, out, _ = _run(capsys, ["fixtures"])
        assert code == 0
        history = parse_history(out, 254.0)
        assert history == harvester_fixture()

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = _run(capsys, ["fixtures", "--output", str(path)])
        assert code == 0
        assert out == ""
        assert parse_history(path.read_text(encoding="utf-8"), 254.0).n == 48

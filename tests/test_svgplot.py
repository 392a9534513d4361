import hashlib
import re

import pytest

from irs_secrecy.svgplot import CsvFormatError, emit_plot
from irs_secrecy.sweep import SUMMARY_COLUMNS

HEADER = ",".join(SUMMARY_COLUMNS)

SAMPLE = "\n".join(
    [HEADER]
    + [
        f"p_max_dbm,{v},{scheme},50,{mean},{std}"
        for scheme, offset in (("proposed", 1.0), ("baseline1", 0.5), ("baseline2", 0.8))
        for v, mean, std in [
            (p, offset * (1 + 0.1 * p), 0.2) for p in (0, 10, 20, 30, 40)
        ]
    ]
) + "\n"


def write_sample(tmp_path, text=SAMPLE):
    path = tmp_path / "summary.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestEmitPlot:
    def test_one_polyline_per_scheme(self, tmp_path):
        out = emit_plot(write_sample(tmp_path))
        svg = out.read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<path") == 3  # std bands
        for scheme in ("proposed", "baseline1", "baseline2"):
            assert scheme in svg

    def test_byte_deterministic(self, tmp_path):
        path = write_sample(tmp_path)
        a = emit_plot(path, tmp_path / "a.svg").read_bytes()
        b = emit_plot(path, tmp_path / "b.svg").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_group_without_successful_run_skipped(self, tmp_path):
        # a sweep writes count 0 and empty mean/std when every run of a group failed
        plain = emit_plot(write_sample(tmp_path), tmp_path / "a.svg").read_bytes()
        failed = SAMPLE + "p_max_dbm,50,proposed,0,,\n"
        skipped = emit_plot(write_sample(tmp_path, failed), tmp_path / "b.svg").read_bytes()
        assert skipped == plain

    def test_empty_data_errors_without_output(self, tmp_path):
        path = write_sample(tmp_path, HEADER + "\n")
        out = tmp_path / "plot.svg"
        with pytest.raises(CsvFormatError, match="no data rows"):
            emit_plot(path, out)
        assert not out.exists()

    def test_bad_header_reports_line(self, tmp_path):
        path = write_sample(tmp_path, "nope,nope\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            emit_plot(path)

    def test_bad_number_reports_line(self, tmp_path):
        bad = HEADER + "\np_max_dbm,10,proposed,50,not_a_number,0.1\n"
        path = write_sample(tmp_path, bad)
        with pytest.raises(CsvFormatError, match="line 2"):
            emit_plot(path)

    @pytest.mark.parametrize(
        "row",
        [
            "p_max_dbm,10,proposed,50,nan,0.1",
            "p_max_dbm,10,proposed,50,1.5,inf",
            "p_max_dbm,nan,proposed,50,1.5,0.1",
        ],
    )
    def test_non_finite_number_reports_line(self, tmp_path, row):
        # a nan mean gave an SVG with nan coordinates
        path = write_sample(tmp_path, HEADER + "\n" + row + "\n")
        out = tmp_path / "plot.svg"
        with pytest.raises(CsvFormatError, match="line 2: non-finite"):
            emit_plot(path, out)
        assert not out.exists()

    def test_field_count_checked(self, tmp_path):
        bad = HEADER + "\np_max_dbm,10,proposed\n"
        path = write_sample(tmp_path, bad)
        with pytest.raises(CsvFormatError, match="line 2"):
            emit_plot(path)

    def test_svg_is_wellformed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        out = emit_plot(write_sample(tmp_path))
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_markup_in_names_escaped(self, tmp_path):
        # a scheme or variable with < or & gave an SVG that no XML parser reads
        import xml.etree.ElementTree as ET

        path = write_sample(tmp_path, HEADER + "\np<x&,10,a<b&c,1,1.0,0.1\n")
        root = ET.fromstring(emit_plot(path).read_text())
        texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
        assert {"a<b&c", "p<x&"} <= texts

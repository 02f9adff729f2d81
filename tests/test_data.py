import functools
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import usable_cpus
from msmda import data
from msmda.cli import main
from msmda.data import (
    BatchSampler,
    DomainDataset,
    NormalizationSpec,
    SynthConfig,
    TransferTask,
    apply_multi_source_normalization,
    de_gaussian,
    generate_synthetic,
    iterations_per_epoch,
    load_dataset_grid,
    load_domain_csv,
    make_folds,
    merge_domains,
    normalize,
    normalize_matrix,
    save_dataset_grid,
    synthetic_task,
    write_domain_csv,
)
from msmda.errors import DataError, ParseError, ValidationError


def small_domain(rng, rows=6, dim=4, num_classes=2, domain_id=(1, 1)):
    return DomainDataset(
        features=rng.uniform(-1, 1, (rows, dim)),
        labels=rng.integers(0, num_classes, rows),
        num_classes=num_classes,
        domain_id=domain_id,
    )


def synthetic_grid(rows=6, dim=4, sessions=3, subjects=15, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return {
        (k, j): small_domain(rng, rows, dim, num_classes, domain_id=(k, j))
        for k in range(1, sessions + 1)
        for j in range(1, subjects + 1)
    }


# The per-cell parser (one float() per feature cell), kept verbatim as the
# reference load_domain_csv must match, the way brute_force_mmd is the
# reference for the MMD.
def per_cell_load_domain_csv(path, domain_id=(0, 0), num_classes: int | None = None) -> DomainDataset:
    """Parse one domain CSV (header ``f0,...,f{d-1},label``).

    Malformed headers, rows, cells, or labels raise ParseError with the
    offending line number. ``num_classes`` defaults to max(label) + 1.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not raw.isascii():
        # float() and int() read non-ASCII digits and spaces; the contract is ASCII
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the sentinel lands on the line holding the first undecodable byte
            lineno = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(path, lineno, f"byte 0x{raw[exc.start]:02x} is not UTF-8") from None
        bad = re.search(r"[^\x00-\x7f]", text).start()
        lineno = len((text[:bad] + "x").splitlines())
        raise ParseError(path, lineno, f"non-ASCII character {text[bad]!r}")
    # one expression, so the decoded text is freed once it is split
    lines = raw.decode("ascii").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError(path, 1, "header must be f0,...,f{d-1},label")
    dim = len(header) - 1
    for i, tok in enumerate(header[:-1]):
        if tok.strip() != f"f{i}":
            raise ParseError(path, 1, f"header column {i} is {tok!r}, expected 'f{i}'")

    features = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "_" in line:
            raise ParseError(path, lineno, f"digit-group underscore in {line!r}")
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(path, lineno, f"expected {dim + 1} fields, got {len(parts)}")
        try:
            row = [float(tok) for tok in parts[:-1]]
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric feature cell in {line!r}") from None
        tok = parts[-1].strip()
        try:
            label = int(tok)
        except ValueError:
            raise ParseError(path, lineno, f"label {tok!r} is not a base-10 integer") from None
        if label < 0:
            raise ParseError(path, lineno, f"negative label {label}")
        if not all(math.isfinite(v) for v in row):
            raise ParseError(path, lineno, "non-finite feature value")
        features.append(row)
        labels.append(label)
    if not features:
        raise ParseError(path, len(lines), "no data rows after the header")

    labels_arr = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels_arr.max()) + 1
    else:
        bad = np.nonzero(labels_arr >= num_classes)[0]
        if bad.size:
            raise ParseError(path, int(bad[0]) + 2,
                             f"label {labels_arr[bad[0]]} >= num_classes {num_classes}")
    return DomainDataset(
        features=np.asarray(features, dtype=np.float64),
        labels=labels_arr,
        num_classes=num_classes,
        domain_id=domain_id,
    )


# Cell forms float() reads, and forms it rejects or reads as non-finite.
FEATURE_CELLS = ["1.5", "-2", "0", "0.1", " 1.5", "\t2", "3 ", "+1", "-0", "1E5", ".5", "5.",
                 "2.5e-3", "0001"]
ODD_FEATURE_CELLS = ["inf", "-Infinity", "nan", "1e400", "", " ", "x", "#", "1#2", "\"1\"",
                     "'1'", "\x1f", "\x1f1", "1\x1f", " \x1f2", "1_0", "0x10", "1e", "--1"]
LABEL_CELLS = ["0", "1", "2", " 1", "\t2 ", "+1", "-0", "01", "\x1f1"]
ODD_LABEL_CELLS = ["-1", "1.5", "", "x", "#", "1_0", "\"1\"", "1e2", "\x1f"]
LINE_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c"]
FILLER_LINES = ["", " ", "\t", " \t ", "\x1f"]
SPLICED = ["\x1f", "_", "#", "\"", "'", ",", " ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c"]


@st.composite
def odd_csv_texts(draw):
    """A small CSV text in the domain contract with odd cells, lines and breaks,
    and up to two faults: an odd cell or label, a comma more or less, or a
    spliced character."""
    dim = draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(FEATURE_CELLS)) for _ in range(dim)]
            + [draw(st.sampled_from(LABEL_CELLS))] for _ in range(draw(st.integers(1, 4)))]
    faults = draw(st.lists(st.sampled_from(["none", "cell", "label", "comma", "splice"]),
                           min_size=1, max_size=2))
    for fault in faults:
        row = draw(st.sampled_from(rows))
        if fault == "cell":
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(ODD_FEATURE_CELLS))
        elif fault == "label":
            row[-1] = draw(st.sampled_from(ODD_LABEL_CELLS))
        elif fault == "comma":
            if draw(st.booleans()):
                row.insert(draw(st.integers(0, dim)), draw(st.sampled_from(FEATURE_CELLS)))
            else:
                del row[draw(st.integers(0, dim))]
    lines = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    for cells in rows:
        lines.extend(draw(st.lists(st.sampled_from(FILLER_LINES), max_size=1)))
        lines.append(",".join(cells))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    if "splice" in faults:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLICED)) + text[at:]
    return text


def parse_outcome(parse, path):
    """What a parser makes of a file: its arrays, or its ParseError's line and message."""
    try:
        data = parse(path)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", data.features.shape, data.features.tobytes(), data.labels.tolist(),
            data.num_classes)


class TestDomainCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        original = small_domain(rng, rows=9, dim=5, num_classes=3)
        path = tmp_path / "domain.csv"
        write_domain_csv(original, path)
        loaded = load_domain_csv(path, domain_id=(1, 1), num_classes=3)
        assert_array_equal(loaded.features, original.features)  # repr round-trips exactly
        assert_array_equal(loaded.labels, original.labels)

    def test_session_sample_count_preserved(self, tmp_path):
        # one session-subject file of a 15-trial recording is 3394 samples
        rng = np.random.default_rng(1)
        path = tmp_path / "subject1.csv"
        write_domain_csv(small_domain(rng, rows=3394, dim=6, num_classes=3), path)
        loaded = load_domain_csv(path)
        assert loaded.features.shape == (3394, 6)

    def test_four_class_session_count(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "subject1.csv"
        write_domain_csv(small_domain(rng, rows=851, dim=6, num_classes=4), path)
        assert load_domain_csv(path).num_samples == 851

    def test_feature_width_from_header(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "wide.csv"
        write_domain_csv(small_domain(rng, rows=5, dim=310, num_classes=3), path)
        assert load_domain_csv(path).feature_dim == 310

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_domain_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_domain_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(ParseError, match=":1:"):
            load_domain_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,f2\n1,2,3\n")
        with pytest.raises(ParseError, match="label"):
            load_domain_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ParseError, match=":3:"):
            load_domain_csv(path)

    def test_underscore_feature_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1_0,2.0,1\n")
        with pytest.raises(ParseError, match=":3:.*underscore"):
            load_domain_csv(path)

    def test_underscore_label_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1_0\n")
        with pytest.raises(ParseError, match=":3:.*underscore"):
            load_domain_csv(path)

    @pytest.mark.parametrize("cell", ["\u0661.\u0665", "\uff13", "1.0\u00a0"])
    def test_non_ascii_feature_cell_names_line(self, tmp_path, cell):
        # float() would read these as 1.5, 3.0 and 1.0
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{cell},2.0,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: non-ASCII character"):
            load_domain_csv(path)

    def test_non_ascii_label_names_line(self, tmp_path):
        # int() would read the Arabic-Indic digit as label 1
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,\u0661\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":4: non-ASCII character '\u0661'"):
            load_domain_csv(path)

    def test_non_integer_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1.5\n")
        with pytest.raises(ParseError, match=":3:"):
            load_domain_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ParseError, match=":3:"):
            load_domain_csv(path)

    def test_label_exceeding_declared_classes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,7\n")
        with pytest.raises(ParseError, match="num_classes"):
            load_domain_csv(path, num_classes=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_domain_csv(tmp_path / "absent.csv")

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"f0,label\r\n1.0,0\r\n2.0\xff,1\r\n")
        with pytest.raises(ParseError, match=r":3:.*0xff.*UTF-8"):
            load_domain_csv(path)

    def test_non_utf8_header_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xfff0,label\n1.0,0\n")
        with pytest.raises(ParseError, match=":1:"):
            load_domain_csv(path)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=odd_csv_texts())
    def test_matches_per_cell_parser(self, tmp_path_factory, text):
        # same arrays, or a ParseError on the same line with the same message
        path = tmp_path_factory.getbasetemp() / "odd.csv"
        path.write_bytes(text.encode("ascii"))
        assert (parse_outcome(load_domain_csv, path)
                == parse_outcome(per_cell_load_domain_csv, path))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(ParseError, match=":3: non-finite feature value"):
            load_domain_csv(path)

    def test_negative_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,-1\n")
        with pytest.raises(ParseError, match=":3: negative label -1"):
            load_domain_csv(path)

    # int() reads the label, but an int64 array cannot hold it; a unit
    # separator padding the first label sends the file to the line reader
    @pytest.mark.parametrize("pad", ["", "\x1f"], ids=["bulk-reader", "line-reader"])
    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_label_past_int64_names_line(self, tmp_path, pad, num_classes):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,{pad}0\n2.0,99999999999999999999\n")
        with pytest.raises(ParseError,
                           match=":3: label 99999999999999999999 does not fit in int64"):
            load_domain_csv(path, num_classes=num_classes)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("f0,f1,label\n\n1.0,2.0,0\n \t \n\n3.0,4.0,1\n\t\n")
        loaded = load_domain_csv(path)
        assert_array_equal(loaded.features, [[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(loaded.labels, [0, 1])

    def test_crlf_file_matches_lf_file(self, tmp_path):
        text = "f0,f1,label\n1.5,-0,0\n.5,1E5,2\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode("ascii"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        a, b = load_domain_csv(lf), load_domain_csv(crlf)
        assert a.features.tobytes() == b.features.tobytes()
        assert_array_equal(a.labels, b.labels)
        assert a.num_classes == b.num_classes == 3

    @pytest.mark.parametrize("row, fields", [("1.0,2.0", 2), ("1.0,2.0,3.0,0", 4)])
    def test_line_with_dim_or_dim_plus_two_fields_names_line(self, tmp_path, row, fields):
        # np.loadtxt with usecols would read the short row's two cells as features
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{row}\n")
        with pytest.raises(ParseError, match=f":3: expected 3 fields, got {fields}"):
            load_domain_csv(path)

    @pytest.mark.parametrize("cell", ["#", "1#", "\"1\"", "\x1f1", "1\x1f"])
    def test_comment_quote_and_unit_separator_cells_name_line(self, tmp_path, cell):
        # np.loadtxt would drop text after '#' by default and strips '\x1f' as a space
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n2.0,{cell},1\n")
        with pytest.raises(ParseError, match=":3: non-numeric feature cell"):
            load_domain_csv(path)

    @pytest.mark.parametrize("cell, message", [
        ("oops", "non-numeric feature cell"), ("inf", "label 'x' is not a base-10 integer"),
    ])
    def test_bad_label_reported_after_bad_cell_before_non_finite(self, tmp_path, cell,
                                                                 message):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{cell},x\n")
        with pytest.raises(ParseError, match=f":3: {message}"):
            load_domain_csv(path)

    def test_unit_separator_around_label_is_stripped(self, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text("f0,label\n1.0,\x1f1\x1f\n")
        assert_array_equal(load_domain_csv(path).labels, [1])

    def test_label_over_declared_classes_names_its_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n\n1.0,0\n\n2.0,7\n")
        with pytest.raises(ParseError, match=":5: label 7 >= num_classes 3"):
            load_domain_csv(path, num_classes=3)


def hand_grid():
    """tools/output_digests.py's HAND_GRID: CRLF and LF files with blank lines,
    padded cells and labels, and +1, -0, 1E5 and .5 cells."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HAND_GRID


class TestReaderPaths:
    """A regular file is converted in one np.loadtxt call; any other file is
    read by data._parse_rows, whose errors are the per-cell parser's."""

    @pytest.fixture
    def reader_calls(self, monkeypatch):
        calls = []
        real = data._parse_rows

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(data, "_parse_rows", counting)
        return calls

    def test_clean_files_never_reach_the_line_reader(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "synth"
        assert main(["gen-synth", "--grid", "2x3", "--out", str(data_dir), "--quiet"]) == 0
        paths = sorted(data_dir.glob("session*/subject*.csv"))
        for (k, j), text in hand_grid().items():
            path = tmp_path / f"hand{k}{j}.csv"
            path.write_bytes(text.encode("ascii"))
            paths.append(path)

        def refuse(path, *args):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(data, "_parse_rows", refuse)
        for path in paths:
            assert parse_outcome(load_domain_csv, path)[0] == "ok"
        monkeypatch.undo()
        for path in paths:
            assert (parse_outcome(load_domain_csv, path)
                    == parse_outcome(per_cell_load_domain_csv, path))

    @pytest.mark.parametrize("text, num_classes, message", [
        ("f0,f1,label\n1.0,2.0,0\n1_0,2.0,1\n", None, ":3: digit-group underscore"),
        ("f0,f1,label\n1.0,2.0,0\n2.0,\x1f1,1\n", None, ":3: non-numeric feature cell"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,0\n", None, ":3: expected 3 fields, got 2"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,1.5\n", None,
         ":3: label '1.5' is not a base-10 integer"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,-1\n", None, ":3: negative label -1"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,nan,1\n", None, ":3: non-finite feature value"),
        ("f0,f1,label\n\n \n", None, ":3: no data rows after the header"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,7\n", 3, ":3: label 7 >= num_classes 3"),
    ], ids=["underscore", "unit-separator-cell", "field-count", "non-integer-label",
            "negative-label", "non-finite-cell", "no-data-rows", "label-over-classes"])
    def test_irregular_file_reaches_the_line_reader(self, tmp_path, reader_calls, text,
                                                    num_classes, message):
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            load_domain_csv(path, num_classes=num_classes)
        assert reader_calls == [path]
        load = functools.partial(load_domain_csv, num_classes=num_classes)
        reference = functools.partial(per_cell_load_domain_csv, num_classes=num_classes)
        assert parse_outcome(load, path) == parse_outcome(reference, path)

    def test_unit_separator_around_label_is_read_line_by_line_and_accepted(
            self, tmp_path, reader_calls):
        path = tmp_path / "sep.csv"
        path.write_bytes(b"f0,f1,label\n1.0,2.0,\x1f1\x1f\n-0,.5,\x1f0\n")
        outcome = parse_outcome(load_domain_csv, path)
        assert reader_calls == [path]
        assert outcome == parse_outcome(per_cell_load_domain_csv, path)
        assert outcome[3] == [1, 0]

    def test_wide_header_over_blank_lines_asks_for_little_memory(self, tmp_path):
        # rows are held as they pass, never a lines-by-header-width block
        width = 20000
        path = tmp_path / "wide.csv"
        path.write_text(",".join(f"f{i}" for i in range(width)) + ",label\n"
                        + "\n" * width + "x\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f":{width + 2}: expected {width + 1} fields"):
                load_domain_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_bad_cell_after_an_over_range_label_is_reported(self, tmp_path):
        # the row pass names line 4 before the num_classes check reaches line 2
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,5\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ParseError, match=":4: non-numeric feature cell"):
            load_domain_csv(path, num_classes=3)


class TestNormalize:
    def test_electrode_wise_hand_column(self):
        out = normalize_matrix(np.array([[1.0], [3.0]]), "electrode_wise")
        assert_array_equal(out, [[-1.0], [1.0]])  # population std of [1, 3] is 1

    def test_constant_matrix_maps_to_zeros(self):
        x = np.full((4, 3), 2.5)
        for kind in ("electrode_wise", "sample_wise", "global_wise"):
            assert_array_equal(normalize_matrix(x, kind), np.zeros((4, 3)))

    def test_global_wise_hand_values(self):
        out = normalize_matrix(np.array([[0.0, 2.0], [2.0, 4.0]]), "global_wise")
        root2 = math.sqrt(2.0)
        assert_allclose(out, [[-root2, 0.0], [0.0, root2]], rtol=1e-15)

    def test_sample_wise_rows(self):
        out = normalize_matrix(np.array([[1.0, 3.0], [10.0, 10.0]]), "sample_wise")
        assert_array_equal(out[0], [-1.0, 1.0])
        assert_array_equal(out[1], [0.0, 0.0])  # constant row zeroed

    def test_none_returns_copy(self):
        x = np.array([[1.0, 2.0]])
        out = normalize_matrix(x, "none")
        assert_array_equal(out, x)
        assert out is not x

    def test_electrode_wise_column_stats(self):
        rng = np.random.default_rng(4)
        z = normalize_matrix(rng.normal(3.0, 5.0, (50, 8)), "electrode_wise")
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9

    @pytest.mark.parametrize("kind", ["electrode_wise", "sample_wise", "global_wise"])
    def test_idempotent(self, kind):
        rng = np.random.default_rng(5)
        once = normalize_matrix(rng.normal(-2.0, 3.0, (20, 6)), kind)
        twice = normalize_matrix(once, kind)
        assert np.max(np.abs(twice - once)) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 5.0), (12, 4))
        for kind in ("electrode_wise", "sample_wise", "global_wise"):
            once = normalize_matrix(x, kind)
            assert np.max(np.abs(normalize_matrix(once, kind) - once)) < 1e-10

    def test_dataset_normalization_keeps_labels(self):
        rng = np.random.default_rng(6)
        ds = small_domain(rng)
        out = normalize(ds, NormalizationSpec(kind="electrode_wise"))
        assert_array_equal(out.labels, ds.labels)
        assert out.domain_id == ds.domain_id

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            normalize_matrix(np.zeros((0, 3)), "electrode_wise")


class TestMultiSourceNormalization:
    def test_single_domain_orders_coincide(self):
        rng = np.random.default_rng(7)
        d = small_domain(rng)
        a = apply_multi_source_normalization(
            [d], NormalizationSpec(kind="electrode_wise", order="A"), concatenate=True)
        b = apply_multi_source_normalization(
            [d], NormalizationSpec(kind="electrode_wise", order="B"), concatenate=True)
        assert_array_equal(a[0].features, b[0].features)

    def test_order_divergence_hand_example(self):
        d0 = DomainDataset(np.array([[0.0]]), np.array([0]), 2, domain_id=(1, 1))
        d1 = DomainDataset(np.array([[10.0]]), np.array([1]), 2, domain_id=(1, 2))
        a = apply_multi_source_normalization(
            [d0, d1], NormalizationSpec(kind="electrode_wise", order="A"), concatenate=True)
        b = apply_multi_source_normalization(
            [d0, d1], NormalizationSpec(kind="electrode_wise", order="B"), concatenate=True)
        assert_array_equal(a[0].features, [[0.0], [0.0]])
        assert_array_equal(b[0].features, [[-1.0], [1.0]])

    def test_kind_none_concatenates_only(self):
        rng = np.random.default_rng(8)
        d0, d1 = small_domain(rng, domain_id=(1, 1)), small_domain(rng, domain_id=(1, 2))
        out = apply_multi_source_normalization(
            [d0, d1], NormalizationSpec(kind="none", order="B"), concatenate=True)
        assert_array_equal(out[0].features, np.vstack([d0.features, d1.features]))

    def test_branch_path_normalizes_each_domain(self):
        rng = np.random.default_rng(9)
        domains = [small_domain(rng, domain_id=(1, j)) for j in range(1, 4)]
        out = apply_multi_source_normalization(
            domains, NormalizationSpec(kind="electrode_wise"), concatenate=False)
        assert len(out) == 3
        for d in out:
            assert np.max(np.abs(d.features.mean(axis=0))) < 1e-9

    def test_mixed_dims_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValidationError):
            apply_multi_source_normalization(
                [small_domain(rng, dim=3), small_domain(rng, dim=4)],
                NormalizationSpec(),
            )

    def test_order_a_gives_zero_per_domain_column_means(self):
        rng = np.random.default_rng(11)
        d0 = small_domain(rng, rows=8, domain_id=(1, 1))
        d1 = replace(d0, features=d0.features + 10.0, domain_id=(1, 2))
        merged = apply_multi_source_normalization(
            [d0, d1], NormalizationSpec(kind="electrode_wise", order="A"), concatenate=True)[0]
        first, second = merged.features[:8], merged.features[8:]
        assert np.max(np.abs(first.mean(axis=0))) < 1e-9
        assert np.max(np.abs(second.mean(axis=0))) < 1e-9
        merged_b = apply_multi_source_normalization(
            [d0, d1], NormalizationSpec(kind="electrode_wise", order="B"), concatenate=True)[0]
        assert np.max(np.abs(merged_b.features[:8].mean(axis=0))) > 0.1


class TestMakeFolds:
    def test_cross_session_arithmetic(self):
        tasks = make_folds(synthetic_grid(), "cross_session")
        assert len(tasks) == 15
        for task in tasks:
            assert task.num_sources == 2
            assert task.target.domain_id[0] == 3  # last session held out
            source_ids = {s.domain_id for s in task.sources}
            assert task.target.domain_id not in source_ids

    def test_cross_subject_arithmetic(self):
        tasks = make_folds(synthetic_grid(), "cross_subject")
        assert len(tasks) == 3
        for task in tasks:
            assert task.num_sources == 14
            assert task.target.domain_id[1] == 15
            assert task.target.domain_id not in {s.domain_id for s in task.sources}

    def test_full_loso_mode(self):
        tasks = make_folds(synthetic_grid(), "cross_subject", loso=True)
        assert len(tasks) == 45
        for k in (1, 2, 3):
            session_tasks = [t for t in tasks if t.target.domain_id[0] == k]
            assert len(session_tasks) == 15
            targets = {t.target.domain_id for t in session_tasks}
            assert len(targets) == 15
        for task in tasks:
            assert task.num_sources == 14
            assert task.target.domain_id not in {s.domain_id for s in task.sources}

    def test_missing_cell_named(self):
        grid = synthetic_grid()
        del grid[(2, 7)]
        with pytest.raises(ValidationError, match=r"session 2, subject 7"):
            make_folds(grid, "cross_session")

    def test_loso_requires_cross_subject(self):
        with pytest.raises(ValidationError):
            make_folds(synthetic_grid(), "cross_session", loso=True)

    def test_subset_grid(self):
        grid = synthetic_grid(sessions=2, subjects=3)
        tasks = make_folds(grid, "cross_session")
        assert len(tasks) == 3 and all(t.num_sources == 1 for t in tasks)

    def test_target_never_in_sources(self):
        with pytest.raises(ValidationError):
            rng = np.random.default_rng(12)
            d = small_domain(rng)
            TransferTask(sources=[d], target=d, fold_id="x")


class TestDeGaussian:
    def test_unit_variance_closed_form(self):
        # window [-1, 1]: population variance exactly 1
        assert de_gaussian([-1.0, 1.0]) == pytest.approx(1.418939, abs=1e-6)
        assert de_gaussian([-1.0, 1.0]) == pytest.approx(
            0.5 * math.log(2.0 * math.pi * math.e), rel=1e-15)

    def test_scaling_adds_log_factor(self):
        rng = np.random.default_rng(13)
        w = rng.normal(0, 1, 64)
        for c in (3.0, 0.25):
            assert de_gaussian(c * w) == pytest.approx(
                de_gaussian(w) + math.log(abs(c)), rel=1e-12)

    def test_zero_entropy_variance(self):
        a = math.sqrt(1.0 / (2.0 * math.pi * math.e))
        assert abs(de_gaussian([-a, a])) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        w = rng.normal(0, 2, 32)
        assert de_gaussian(w + 100.0) == pytest.approx(de_gaussian(w), rel=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            de_gaussian([2.0, 2.0, 2.0])

    def test_short_window_rejected(self):
        with pytest.raises(ValidationError):
            de_gaussian([1.0])


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(num_domains=3, samples_per_domain=20, rng_seed=7)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        for da, db in zip(a, b):
            assert_array_equal(da.features, db.features)
            assert_array_equal(da.labels, db.labels)

    def test_balanced_labels(self):
        cfg = SynthConfig(num_domains=2, samples_per_domain=20, num_classes=3)
        for d in generate_synthetic(cfg):
            counts = np.bincount(d.labels, minlength=3)
            assert counts.sum() == 20
            assert counts.max() - counts.min() <= 1

    def test_zero_shift_zero_noise_duplicates_class_rows(self):
        cfg = SynthConfig(num_domains=3, samples_per_domain=9, num_classes=3,
                          feature_dim=5, domain_shift_scale=0.0, noise_std=0.0)
        domains = generate_synthetic(cfg)
        for c in range(3):
            rows = [d.features[d.labels == c][0] for d in domains]
            for row in rows[1:]:
                assert_array_equal(row, rows[0])

    def test_class_separation_exact_when_dim_allows(self):
        cfg = SynthConfig(num_domains=1, samples_per_domain=300, num_classes=3,
                          feature_dim=8, class_separation=4.0,
                          domain_shift_scale=0.0, noise_std=0.0)
        d = generate_synthetic(cfg)[0]
        means = [d.features[d.labels == c][0] for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0, rel=1e-12)

    def test_shift_scale_monotone_in_bruteforce_mmd(self):
        # linear-kernel brute force: squared distance between domain means
        def linear_mmd(a, b):
            diff = a.features.mean(axis=0) - b.features.mean(axis=0)
            return float(diff @ diff)

        for seed in (0, 1, 2):
            previous = -1.0
            for scale in (0.0, 0.5, 1.0, 1.5, 2.0):
                cfg = SynthConfig(num_domains=4, samples_per_domain=200,
                                  num_classes=3, feature_dim=6,
                                  domain_shift_scale=scale, noise_std=0.5,
                                  rng_seed=seed)
                domains = generate_synthetic(cfg)
                pairs = [
                    linear_mmd(domains[i], domains[j])
                    for i in range(4) for j in range(i + 1, 4)
                ]
                mean_mmd = float(np.mean(pairs))
                assert mean_mmd > previous
                previous = mean_mmd

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SynthConfig(num_domains=0)
        with pytest.raises(ValidationError):
            SynthConfig(noise_std=-1.0)


class TestBatchSampler:
    def make_task(self, sizes=(12, 8), target_size=10, seed=0):
        rng = np.random.default_rng(seed)
        sources = [
            small_domain(rng, rows=n, domain_id=(1, i + 1)) for i, n in enumerate(sizes)
        ]
        target = small_domain(rng, rows=target_size, domain_id=(2, 1))
        return TransferTask(sources=sources, target=target, fold_id="t")

    def test_batch_shapes(self):
        task = self.make_task()
        sampler = BatchSampler(task, batch_size=4, seed=0)
        for _ in range(5):
            source_batches, target = sampler.next_batch()
            assert len(source_batches) == 2
            for feats, labels in source_batches:
                assert feats.shape == (4, 4)
                assert labels.shape == (4,)
            assert target.shape == (4, 4)

    def test_each_sample_once_per_pass(self):
        task = self.make_task(sizes=(12,), target_size=12)
        sampler = BatchSampler(task, batch_size=4, seed=1)
        seen = []
        for _ in range(3):  # 3 * 4 = domain size
            source_batches, _ = sampler.next_batch()
            seen.append(source_batches[0][0])
        rows = np.vstack(seen)
        source = task.sources[0].features
        # every source row appears exactly once across the pass
        matches = [np.flatnonzero((source == row).all(axis=1)) for row in rows]
        assert sorted(int(m[0]) for m in matches) == list(range(12))

    def test_wraparound_smaller_domain(self):
        task = self.make_task(sizes=(3,), target_size=10)
        sampler = BatchSampler(task, batch_size=8, seed=2)
        source_batches, _ = sampler.next_batch()
        feats, labels = source_batches[0]
        assert feats.shape == (8, 4)
        unique = np.unique(feats, axis=0)
        assert unique.shape[0] == 3  # all three rows covered inside one batch

    def test_deterministic(self):
        task = self.make_task()
        a = BatchSampler(task, batch_size=4, seed=3)
        b = BatchSampler(task, batch_size=4, seed=3)
        for _ in range(6):
            (sa, ta), (sb, tb) = a.next_batch(), b.next_batch()
            assert_array_equal(ta, tb)
            for (fa, la), (fb, lb) in zip(sa, sb):
                assert_array_equal(fa, fb)
                assert_array_equal(la, lb)

    def test_iterations_per_epoch(self):
        task = self.make_task(sizes=(12, 8), target_size=30)
        assert iterations_per_epoch(task, 5) == 3  # ceil(12 / 5)
        assert iterations_per_epoch(task, 12) == 1

    def test_invalid_batch_size(self):
        with pytest.raises(ValidationError):
            BatchSampler(self.make_task(), 0, seed=0)


class TestDatasetGrid:
    def test_save_and_load_round_trip(self, tmp_path):
        grid = synthetic_grid(sessions=2, subjects=3, num_classes=3)
        root = tmp_path / "data"
        save_dataset_grid(grid, root)
        loaded = load_dataset_grid(root)
        assert set(loaded) == set(grid)
        for key in grid:
            assert_array_equal(loaded[key].features, grid[key].features)
            assert_array_equal(loaded[key].labels, grid[key].labels)
            assert loaded[key].num_classes == 3
            assert loaded[key].domain_id == key

    def test_manifest_missing_file(self, tmp_path):
        grid = synthetic_grid(sessions=1, subjects=2)
        root = tmp_path / "data"
        save_dataset_grid(grid, root)
        (root / "session1" / "subject2.csv").unlink()
        with pytest.raises(DataError, match="session 1, subject 2"):
            load_dataset_grid(root)

    def test_scan_without_manifest(self, tmp_path):
        grid = synthetic_grid(sessions=2, subjects=2)
        root = tmp_path / "data"
        save_dataset_grid(grid, root)
        (root / "manifest.json").unlink()
        loaded = load_dataset_grid(root)
        assert set(loaded) == set(grid)

    def test_missing_root(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset_grid(tmp_path / "nope")

    def test_empty_root(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.raises(DataError):
            load_dataset_grid(root)

    @pytest.mark.parametrize("cells", [
        [[1], [2, 1]],
        [[1, 2, 3]],
        [[1, 1], []],
        [[1, "2"]],
        [[1.0, 2]],
        [[True, 1]],
        ["12"],
        [{"1": 2}],
        [7],
        7,
    ])
    def test_manifest_cell_not_an_integer_pair(self, tmp_path, cells):
        root = tmp_path / "data"
        save_dataset_grid(synthetic_grid(sessions=1, subjects=2), root)
        (root / "manifest.json").write_text(json.dumps({"cells": cells, "num_classes": 2}))
        with pytest.raises(DataError, match="malformed manifest"):
            load_dataset_grid(root)

    @pytest.mark.parametrize("num_classes", [2.7, True, "3", 0])
    def test_manifest_num_classes_not_a_positive_integer(self, tmp_path, num_classes):
        root = tmp_path / "data"
        save_dataset_grid(synthetic_grid(sessions=1, subjects=2), root)
        (root / "manifest.json").write_text(
            json.dumps({"cells": [[1, 1], [1, 2]], "num_classes": num_classes}))
        with pytest.raises(DataError, match="malformed manifest .*num_classes"):
            load_dataset_grid(root)


def load_outcome(root):
    """A grid load's domains, or its error's type, text and location."""
    try:
        grid = load_dataset_grid(root)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "path", None),
                getattr(exc, "line", None))
    return [(key, d.domain_id, d.num_classes, d.features.shape, d.features.tobytes(),
             d.labels.tobytes(), d.features.flags.writeable, d.features.flags.c_contiguous,
             d.labels.flags.writeable, d.labels.flags.c_contiguous)
            for key, d in grid.items()]


class TestForkedGridParse:
    """With more than one usable CPU the grid's files are parsed in forked workers."""

    def save_grid(self, root, manifest=True):
        """A 3-session x 4-subject grid; its cells in manifest order."""
        grid = synthetic_grid(rows=9, dim=5, sessions=3, subjects=4, num_classes=3)
        save_dataset_grid(grid, root)
        if not manifest:
            (root / "manifest.json").unlink()
        return sorted(grid)

    def cell_path(self, root, cell):
        return root / f"session{cell[0]}" / f"subject{cell[1]}.csv"

    def test_parse_error_survives_pickling(self, tmp_path):
        for path in ("a.csv", tmp_path / "a.csv"):
            exc = pickle.loads(pickle.dumps(ParseError(path, 3, "bad")))
            assert type(exc) is ParseError
            assert str(exc) == f"{path}:3: bad"
            assert exc.path == str(path)
            assert exc.line == 3

    @pytest.mark.parametrize("manifest", [True, False], ids=["manifest", "scan"])
    def test_pool_matches_in_process_byte_for_byte(self, tmp_path, monkeypatch, manifest):
        root = tmp_path / "data"
        self.save_grid(root, manifest)
        usable_cpus(monkeypatch, 1)
        alone = load_outcome(root)
        usable_cpus(monkeypatch, 2)
        pooled = load_outcome(root)
        assert len(pooled) == 12
        assert pooled == alone
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (2, 2), (3, 3), (64, 12)])
    def test_one_worker_per_usable_cpu_and_file(self, tmp_path, monkeypatch, cpus, expected):
        root = tmp_path / "data"
        self.save_grid(root)
        log = tmp_path / "pids.txt"
        real_load = data.load_domain_csv

        def recording_load(path, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(data, "load_domain_csv", recording_load)
        usable_cpus(monkeypatch, cpus)
        load_dataset_grid(root)
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == 12
        assert len(set(pids)) == expected
        assert (str(os.getpid()) in pids) == (expected == 1)
        assert multiprocessing.active_children() == []

    # (cell index, fault): two workers stripe cells 0,2,4,... and 1,3,5,...
    @pytest.mark.parametrize("faults", [
        ((2, "bad"), (5, "missing")),
        ((3, "missing"), (4, "bad")),
        ((4, "bad"), (7, "bad")),
        ((1, "bad"), (2, "missing")),
        ((11, "missing"),),
    ])
    def test_first_bad_cell_wins_as_in_process(self, tmp_path, monkeypatch, faults):
        root = tmp_path / "data"
        cells = self.save_grid(root)
        for index, fault in faults:
            path = self.cell_path(root, cells[index])
            if fault == "missing":
                path.unlink()
            else:
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                lines[3] = "1,2,3\n"
                path.write_text("".join(lines), encoding="utf-8")
        usable_cpus(monkeypatch, 1)
        alone = load_outcome(root)
        usable_cpus(monkeypatch, 2)
        pooled = load_outcome(root)
        assert multiprocessing.active_children() == []
        assert pooled == alone
        first = self.cell_path(root, cells[faults[0][0]])
        assert str(first) in pooled[2]
        assert pooled[1] is (ParseError if faults[0][1] == "bad" else DataError)

    def test_worker_death_is_a_data_error(self, tmp_path, monkeypatch, capfd):
        root = tmp_path / "data"
        cells = self.save_grid(root)
        dead = self.cell_path(root, cells[5])
        real_load = data.load_domain_csv
        test_pid = os.getpid()

        def dying_load(path, *args, **kwargs):
            if path == str(dead) and os.getpid() != test_pid:
                os._exit(1)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(data, "load_domain_csv", dying_load)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(DataError, match=f"cannot parse {re.escape(str(dead))}: "
                                            "its worker exited with code 1"):
            load_dataset_grid(root)
        assert multiprocessing.active_children() == []
        capfd.readouterr()
        code = main(["train", "--data", str(root), "--scenario", "cross-session",
                     "--seeds", "0", "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 3
        out, err = capfd.readouterr()
        assert err == f"data error: cannot parse {dead}: its worker exited with code 1\n"
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_every_worker(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        cells = self.save_grid(root)
        last = str(self.cell_path(root, cells[-1]))
        real_load = data.load_domain_csv
        test_pid = os.getpid()

        def interrupting_load(path, *args, **kwargs):
            if path == last and os.getpid() != test_pid:
                os.kill(test_pid, signal.SIGINT)  # as Ctrl-C would, while the test waits
                time.sleep(60)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(data, "load_domain_csv", interrupting_load)
        usable_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            load_dataset_grid(root)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30


class TestMergeAndTask:
    def test_merge_concatenates(self):
        rng = np.random.default_rng(15)
        d0, d1 = small_domain(rng, rows=3), small_domain(rng, rows=5, domain_id=(1, 2))
        merged = merge_domains([d0, d1])
        assert merged.num_samples == 8
        assert_array_equal(merged.features[:3], d0.features)

    def test_synthetic_task_split(self):
        domains = generate_synthetic(SynthConfig(num_domains=4, samples_per_domain=10))
        task = synthetic_task(domains)
        assert task.num_sources == 3
        assert task.target is domains[-1]

    def test_synthetic_task_needs_two_domains(self):
        domains = generate_synthetic(SynthConfig(num_domains=1, samples_per_domain=10))
        with pytest.raises(ValidationError):
            synthetic_task(domains)

import configparser
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellkit import cli
from bellkit.experiments import PdcConfig, two_channel_rates
from bellkit.harness import (
    AnalysisConfig,
    AnalysisReport,
    ingest_counts,
    load_config,
    render_report,
    run_analysis,
)
from bellkit.inequalities import (
    CANONICAL_PHI,
    COUNT_COLUMNS,
    CountDataset,
    CountRow,
    DatasetError,
    TwoChannelCounts,
)
from bellkit.search import sample_counts

GOOD_CSV = """setting_a,setting_b,n_pp,n_pm,n_mp,n_mm
A,B,400,100,100,400
A,D,400,100,100,400
C,B,400,100,100,400
C,D,100,400,400,100
"""

# singles and a duration on every row; line 3 carries the templated duration
DURATION_CSV = """setting_a,setting_b,n_pp,n_pm,n_mp,n_mm,singles_a,singles_b,duration
A,B,400,100,100,400,2000,2000,1.0
A,D,400,100,100,400,2000,2000,{duration}
C,B,400,100,100,400,2000,2000,1.0
C,D,100,400,400,100,2000,2000,1.0
"""

# durations of 1e-10 and no singles columns
NO_SINGLES_CSV = """setting_a,setting_b,n_pp,n_pm,n_mp,n_mm,duration
A,B,400,100,100,400,1e-10
A,D,400,100,100,400,1e-10
C,B,400,100,100,400,1e-10
C,D,100,400,400,100,1e-10
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_bytes(tmp_path, name, body: bytes):
    path = tmp_path / name
    path.write_bytes(body)
    return path


# an edit value that removes the key it names
DROP = object()


def field_name(keys) -> str:
    """The field keys reach from the top of a document, as messages name it."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]


def leaves(value, keys=()):
    """The keys and value of each leaf of a JSON document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, (*keys, key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, (*keys, k))
    else:
        yield keys, value


def ingest_bytes(body: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(body)
        return ingest_counts(path)


def pdc_dataset(v=0.95, n=10**6, seed=123):
    cfg = PdcConfig(v=v, eta=0.1, r0=1.0)
    stats = {
        pair: TwoChannelCounts(*two_channel_rates(cfg, phi))
        for pair, phi in CANONICAL_PHI.items()
    }
    return sample_counts(stats, n, seed=seed)


COUNTS = st.integers(min_value=0, max_value=10**12)

# A label may need quoting (commas, quotes).  It has no surrounding
# whitespace, which the reader drops, and does not start with '#', which
# would make the row a comment.
LABELS = st.text(
    st.sampled_from(',"# ') | st.characters(blacklist_categories=("Cs", "Cc")), max_size=5
).filter(lambda s: s == s.strip() and not s.startswith("#"))

COUNT_ROWS = st.builds(
    CountRow,
    setting_a=LABELS,
    setting_b=LABELS,
    n_pp=COUNTS,
    n_pm=COUNTS,
    n_mp=COUNTS,
    n_mm=COUNTS,
    singles_a=st.none() | COUNTS,
    singles_b=st.none() | COUNTS,
    duration=st.none()
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
)

# CSV-like bodies under a valid header: fields drawn from labels, counts and
# the malformed values the reader has to reject
FIELDS = st.sampled_from(
    ["A", "B", "C", "D", "0", "1", "400", "2000", "-3", "1.5", "1e309", "nan", "inf", "",
     '"', '"A"', '"A"x', " ", "# seed=abc", "# seed=5", "abc"]
)
FUZZED_CSV = st.lists(st.lists(FIELDS, max_size=10).map(",".join), max_size=6).map(
    lambda lines: (DURATION_CSV.splitlines()[0] + "\n" + "\n".join(lines)).encode("utf-8")
)


class TestIngestCounts:
    def test_well_formed(self, tmp_path):
        ds = ingest_counts(write(tmp_path, "ok.csv", GOOD_CSV))
        assert len(ds.rows) == 4
        assert ds.rows[0].setting_a == "A"
        assert ds.rows[3].n_pm == 400
        assert ds.source_digest is not None

    def test_negative_count_names_line(self, tmp_path):
        bad = GOOD_CSV.replace("A,D,400,100,100,400", "A,D,400,-3,100,400")
        with pytest.raises(DatasetError, match=r"line 3.*n_pm"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    @pytest.mark.parametrize(
        "extra_columns, extra_fields",
        [(",n_pp", ",999"), (",duration,singles_a,duration", ",1.0,2000,2.0")],
        ids=["required", "optional"],
    )
    def test_repeated_column_names_line_and_column(
        self, tmp_path, capsys, extra_columns, extra_fields
    ):
        # with a repeated column the last value would silently win
        repeated = extra_columns.rsplit(",", 1)[1]
        header, *rows = GOOD_CSV.splitlines()
        lines = [header + extra_columns, *(row + extra_fields for row in rows)]
        path = write(tmp_path, "repeated.csv", "\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=rf"^line 1: column '{repeated}' repeated$"):
            ingest_counts(path)
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 1: column '{repeated}' repeated\n"

    @pytest.mark.parametrize(
        "column, row",
        [
            ("n_mm", f"C,D,100,400,400,{10**400},2000,2000,1.0"),
            ("singles_a", f"C,D,100,400,400,100,{10**400},2000,1.0"),
            # more digits than int() reads; the cell is not quoted back
            ("n_pp", f"C,D,{'1' * 5000},400,400,100,2000,2000,1.0"),
            ("n_pp", f"C,D,1{'0' * 5000},400,400,100,2000,2000,1.0"),
            # leading zeros are no digits: n_pp reads as 5, n_mm has 401 digits
            ("n_mm", f"C,D,{'0' * 4300}5,400,400,{'0' * 4300}{10**400},2000,2000,1.0"),
        ],
        ids=["n_mm", "singles_a", "n_pp-5000-digits", "n_pp-5001-digits", "leading-zeros"],
    )
    def test_count_too_large_for_a_float_names_line_and_column(self, tmp_path, column, row):
        counts = DURATION_CSV.format(duration="1.0").replace("C,D,100,400,400,100,2000,2000,1.0", row)
        with pytest.raises(DatasetError, match=rf"^line 5: column {column} is too large") as exc:
            ingest_counts(write(tmp_path, "big.csv", counts))
        cell = row.split(",")[DURATION_CSV.split("\n")[0].split(",").index(column)]
        digits = len(cell.lstrip("0"))
        assert str(exc.value).endswith(f": {digits} digits, not below 2**1021")
        assert len(str(exc.value).encode()) < 200

    def test_count_of_too_many_digits_follows_an_earlier_error(self, tmp_path):
        # the columns before it are checked first, as for any other cell
        row = f"C,D,-4,{'1' * 5000},400,100,2000,2000,1.0"
        counts = DURATION_CSV.format(duration="1.0").replace("C,D,100,400,400,100,2000,2000,1.0", row)
        with pytest.raises(DatasetError, match=r"^line 5: column n_pp is negative: -4$"):
            ingest_counts(write(tmp_path, "big.csv", counts))

    def test_counts_just_below_the_bound_analyze(self):
        # four counts of 2**1021 - 1 still sum to a finite float
        big = 2**1021 - 1
        row = f"A,B,{big},{big},{big},{big}"
        ds = ingest_bytes(GOOD_CSV.replace("A,B,400,100,100,400", row).encode())
        report = run_analysis(ds, AnalysisConfig())
        assert report.pairs[0].n == 4 * big
        assert report.pairs[0].e_star == 0.0

    def test_non_integer_count(self, tmp_path):
        bad = GOOD_CSV.replace("C,B,400,100,100,400", "C,B,400,1.5,100,400")
        with pytest.raises(DatasetError, match=r"line 4.*n_pm"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    def test_missing_column(self, tmp_path):
        bad = GOOD_CSV.replace(",n_mm", "").replace(",400\n", "\n")
        with pytest.raises(DatasetError, match="n_mm"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    def test_duplicate_setting_pair(self, tmp_path):
        bad = GOOD_CSV.replace("C,D,100,400,400,100", "A,B,1,1,1,1")
        with pytest.raises(DatasetError, match="duplicate"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            ingest_counts(write(tmp_path, "empty.csv", ""))

    @pytest.mark.parametrize(
        "seed, message",
        [
            ("abc", "line 1: seed 'abc' is not an integer"),
            # more digits than int() reads; the seed is not quoted back
            ("1" * 5000, "line 1: seed of 5000 digits is too long to read"),
            ("0" * 5000 + "1" * 5000, "line 1: seed of 5000 digits is too long to read"),
            # int() reads these as 42, csv.writer never writes them
            ("4_2", "line 1: seed '4_2' is not an integer"),
            ("+42", "line 1: seed '+42' is not an integer"),
            ("\uff14\uff12", "line 1: seed '\uff14\uff12' is not an integer"),
        ],
        ids=["abc", "5000-digits", "leading-zeros", "underscore", "plus", "fullwidth"],
    )
    def test_non_integer_seed_names_line(self, tmp_path, seed, message):
        with pytest.raises(DatasetError) as exc:
            ingest_counts(write(tmp_path, "bad.csv", f"# seed={seed}\n" + GOOD_CSV))
        assert str(exc.value) == message
        assert len(message.encode()) < 200

    def test_quoted_fields_are_unquoted(self, tmp_path):
        quoted = GOOD_CSV.replace("A,B,400", '"A","B",400')
        ds = ingest_counts(write(tmp_path, "quoted.csv", quoted))
        assert ds.row("A", "B").n_pp == 400

    def test_malformed_quoting_names_line(self, tmp_path):
        bad = GOOD_CSV.replace("C,B,400", '"C"x,B,400')
        with pytest.raises(DatasetError, match=r"line 4: malformed CSV record"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    def test_duplicate_setting_pair_names_line(self, tmp_path):
        bad = GOOD_CSV.replace("C,D,100,400,400,100", "A,B,1,1,1,1")
        with pytest.raises(DatasetError, match=r"line 5: duplicate"):
            ingest_counts(write(tmp_path, "bad.csv", bad))

    @given(
        rows=st.lists(COUNT_ROWS, max_size=5, unique_by=lambda r: (r.setting_a, r.setting_b)),
        seed=st.none() | st.integers(),
    )
    def test_to_csv_then_ingest_is_identity(self, rows, seed):
        ds = CountDataset(rows=tuple(rows), seed=seed)
        back = ingest_bytes(ds.to_csv().encode("utf-8"))
        assert back.seed == seed
        assert back.rows == ds.rows
        first = 2 if seed is None else 3
        assert [r.where for r in back.rows] == [f"line {n}" for n in range(first, first + len(rows))]

    @given(body=st.binary(max_size=300) | FUZZED_CSV)
    def test_fuzzed_input_raises_only_dataset_or_value_errors(self, body):
        try:
            ds = ingest_bytes(body)
            render_report(run_analysis(ds, AnalysisConfig(r0=1e4)), "json")
        except ValueError:  # DatasetError is one
            pass

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_csv_names_the_line(self, tmp_path, capsys, bom, newline):
        # a Latin-1 e-acute in line 3's setting label is not UTF-8
        body = bom + GOOD_CSV.encode().replace(b"\nA,D,", b"\nA\xe9,D,").replace(b"\n", newline)
        path = write_bytes(tmp_path, "counts.csv", body)
        with pytest.raises(DatasetError) as exc:
            ingest_counts(path)
        assert str(exc.value) == "line 3: not valid UTF-8 (byte 0xe9)"
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 3: not valid UTF-8 (byte 0xe9)\n"

    def test_seed_comment_round_trip(self, tmp_path):
        ds = pdc_dataset(n=100)
        path = tmp_path / "synth.csv"
        path.write_text(ds.to_csv())
        back = ingest_counts(path)
        assert back.seed == ds.seed
        assert back.rows[0].n_pp == ds.rows[0].n_pp
        # leading zeros are no digits, also beyond the 4300 that int() reads
        assert ingest_bytes(f"# seed=-{'0' * 4300}7\n{GOOD_CSV}".encode()).seed == -7


class TestStoredTypes:
    # a saved report's read fields go straight into these types, which
    # refuse a value of the wrong JSON type; a bool is no number
    @pytest.mark.parametrize("n_pp", [True, 5.0, "5", None])
    def test_count_row_refuses_a_count_that_is_not_an_int(self, n_pp):
        with pytest.raises(DatasetError) as exc:
            CountRow("A", "B", n_pp, 1, 1, 1, where="field pairs[2]")
        assert str(exc.value) == f"field pairs[2]: column n_pp is not an integer: {n_pp!r}"

    @pytest.mark.parametrize("duration", [True, "1.0"])
    def test_count_row_refuses_a_duration_that_is_not_a_number(self, duration):
        with pytest.raises(DatasetError, match=r"^line 3: column duration is not a number$"):
            CountRow("A", "B", 1, 1, 1, 1, duration=duration, where="line 3")

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"seed": "7"}, "seed '7' is not an integer"),
         ({"seed": False}, "seed False is not an integer"),
         ({"source_digest": 5}, "source digest 5 is not a string")],
    )
    def test_count_dataset_refuses_a_mistyped_seed_or_digest(self, kwargs, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            CountDataset((), **kwargs)

    @pytest.mark.parametrize("r0", [True, "5"])
    def test_analysis_config_refuses_an_r0_that_is_not_a_number(self, r0):
        with pytest.raises(ValueError, match=rf"^r0 = {re.escape(repr(r0))} must be finite and"):
            AnalysisConfig(r0=r0)


class TestRunAnalysis:
    def test_pdc_dataset_recovers_s_star(self):
        ds = pdc_dataset(v=0.95)
        report = run_analysis(ds, AnalysisConfig())
        expected = 2 * math.sqrt(2) * 0.95
        assert abs(report.s_star - expected) < 3 * report.s_err
        (verdict,) = report.verdicts
        assert verdict.name == "CHSH-star"
        assert verdict.violated and not verdict.genuine
        assert report.to_json()["v_b"] == pytest.approx(report.s_star / (2 * math.sqrt(2)))
        assert report.s is None

    def test_ch_gated_on_absolute_normalization(self):
        # eta ~ 1e-4 scale: coincidences quadratically rare vs singles
        eta, v, n0 = 1e-4, 0.85, 10**12
        rows = []
        for (x, y), phi in CANONICAL_PHI.items():
            p_pair = 0.25 * eta * eta * (1 + v * math.cos(2 * phi))
            rows.append(
                CountRow(
                    setting_a=x,
                    setting_b=y,
                    n_pp=round(p_pair * n0),
                    n_pm=round(0.25 * eta * eta * (1 - v * math.cos(2 * phi)) * n0),
                    n_mp=1,
                    n_mm=1,
                    singles_a=round(0.5 * eta * n0),
                    singles_b=round(0.5 * eta * n0),
                    duration=1.0,
                )
            )
        ds = CountDataset(rows=tuple(rows))
        report = run_analysis(ds, AnalysisConfig(r0=float(n0)))
        names = [v.name for v in report.verdicts]
        assert "CH" in names
        ch = next(v for v in report.verdicts if v.name == "CH")
        assert ch.genuine and not ch.violated
        assert report.s is not None

    def test_empty_dataset(self):
        with pytest.raises(DatasetError, match="empty"):
            run_analysis(CountDataset(rows=()), AnalysisConfig())

    def test_missing_canonical_pair(self):
        ds = CountDataset(rows=(CountRow("A", "B", 1, 1, 1, 1),))
        with pytest.raises(DatasetError, match="canonical"):
            run_analysis(ds, AnalysisConfig())

    def test_zero_coincidences_in_a_pair(self):
        rows = tuple(
            CountRow(x, y, 0, 0, 0, 0) if (x, y) == ("C", "D") else CountRow(x, y, 5, 5, 5, 5)
            for (x, y) in CANONICAL_PHI
        )
        with pytest.raises(DatasetError, match="zero total"):
            run_analysis(CountDataset(rows=rows), AnalysisConfig())

    def test_zero_coincidences_names_line(self, tmp_path):
        bad = GOOD_CSV.replace("C,D,100,400,400,100", "C,D,0,0,0,0")
        ds = ingest_counts(write(tmp_path, "bad.csv", bad))
        with pytest.raises(DatasetError, match=r"line 5: zero total"):
            run_analysis(ds, AnalysisConfig())

    def test_errors_shrink_like_inverse_sqrt_n(self):
        small = run_analysis(pdc_dataset(n=10**5, seed=1), AnalysisConfig())
        large = run_analysis(pdc_dataset(n=4 * 10**5, seed=2), AnalysisConfig())
        ratio = small.s_err / large.s_err
        assert ratio == pytest.approx(2.0, rel=0.2)


class TestRenderReport:
    def test_json_round_trip(self):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        assert AnalysisReport.from_json(data) == report

    def test_text_flags_non_genuine_inequality(self):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        text = render_report(report, "text")
        assert "not a genuine Bell inequality" in text
        assert text.count("verdict") == len(report.verdicts)
        assert "plot data" in text

    # every figure but the pairs' counts and the provenance follows from the
    # counts; a hand-edited one is refused, naming it
    @pytest.mark.parametrize(
        "keys, value",
        [
            (("plot_data", 1, "e_star"), 0.5),
            (("pairs", 0, "err"), 0.5),
            (("v_b",), 0.25),
            (("s",), 1.5),
            (("s_star",), 0.0),
            (("s_err",), 9.0),
            (("verdicts", 0, "lhs"), 1.0),
            (("verdicts", 0, "margin"), 1.0),
            (("verdicts", 0, "violated"), False),
            (("verdicts", 0, "genuine"), True),
            (("verdicts", 0, "name"), "CH"),
        ],
    )
    def test_saved_derived_values_must_equal_the_recomputed_ones(self, keys, value):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        target, expected = data, report.to_json()
        for key in keys[:-1]:
            target, expected = target[key], expected[key]
        target[keys[-1]] = value
        with pytest.raises(ValueError) as exc:
            AnalysisReport.from_json(data)
        assert str(exc.value) == (
            f"field {field_name(keys)} must be {json.dumps(expected[keys[-1]])}, "
            f"as the stored counts give, found {json.dumps(value)}"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_saved_pair_counts_up_to_the_float_bound_render(self, fmt):
        # four counts just below 2**1021 still sum to a finite float
        big = 2**1021 - 1
        rows = GOOD_CSV.replace("A,B,400,100,100,400", f"A,B,{big},{big},{big},{big - 8}")
        report = run_analysis(ingest_bytes(rows.encode()), AnalysisConfig())
        loaded = AnalysisReport.from_json(json.loads(render_report(report, "json")))
        assert loaded == report
        e_star = loaded.pairs[0].e_star
        assert loaded.pairs[0].n == 4 * big - 8
        assert loaded.pairs[0].err == math.sqrt((1.0 - e_star * e_star) / 2.0**1023)
        assert render_report(loaded, fmt)

    def test_unknown_format(self):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(report, "xml")

    def test_deterministic_modulo_timestamp(self):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        a = render_report(report, "json")
        b = render_report(report, "json")
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', s)
        assert strip(a) == strip(b)


PDC = "[pdc]\nv = 0.9\neta = 0.1\n"
SIMULATE = ["simulate", "--seed", "1"]

CONFIG_TEXT = """
[pdc]
v = 0.95
eta = 0.1
r0 = 1.0

[analysis]
n_pairs = 20000

[search]
eta = 0.8
"""


class TestLoadConfig:
    def test_sections_and_types(self, tmp_path):
        # values stay strings: the CLI converts each key where it reads it
        cfg = load_config(write(tmp_path, "cfg.ini", CONFIG_TEXT))
        assert cfg["pdc"]["v"] == "0.95"
        assert cfg["analysis"]["n_pairs"] == "20000"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="^config file not found: .*nope.ini$"):
            load_config(tmp_path / "nope.ini")

    def test_unreadable_file_raises_its_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            load_config(tmp_path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_config_names_the_file_and_line(self, tmp_path, capsys, bom, newline):
        # a Latin-1 e-acute in line 3's value is not UTF-8
        body = bom + newline.join([b"[pdc]", b"v = 0.95", b"eta = 0.1 \xe9", b""])
        path = write_bytes(tmp_path, "bad.ini", body)
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}, line 3: not valid UTF-8 (byte 0xe9)"
        assert cli.main(["predict", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 3: not valid UTF-8 (byte 0xe9)\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_are_numbered_as_open_numbers_them(self, tmp_path, newline):
        # the reference: the line text-mode open() gives the refused key
        lines = ["# c", "", "[pdc]", "v = 1", "V = 2", ""]
        path = write_bytes(tmp_path, "cfg.ini", newline.join(lines).encode())
        with open(path, encoding="utf-8") as fh:
            line = next(n for n, text in enumerate(fh, start=1) if text.startswith("V"))
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}, line {line}: key v repeated in [pdc]"
        assert line == 5


def configparser_reading(path) -> dict:
    """The reference: how load_config read a config through configparser."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8-sig") as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


# Characters of names, keys and values: '=', ':', '[', ']', '#', ';' and '%'
# inside a line, the whitespace str.strip() removes, and non-ASCII letters,
# among them one whose lower-case form is longer.
CONFIG_CHARS = "aZ09_-.,/()*!'\"%#;=:[] \t\xa0\u00e9\u00b5\u0130"
NO_DELIMITER = CONFIG_CHARS.replace("=", "").replace(":", "")
INDENT = st.text(" \t", max_size=2)


@st.composite
def config_body(draw):
    """A config in the accepted grammar, with comments and blank lines
    between its lines, and its line endings and byte-order mark."""
    def fillers():
        return [
            draw(INDENT) + draw(st.sampled_from(["#", ";"])) + draw(st.text(CONFIG_CHARS, max_size=6))
            if draw(st.booleans()) else draw(INDENT)
            for _ in range(draw(st.integers(0, 2)))
        ]

    names = draw(st.lists(
        st.text(CONFIG_CHARS, min_size=1, max_size=6).filter(
            lambda n: n.strip() and n != "DEFAULT"),
        max_size=3, unique=True,
    ))
    lines = fillers()
    for name in names:
        lines += [f"[{name}]", *fillers()]
        keys = draw(st.lists(
            st.text(NO_DELIMITER, min_size=1, max_size=6).filter(
                lambda k: k.strip() and not k[0].isspace() and k[0] not in "[#;"),
            max_size=4, unique_by=lambda k: k.strip().lower(),
        ))
        for key in keys:
            value = draw(st.text(CONFIG_CHARS, max_size=8))
            delimiter = draw(INDENT) + draw(st.sampled_from("=:")) + draw(INDENT)
            lines += [key + delimiter + value, *fillers()]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + "".join(line + newline for line in lines).encode()


class TestConfigGrammar:
    """load_config against configparser, which it replaced, on the grammar
    the README documents."""

    @pytest.mark.parametrize(
        "body, expected",
        [
            (b"\xef\xbb\xbf[pdc]\nv = 0.9\n", {"pdc": {"v": "0.9"}}),
            (b"[pdc]\r\nv = 0.9\r\n\r\neta=0.1\r\n", {"pdc": {"v": "0.9", "eta": "0.1"}}),
            (b"[pdc]\nv: 0.9\neta :0.1\n", {"pdc": {"v": "0.9", "eta": "0.1"}}),
            (b"[PDC]\nV = 0.9\nEta = 0.1\n", {"PDC": {"v": "0.9", "eta": "0.1"}}),
            (b"[pdc]\nr0 = %(x)s 100%\n", {"pdc": {"r0": "%(x)s 100%"}}),
            (b"[pdc]\nv = a=b:c\nw: d:e=f\n", {"pdc": {"v": "a=b:c", "w": "d:e=f"}}),
            (b"[pdc]\nv =\nw:\n", {"pdc": {"v": "", "w": ""}}),
            (b"[pdc]\nv = 0.9 # inline ; kept\n", {"pdc": {"v": "0.9 # inline ; kept"}}),
            (b"# top\n; top\n[pdc]\n  # indented\n\t; indented\nv = 1\n\n", {"pdc": {"v": "1"}}),
            (b"[ a b ]\n[a]b]\n[[c]\n[default]\n",
             {" a b ": {}, "a]b": {}, "[c": {}, "default": {}}),
            ("[s]\n\u0130 k = v\n".encode(), {"s": {"\u0130 k".lower(): "v"}}),
            (b"", {}),
        ],
        ids=["bom", "crlf", "colon", "upper-case", "percent", "delimiter-in-value",
             "empty-value", "inline-hash", "comments", "header-names", "longer-lower-case",
             "empty-file"],
    )
    def test_edge_cases_read_as_configparser_reads_them(self, tmp_path, body, expected):
        path = write_bytes(tmp_path, "cfg.ini", body)
        assert load_config(path) == configparser_reading(path) == expected

    @settings(max_examples=300, deadline=None)
    @given(config_body())
    def test_grammar_reads_as_configparser_reads_it(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.ini"
            path.write_bytes(body)
            assert load_config(path) == configparser_reading(path)

    @pytest.mark.parametrize(
        "body, line, problem",
        [
            (b"v = 0.9\n[pdc]\n", 1, "line before the first [section] header"),
            (b"# c\n\n[pdc]\nv 0.9\n", 4, "expected key = value or key: value"),
            (b"[pdc]\n= 0.9\n", 2, "expected key = value or key: value"),
            (b"[pdc]\n \t: 0.9\n", 2, "indented line; a value must fit on its key's line"),
            (b"[pdc]\nv = 0.9\n  5\n", 3, "indented line; a value must fit on its key's line"),
            (b"[pdc]\n  v = 0.9\n", 2, "indented line; a value must fit on its key's line"),
            (b"[pdc]\nv = 1\n[a]\n[pdc]\n", 4, "section [pdc] repeated"),
            (b"[pdc]\nv = 1\nV = 2\n", 3, "key v repeated in [pdc]"),
            (b"[]\n", 1, "empty section name"),
            (b"[ \t]\n", 1, "empty section name"),
            (b"[pdc] # source\n", 1, "a section header must end with ']'"),
            (b"[pdc\n", 1, "a section header must end with ']'"),
            (b"[DEFAULT]\nv = 1\n", 1, "[DEFAULT] section; give each section its own keys"),
            (b"\xef\xbb\xbf[pdc]\r\n\r\nv\r\n", 3, "expected key = value or key: value"),
        ],
        ids=["key-before-header", "no-delimiter", "empty-key", "indented-empty-key",
             "continuation", "indented-key", "repeated-section", "repeated-key",
             "empty-header", "blank-header", "text-after-header", "unclosed-header",
             "default-section", "bom-crlf-line-count"],
    )
    def test_refused_form_names_file_and_line(self, tmp_path, body, line, problem):
        path = write_bytes(tmp_path, "cfg.ini", body)
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}, line {line}: {problem}"


class TestCli:
    @pytest.fixture
    def config(self, tmp_path):
        return str(write(tmp_path, "cfg.ini", CONFIG_TEXT))

    def test_simulate_analyze_report_pipeline(self, tmp_path, config):
        counts = str(tmp_path / "counts.csv")
        assert cli.main(["simulate", "--config", config, "--seed", "7", "--output", counts]) == 0
        report_path = str(tmp_path / "report.json")
        assert (
            cli.main(
                ["analyze", counts, "--config", config, "--output", report_path, "--format", "json"]
            )
            == 0
        )
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["s_star"] == pytest.approx(2 * math.sqrt(2) * 0.95, abs=0.1)
        text_path = str(tmp_path / "report.txt")
        assert cli.main(["report", report_path, "--output", text_path]) == 0
        assert "not a genuine Bell inequality" in (tmp_path / "report.txt").read_text()

    def test_predict(self, tmp_path, config):
        out = str(tmp_path / "pred.json")
        assert cli.main(["predict", "--config", config, "--output", out]) == 0
        data = json.loads((tmp_path / "pred.json").read_text())
        assert data["pdc"]["expected_s_star"] == pytest.approx(2 * math.sqrt(2) * 0.95)

    def test_search(self, tmp_path, config):
        out = str(tmp_path / "search.json")
        assert cli.main(["search", "--config", config, "--output", out]) == 0
        data = json.loads((tmp_path / "search.json").read_text())
        assert data["s_star_max"] > 2.0
        assert data["genuine_s"] <= 2.0 + 1e-8

    def test_validate(self, tmp_path, rng):
        from conftest import random_model, save_model

        model = random_model(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        out = str(tmp_path / "validation.json")
        assert cli.main(["validate", str(path), "--output", out]) == 0
        assert json.loads((tmp_path / "validation.json").read_text())["valid"]

    def test_input_error_exit_code(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "missing.csv")]) == 1

    def test_bad_csv_exit_code(self, tmp_path):
        path = write(tmp_path, "bad.csv", "setting_a,setting_b,n_pp\nA,B,1\n")
        assert cli.main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("r0", ["0", "-1.5", "nan", "inf"])
    def test_non_positive_r0_exit_code(self, tmp_path, capsys, r0):
        path = write(tmp_path, "counts.csv", DURATION_CSV.format(duration="1.0"))
        config = write(tmp_path, "cfg.ini", f"[analysis]\nr0 = {r0}\n")
        assert cli.main(["analyze", str(path), "--config", str(config)]) == 1
        assert "r0" in capsys.readouterr().err

    # float() reads "1_0" and fullwidth digits as 10.0, csv.writer never writes them
    @pytest.mark.parametrize("duration", ["0", "-2.5", "nan", "inf", "1_0", "\uff11\uff10"])
    def test_non_positive_duration_exit_code(self, tmp_path, capsys, duration):
        path = write(tmp_path, "counts.csv", DURATION_CSV.format(duration=duration))
        assert cli.main(["analyze", str(path)]) == 1
        assert "line 3: column duration" in capsys.readouterr().err

    @pytest.mark.parametrize("value, pairs", [("1e-300", "0.0"), ("1e300", "inf")])
    def test_normalization_out_of_float_range_names_line(self, tmp_path, capsys, value, pairs):
        # r0 * duration underflows to 0 or overflows to inf in floats
        path = write(tmp_path, "counts.csv", DURATION_CSV.format(duration=value))
        config = write(tmp_path, "cfg.ini", f"[analysis]\nr0 = {value}\n")
        assert cli.main(["analyze", str(path), "--config", str(config)]) == 1
        v = float(value)
        assert capsys.readouterr() == (
            "",
            f"error: {path}: line 3: r0 = {v} times duration {v} expects {pairs} pairs, "
            "not a finite positive number\n",
        )

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("r0, pairs", [("1e-5", "1e-15"), ("1e-300", "1e-310")])
    def test_coincidences_above_expected_pairs_name_line(self, tmp_path, capsys, fmt, r0, pairs):
        # r0 * duration is finite and positive but below each row's 1000
        # coincidences, and no singles bound the correlations
        path = write(tmp_path, "counts.csv", NO_SINGLES_CSV)
        config = write(tmp_path, "cfg.ini", f"[analysis]\nr0 = {r0}\n")
        argv = ["analyze", str(path), "--config", str(config), "--format", fmt]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "",
            f"error: {path}: line 2: 1000 coincidences exceed the {pairs} pairs that "
            f"r0 = {float(r0)} times duration 1e-10 expects\n",
        )

    # sha256 digests of the reports as they stand; a change meant to keep
    # every output byte keeps them, one that alters a report re-pins them
    @pytest.mark.parametrize(
        "counts, config, verdicts, digest",
        [
            (GOOD_CSV, None, ["CHSH-star"],
             "508e33ff87bea82795a713de479cba4b38823f8110e62b4f803b2ca0e563fce5"),
            (DURATION_CSV.format(duration="1.0"), "[analysis]\nr0 = 10000\n", ["CHSH-star", "CH"],
             "d2414fd8b4e3ee4c7cb4d2933bfef75c851fd1b77721db8fa6faf6a52f45940f"),
        ],
        ids=["renormalized", "absolute"],
    )
    def test_analyze_digest_is_pinned(self, tmp_path, capsys, counts, config, verdicts, digest):
        argv = ["analyze", str(write(tmp_path, "counts.csv", counts))]
        if config is not None:
            argv += ["--config", str(write(tmp_path, "cfg.ini", config))]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [v["name"] for v in report["verdicts"]] == verdicts
        assert report["digest"] == digest

    def test_byte_order_mark_analyzes_like_the_plain_file(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        reports = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            body = prefix + b"# seed=7\n" + GOOD_CSV.encode()
            counts = write_bytes(tmp_path, f"{name}.csv", body)
            out = tmp_path / f"{name}.json"
            assert cli.main(["analyze", str(counts), "--output", str(out)]) == 0
            report = json.loads(out.read_text())
            # the digests cover the bytes of the file, the mark included
            assert report["provenance"].pop("input_digest") == hashlib.sha256(body).hexdigest()
            for key in ("digest", "generated_at"):
                report.pop(key)
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[1]["provenance"]["seed"] == 7

    def test_byte_order_mark_config_works_like_the_plain_file(self, tmp_path):
        # Windows Notepad can save a config as "UTF-8 with BOM"
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            config = str(write_bytes(tmp_path, f"{name}.ini", prefix + CONFIG_TEXT.encode()))
            outs = []
            for sub in (["predict"], ["simulate", "--seed", "7"], ["search"]):
                out = tmp_path / f"{name}-{sub[0]}.out"
                assert cli.main([*sub, "--config", config, "--output", str(out)]) == 0
                outs.append(out.read_bytes())
            outputs.append(outs)
        assert outputs[0] == outputs[1]

    def test_byte_order_mark_json_reads_like_the_plain_file(self, tmp_path, capsys, rng):
        from conftest import random_model, save_model

        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        model = tmp_path / "model.json"
        save_model(random_model(rng), model)
        commands = [(["report"], saved), (["report", "--format", "json"], saved), (["validate"], model)]
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            outs = []
            for sub, source in commands:
                path = write_bytes(tmp_path, f"input-{source.name}", prefix + source.read_bytes())
                assert cli.main([*sub, str(path)]) == 0
                outs.append(capsys.readouterr())
            outputs.append(outs)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{config}", "--seed", "7"],
            ["analyze", "{counts}"],
            ["report", "{report}"],
            ["predict", "--config", "{config}"],
            ["search", "--eta", "0.8"],
            ["validate", "{model}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_output_is_an_input_error(self, tmp_path, capsys, rng, config, argv):
        from conftest import random_model, save_model

        paths = {"config": config, "counts": str(write(tmp_path, "counts.csv", GOOD_CSV))}
        paths["report"] = str(tmp_path / "report.json")
        assert cli.main(["analyze", paths["counts"], "--output", paths["report"]]) == 0
        paths["model"] = str(tmp_path / "model.json")
        save_model(random_model(rng), paths["model"])
        argv = [arg.format(**paths) for arg in argv]
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert cli.main([*argv, "--output", ""]) == 1
        assert capsys.readouterr() == ("", "error: --output is empty\n")

    def test_negative_simulate_seed_names_the_option(self, tmp_path, capsys, config):
        out = tmp_path / "counts.csv"
        argv = ["simulate", "--config", config, "--seed", "-1", "--output", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: --seed -1 is negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("eta, r0", [("0", "1.0"), ("5e-324", "1.0"), ("1e-300", "1e-30")])
    def test_zero_simulate_efficiency_names_the_field(self, tmp_path, capsys, eta, r0):
        # eta = 0, or an eta * r0 that underflows, leaves every pair with
        # zero probability
        text = CONFIG_TEXT.replace("eta = 0.1", f"eta = {eta}").replace("r0 = 1.0", f"r0 = {r0}")
        config = write(tmp_path, "cfg.ini", text)
        out = tmp_path / "counts.csv"
        argv = ["simulate", "--config", str(config), "--seed", "7", "--output", str(out)]
        assert cli.main(argv) == 1
        message = f"[pdc] eta = {float(eta)!r} with r0 = {float(r0)!r} gives no coincidences"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_overflowing_simulate_rates_name_the_fields(self, tmp_path, capsys):
        # a rate sum that overflows to inf left every probability 0 and put
        # every count into n_mm
        text = CONFIG_TEXT.replace("eta = 0.1", "eta = 1.0").replace("r0 = 1.0", "r0 = 1e308")
        config = write(tmp_path, "cfg.ini", text)
        out = tmp_path / "counts.csv"
        argv = ["simulate", "--config", str(config), "--seed", "7", "--output", str(out)]
        assert cli.main(argv) == 1
        message = "[pdc] eta = 1.0 with r0 = 1e+308 gives rates whose sum overflows"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_non_integer_seed_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "counts.csv", "# seed=abc\n" + GOOD_CSV)
        assert cli.main(["analyze", str(path)]) == 1
        assert f"error: {path}: line 1: seed 'abc' is not an integer" in capsys.readouterr().err

    def test_singles_below_coincidences_names_pair_and_line(self, tmp_path, capsys):
        counts = DURATION_CSV.format(duration="1.0").replace(
            "A,B,400,100,100,400,2000", "A,B,400,100,100,400,10"
        )
        path = write(tmp_path, "counts.csv", counts)
        config = write(tmp_path, "cfg.ini", "[analysis]\nr0 = 10000\n")
        assert cli.main(["analyze", str(path), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: singles of setting pair (A, B)")
        assert "pAB = 0.04 exceeds marginal pA = 0.001" in err

    def test_count_too_large_for_a_float_exit_code(self, tmp_path, capsys):
        counts = GOOD_CSV.replace("C,D,100,400,400,100", f"C,D,100,400,400,{10**400}")
        path = write(tmp_path, "counts.csv", counts)
        assert cli.main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 5: column n_mm is too large")

    def test_deeply_nested_saved_report_names_the_file(self, tmp_path, capsys):
        saved = write(tmp_path, "report.json", "[" * 100_000)
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr().err == f"error: {saved}: JSON nested too deeply to read\n"

    def test_malformed_saved_report_names_the_file(self, tmp_path, capsys):
        saved = write(tmp_path, "trail.json", '{"a": 1,}')
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr().err == (
            f"error: {saved}: Expecting property name enclosed in double quotes: "
            "line 1 column 9 (char 8)\n"
        )

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_integer_literal_too_long_to_read_names_the_file(self, tmp_path, capsys, command):
        # json.loads refuses an integer of more digits than int() converts
        saved = write(tmp_path, "long.json", '{"pairs": ' + "1" * 5000 + "}")
        assert cli.main([command, str(saved)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {saved}: Exceeds the limit")

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file: no header row"),
         (GOOD_CSV.splitlines()[0] + "\n", "empty dataset"),
         (GOOD_CSV.replace("C,D,100,400,400,100\n", ""),
          "dataset lacks canonical setting pair (C, D)"),
         # int() reads each of these as 400, csv.writer never writes them
         (GOOD_CSV.replace("A,B,400", "A,B,4_00"), "line 2: column n_pp is not an integer: '4_00'"),
         (GOOD_CSV.replace("A,B,400", "A,B,+400"), "line 2: column n_pp is not an integer: '+400'"),
         (GOOD_CSV.replace("A,B,400", "A,B,\uff14\uff10\uff10"),
          "line 2: column n_pp is not an integer: '\uff14\uff10\uff10'"),
         # a negative count too long to spell out gives its digits
         (GOOD_CSV.replace("A,B,400", f"A,B,-{'1' * 5000}"),
          "line 2: column n_pp is negative: 5000 digits")],
        ids=["empty-file", "header-only", "missing-pair", "underscore-count", "plus-count",
             "fullwidth-count", "negative-5000-digits"],
    )
    def test_dataset_wide_errors_name_the_counts_file(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "counts.csv", text)
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_nan_in_saved_report_is_an_input_error(self, tmp_path, capsys):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        data = json.loads(saved.read_text())
        data["s_star"] = float("nan")
        saved.write_text(json.dumps(data))
        assert '"s_star": NaN' in saved.read_text()
        capsys.readouterr()
        assert cli.main(["report", str(saved), "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "field, keys, value, expected",
        [
            ("s_star", ("s_star",), "nan", "2.4"),
            ("pairs[2].e_star", ("pairs", 2, "e_star"), "inf", "0.6"),
            ("verdicts[0].lhs", ("verdicts", 0, "lhs"), "-inf", "2.4"),
        ],
    )
    def test_non_finite_saved_report_names_the_field(
        self, tmp_path, capsys, fmt, field, keys, value, expected
    ):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        data = json.loads(saved.read_text())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = float(value)
        saved.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["report", str(saved), "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        found = json.dumps(float(value))
        reason = "as the stored counts give"
        assert err == f"error: field {field} must be {expected}, {reason}, found {found}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("token, found", [("NaN", "NaN"), ("-Infinity", "-Infinity"),
                                              ("1e400", "Infinity")])
    @pytest.mark.parametrize(
        "path, edit",
        [
            ("note[1]", lambda d: d.update(note=[1.0, "@"])),
            ("provenance.config.unit", lambda d: d["provenance"]["config"].update(unit="@")),
            ("provenance.extra.x", lambda d: d["provenance"].update(extra={"x": "@"})),
            ("plot_data[1].weight", lambda d: d["plot_data"][1].update(weight="@")),
        ],
        ids=["top-level", "provenance", "provenance-nested", "plot-point"],
    )
    def test_non_finite_in_unlisted_report_field_names_it(
        self, tmp_path, capsys, fmt, token, found, path, edit
    ):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        data = json.loads(saved.read_text())
        edit(data)
        saved.write_text(json.dumps(data).replace('"@"', token))
        capsys.readouterr()
        assert cli.main(["report", str(saved), "--format", fmt]) == 1
        assert capsys.readouterr() == (
            "", f"error: field {path} must be a finite number, found {found}\n"
        )

    @pytest.mark.parametrize("token, found", [("NaN", "NaN"), ("Infinity", "Infinity"),
                                              ("1e400", "Infinity")])
    @pytest.mark.parametrize(
        "path, edit",
        [
            ("scale", lambda d: d.update(scale="@")),
            ("side2.gain[1]", lambda d: d["side2"].update(gain=[0.5, "@"])),
        ],
        ids=["top-level", "side"],
    )
    def test_non_finite_in_unlisted_model_field_names_it(
        self, tmp_path, capsys, rng, token, found, path, edit
    ):
        from conftest import random_model, save_model

        model = tmp_path / "model.json"
        save_model(random_model(rng), model)
        data = json.loads(model.read_text())
        edit(data)
        model.write_text(json.dumps(data).replace('"@"', token))
        assert cli.main(["validate", str(model)]) == 1
        assert capsys.readouterr() == (
            "", f"error: field {path} must be a finite number, found {found}\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("pairs", 5, "field pairs must be a list, found 5"),
            ("verdicts", [1], "field verdicts[0] must be an object, found 1"),
            ("plot_data", None, "field plot_data must be a list, found null"),
            ("s_star", "2.5", 'field s_star must be 2.4, as the stored counts give, found "2.5"'),
            ("s", True, "field s must be null, as the stored counts give, found true"),
            ("provenance", [], "field provenance must be an object, found []"),
        ],
    )
    def test_mistyped_saved_report_names_the_field(
        self, tmp_path, capsys, fmt, key, value, message
    ):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        data = json.loads(saved.read_text())
        data[key] = value
        saved.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["report", str(saved), "--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("s_err"), "field s_err is missing"),
            (lambda d: d["pairs"][1].pop("settings"), "field pairs[1].settings is missing"),
            (
                lambda d: d["pairs"][0].update(settings=["A"]),
                "field pairs[0].settings must hold 2 items, as the stored counts give, found 1",
            ),
            (
                lambda d: d["pairs"][3].update(n=2.5),
                "field pairs[3].n must be 1000, as the stored counts give, found 2.5",
            ),
            (
                lambda d: d["verdicts"][0].update(violated="no"),
                'field verdicts[0].violated must be true, as the stored counts give, found "no"',
            ),
            (
                lambda d: d["plot_data"][2].update(phi="pi/8"),
                'field plot_data[2].phi must be 0.39269908169872414, as the stored counts give, '
                'found "pi/8"',
            ),
            (
                lambda d: d.update(v_b=10**400),
                "field v_b must be 0.953179941039466, as the stored counts give, found 1000000000",
            ),
            (lambda d: d["pairs"].pop(), "field pairs must hold 4 items, found 3"),
            (
                lambda d: d["pairs"][0].update(settings=["B", "A"]),
                'field pairs[0].settings[0] must be "A", as the stored counts give, found "B"',
            ),
            (
                lambda d: d["pairs"].insert(1, d["pairs"].pop(2)),
                'field pairs[1].settings[0] must be "A", as the stored counts give, found "C"',
            ),
            (
                lambda d: d["pairs"][3].update(settings=["C", "X"]),
                'field pairs[3].settings[1] must be "D", as the stored counts give, found "X"',
            ),
            (
                lambda d: d["pairs"][0].update(n=0),
                "field pairs[0].n must be 1000, as the stored counts give, found 0",
            ),
            (
                lambda d: d["pairs"][1].update(n=-4),
                "field pairs[1].n must be 1000, as the stored counts give, found -4",
            ),
            (
                lambda d: d["pairs"][2].update(n=10**400),
                "field pairs[2].n must be 1000, as the stored counts give, found 1000000000",
            ),
            (
                lambda d: d["pairs"][3].update(n=2**1023),
                "field pairs[3].n must be 1000, as the stored counts give, found 8988465674",
            ),
            (
                lambda d: d["pairs"][2].update(e_star=7.5),
                "field pairs[2].e_star must be 0.672, as the stored counts give, found 7.5",
            ),
            (
                lambda d: d["pairs"][1].update(e=2),
                "field pairs[1].e must be null, as the stored counts give, found 2",
            ),
            (
                lambda d: d["verdicts"].append(dict(d["verdicts"][0], name="CH", rhs=0.5)),
                "field verdicts must hold 1 items, as the stored counts give, found 2",
            ),
        ],
        ids=["missing", "nested-missing", "short-list", "float-count", "string-bool",
             "string-angle", "huge-int", "three-pairs", "swapped-settings", "swapped-pairs",
             "unknown-setting", "zero-count", "negative-count", "count-1e400",
             "count-at-bound", "e-star-7.5", "e-2", "ch-without-e"],
    )
    def test_saved_report_shape_is_checked_field_by_field(self, edit, message):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        edit(data)
        with pytest.raises(ValueError) as exc:
            AnalysisReport.from_json(data)
        assert str(exc.value).startswith(message)

    # Python's == equates these with the saved value, JSON's types do not
    @pytest.mark.parametrize(
        "keys, retype",
        [
            (("pairs", 0, "n_pp"), float),
            (("pairs", 0, "n_pp"), lambda value: True),
            (("pairs", 0, "n"), float),
            (("verdicts", 0, "violated"), int),
            (("verdicts", 0, "genuine"), int),
            (("provenance", "seed"), str),
            (("provenance", "config", "r0"), lambda value: True),
        ],
        ids=["float-count", "true-count", "float-n", "int-violated", "int-genuine",
             "string-seed", "true-r0"],
    )
    def test_saved_value_of_another_json_type_is_refused(self, keys, retype):
        report = run_analysis(pdc_dataset(n=1000, seed=7), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = retype(target[keys[-1]])
        with pytest.raises(ValueError) as exc:
            AnalysisReport.from_json(data)
        assert str(exc.value).startswith(f"field {field_name(keys)} must be ")

    def test_saved_int_where_a_float_is_written_loads(self):
        counts = ingest_bytes(DURATION_CSV.format(duration="1.0").encode())
        report = run_analysis(counts, AnalysisConfig(r0=1e4))
        data = json.loads(render_report(report, "json"))
        data["verdicts"][0]["rhs"] = 2
        data["pairs"][1]["duration"] = 1
        assert AnalysisReport.from_json(data) == report

    # Each leaf a report can be checked against, set to another value of its
    # type: the leaf is named, or for a count the pair's n, which the count
    # moves.  Not changed: null leaves, which have no other value; the
    # digest and generated_at, which the report does not check; and the
    # singles, durations, seed, input digest and r0, which are read as stored.
    @pytest.mark.parametrize("r0", [None, 1e4], ids=["relative", "absolute"])
    def test_every_checked_leaf_of_a_saved_report_is_compared(self, r0):
        counts = ingest_bytes(DURATION_CSV.format(duration="1.0").encode())
        saved = render_report(run_analysis(counts, AnalysisConfig(r0=r0)), "json")
        unchecked = {"digest", "generated_at", "singles_a", "singles_b", "duration",
                     "seed", "input_digest", "r0"}
        changed = 0
        for keys, value in leaves(json.loads(saved)):
            if value is None or keys[-1] in unchecked:
                continue
            other = (not value if isinstance(value, bool) else value + "x"
                     if isinstance(value, str) else value + 1)
            data = json.loads(saved)
            target = data
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = other
            named = keys[:2] + ("n",) if keys[-1] in COUNT_COLUMNS else keys
            with pytest.raises(ValueError) as exc:
                AnalysisReport.from_json(data)
            assert str(exc.value).startswith(f"field {field_name(named)} must be ")
            changed += 1
        assert changed == (61 if r0 is None else 72)

    # Each form of a saved report's check message, whole: the field is reached
    # by keys from the top, and its value is replaced (DROP removes the key)
    @pytest.mark.parametrize(
        "keys, value, message",
        [
            ((), "report", 'top-level value must be an object, found "report"'),
            (("pairs", 1, "settings", 0), 5,
             'field pairs[1].settings[0] must be "A", as the stored counts give, found 5'),
            (("verdicts", 0, "name"), None,
             'field verdicts[0].name must be "CHSH-star", as the stored counts give, found null'),
            (("plot_data",), [1], "field plot_data[0] must be an object, found 1"),
            (("plot_data", 3, "err"), DROP, "field plot_data[3].err is missing"),
            (("verdicts", 0, "genuine"), DROP, "field verdicts[0].genuine is missing"),
            (("pairs", 2, "settings"), ["C", "B", "A"],
             "field pairs[2].settings must hold 2 items, as the stored counts give, found 3"),
            (("pairs", 4), {}, "field pairs must hold 4 items, as the stored counts give, found 5"),
            (("pairs", 0, "e"), "x",
             'field pairs[0].e must be null, as the stored counts give, found "x"'),
            (("s",), math.nan, "field s must be null, as the stored counts give, found NaN"),
            (("plot_data", 0, "phi"), math.inf,
             "field plot_data[0].phi must be -0.39269908169872414, as the stored counts give, "
             "found Infinity"),
            (("provenance", "config", "angles", "A,B"), math.nan,
             "field provenance.config.angles.A,B must be -0.39269908169872414, as the stored "
             "counts give, found NaN"),
            (("pairs", 2, "extra"), math.nan, "field pairs[2].extra must be a finite number, found NaN"),
            (("verdicts", 0, "note"), [1.0, [math.nan]],
             "field verdicts[0].note[1][0] must be a finite number, found NaN"),
            (("digest",), -math.inf, "field digest must be a finite number, found -Infinity"),
            (("provenance", ""), math.nan,
             'field provenance."" must be a finite number, found NaN'),
            (("",), math.nan, 'field "" must be a finite number, found NaN'),
            (("provenance", "config", "r0"), math.nan,
             "field provenance.config.r0 must be a finite number or null, found NaN"),
        ],
        ids=["top-level", "deep-type", "verdict-type", "list-item-type", "nested-missing",
             "verdict-missing", "long-settings", "five-pairs", "string-or-null", "nan-or-null",
             "inf-or-null", "unlisted-angle", "unlisted-pair-key", "unlisted-nested-list",
             "unlisted-top-level", "empty-key", "top-level-empty-key", "r0-or-null"],
    )
    def test_saved_report_check_message_for_every_form(self, keys, value, message):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        if keys:
            target = data
            for key in keys[:-1]:
                target = target[key]
            if value is DROP:
                del target[keys[-1]]
            elif isinstance(target, list) and keys[-1] == len(target):
                target.append(value)
            else:
                target[keys[-1]] = value
        else:
            data = value
        with pytest.raises(ValueError) as exc:
            AnalysisReport.from_json(data)
        assert str(exc.value) == message

    # an absolute report holds e = [0.06, 0.06, 0.06, -0.06] and the CH
    # verdict lhs 0.11, rhs 0.4 as verdicts[1]
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["pairs"][2].update(e=None),
             "field pairs[2].e must be 0.06, as the stored counts give, found null"),
            (lambda d: d["pairs"][0].update(e=None),
             "field pairs[0].e must be 0.06, as the stored counts give, found null"),
            (lambda d: d["verdicts"][1].update(lhs=-1.7e308, rhs=1.7e308),
             "field verdicts[1].lhs must be 0.11, as the stored counts give, found -1.7e+308"),
            (lambda d: d["verdicts"][1].update(lhs=3.00000001),
             "field verdicts[1].lhs must be 0.11, as the stored counts give, found 3.00000001"),
            (lambda d: d["verdicts"][1].update(rhs=1.7e308),
             "field verdicts[1].rhs must be 0.4, as the stored counts give, found 1.7e+308"),
            (lambda d: d["verdicts"][1].update(rhs=-1e-8),
             "field verdicts[1].rhs must be 0.4, as the stored counts give, found -1e-08"),
            (lambda d: d["verdicts"][0].update(name="CH"),
             'field verdicts[0].name must be "CHSH-star", as the stored counts give, '
             'found "CH"'),
            (lambda d: d["verdicts"].extend([dict(d["verdicts"][1], lhs=2.9, rhs=0.1),
                                             dict(d["verdicts"][1], name="FC")]),
             "field verdicts must hold 2 items, as the stored counts give, found 4"),
        ],
        ids=["e-null-in-one-pair", "e-null-in-pair-0", "ch-overflow", "ch-lhs-above-3",
             "ch-rhs-overflow", "ch-rhs-negative", "star-renamed-ch", "extra-ch-and-fc"],
    )
    def test_saved_absolute_report_holds_what_run_analysis_can_write(
        self, tmp_path, capsys, fmt, edit, message
    ):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", DURATION_CSV.format(duration="1.0"))
        config = write(tmp_path, "cfg.ini", "[analysis]\nr0 = 10000\n")
        argv = ["analyze", str(counts), "--config", str(config), "--output", str(saved)]
        assert cli.main(argv) == 0
        data = json.loads(saved.read_text())
        edit(data)
        saved.write_text(json.dumps(data))
        assert cli.main(["report", str(saved), "--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_report_saved_without_counts_is_refused(self, tmp_path, capsys):
        # a report as analyze wrote it before each pair stored its counts
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        data = json.loads(saved.read_text())
        for pair in data["pairs"]:
            for column in COUNT_COLUMNS:
                del pair[column]
        saved.write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr() == ("", "error: field pairs[0].n_pp is missing\n")

    @pytest.mark.parametrize(
        "k, column, value, message",
        [
            (1, "n_pp", -4, "field pairs[1]: column n_pp is negative: -4"),
            (0, "singles_b", -1, "field pairs[0]: column singles_b is negative: -1"),
            (2, "n_mm", 2**1021, "field pairs[2]: column n_mm is too large for a float "
             "analysis: 308 digits, not below 2**1021"),
            (2, "n_mm", 10**308 - 1, "field pairs[2]: column n_mm is too large for a float "
             "analysis: 308 digits, not below 2**1021"),
            (3, "n_pm", 2.5, "field pairs[3].n_pm must be an integer, found 2.5"),
            (0, "singles_a", 1.5, "field pairs[0].singles_a must be an integer or null, found 1.5"),
            (3, "duration", 0, "field pairs[3]: column duration must be finite and positive: 0"),
            (2, "duration", -2.5,
             "field pairs[2]: column duration must be finite and positive: -2.5"),
            (1, "duration", 10**400,
             "field pairs[1].duration must be a finite number or null, found 1" + "0" * 39),
        ],
        ids=["negative", "negative-singles", "at-bound", "largest-308-digits", "non-integer",
             "non-integer-singles", "zero-duration", "negative-duration", "duration-beyond-floats"],
    )
    def test_saved_counts_out_of_range_name_the_pair(
        self, tmp_path, capsys, k, column, value, message
    ):
        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", DURATION_CSV.format(duration="1.0"))
        config = write(tmp_path, "cfg.ini", "[analysis]\nr0 = 10000\n")
        argv = ["analyze", str(counts), "--config", str(config), "--output", str(saved)]
        assert cli.main(argv) == 0
        data = json.loads(saved.read_text())
        data["pairs"][k][column] = value
        saved.write_text(json.dumps(data))
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_chsh_star_verdict_is_decided_on_the_exact_counts(self, tmp_path, capsys):
        # S* is exactly 2 here; the float CHSH sum of the four E* exceeds 2
        body = GOOD_CSV.splitlines()[0] + "\nA,B,20,2,0,0\nA,D,48,5,0,0\nC,B,30,3,0,0\nC,D,422,161,0,0\n"
        assert cli.main(["analyze", str(write(tmp_path, "counts.csv", body)), "--format", "text"]) == 0
        verdict = "verdict CHSH-star: lhs 2.000000 vs rhs 2.000000: fulfilled;"
        (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("verdict")]
        assert line.startswith(verdict)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [(2.5, 2.0), (-1.0, 0.0), (3.0, 2.0), (-1.0 - 4e-9, -2e-9), (3.0 + 4e-9, 2.0 + 2e-9)],
    )
    def test_saved_ch_sides_the_counts_do_not_give_are_refused(self, tmp_path, capsys, lhs, rhs):
        # the counts give lhs 0.11 and rhs 0.4; an edited genuine violation
        # (2.5 > 2.0) and sides anywhere in the range some ProbabilitySet
        # gives are refused alike
        counts = ingest_bytes(DURATION_CSV.format(duration="1.0").encode())
        data = json.loads(render_report(run_analysis(counts, AnalysisConfig(r0=1e4)), "json"))
        data["verdicts"][1].update(lhs=lhs, rhs=rhs)
        saved = write(tmp_path, "report.json", json.dumps(data))
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr() == (
            "", f"error: field verdicts[1].lhs must be 0.11, as the stored counts give, found {lhs}\n"
        )

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            (PDC + "[analysis]\nn_pairs = 2.7\n", SIMULATE,
             "[analysis] n_pairs = '2.7' is not an integer"),
            (PDC + "[analysis]\nn_pairs = abc\n", SIMULATE,
             "[analysis] n_pairs = 'abc' is not an integer"),
            (PDC + "[analysis]\nn_pairs = 1e6\n", SIMULATE,
             "[analysis] n_pairs = '1e6' is not an integer"),
            (PDC + "[analysis]\nn_pairs = 99999999999999999999\n", SIMULATE,
             "[analysis] n_pairs = 99999999999999999999 outside [1, 2**63)"),
            (PDC + "[analysis]\nn_pairs = 0\n", SIMULATE,
             "[analysis] n_pairs = 0 outside [1, 2**63)"),
            ("[analysis]\nr0 = -5\n", ["analyze", "counts.csv"],
             "[analysis] r0 = -5.0 must be finite and positive"),
            ("[pdc]\nv = 2\neta = 0.1\n", ["predict"], "[pdc] v = 2.0 outside [0, 1]"),
            ("[cascade]\ntheta = 9\nzeta = 0.2\n", ["predict"],
             "[cascade] theta = 9.0 outside (0, pi/2]"),
            (PDC + "r0 = nan\n", ["predict"], "[pdc] r0 = 'nan' is not a finite number"),
            ("[pdc]\nv = 0.9\nr0 = 2\n", ["predict"], "[pdc] eta is missing"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = inf\n", ["predict"],
             "[cascade] alpha = 'inf' is not a finite number"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = -1\n", ["predict"],
             "[cascade] alpha = -1.0 must be finite and positive"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = 100\n", ["predict"],
             "[cascade] alpha = 100.0 exceeds 1/eta = 81.68770850313663, the largest value at "
             "which no coincidence probability exceeds the singles"),
            ("[cascade]\ntheta = 1.5707963267948966\nzeta = 1.0\nalpha = 3.0\n", ["predict"],
             "[cascade] alpha = 3.0 exceeds 1/eta = 2.0000000000000004, the largest value at "
             "which no coincidence probability exceeds the singles"),
            ("[cascade]\ntheta = 0.5\nzeta = 0\n", ["predict"],
             "[cascade] zeta = 0.0 outside (0, 1]"),
            ("[search]\netas = 0.8, abc\n", ["search"],
             "[search] etas = '0.8, abc' is not a list of finite numbers"),
            ("[search]\neta = 0,8\n", ["search"], "[search] eta = '0,8' is not a finite number"),
            ("[search]\neta = 80%\n", ["search"], "[search] eta = '80%' is not a finite number"),
            (PDC + "r0 = %(x)s\n", ["predict"], "[pdc] r0 = '%(x)s' is not a finite number"),
        ],
        ids=[
            "n_pairs-2.7", "n_pairs-abc", "n_pairs-1e6", "n_pairs-1e20", "n_pairs-zero",
            "analysis-r0-negative", "pdc-v-above-one", "cascade-theta-above-bound", "pdc-r0-nan",
            "pdc-eta-missing", "cascade-alpha-inf", "cascade-alpha-negative",
            "cascade-alpha-above-bound", "cascade-alpha-eta-above-one", "cascade-zeta-zero", "etas-abc",
            "eta-decimal-comma", "eta-percent", "pdc-r0-interpolation",
        ],
    )
    def test_malformed_config_value_names_section_and_key(
        self, tmp_path, capsys, monkeypatch, config, argv, message
    ):
        write(tmp_path, "counts.csv", GOOD_CSV)
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "cfg.ini", config)
        out = str(tmp_path / "out")
        assert cli.main([*argv, "--config", str(path), "--output", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("sub", ["predict", "simulate", "analyze", "search"])
    def test_config_that_cannot_be_read_names_the_os_error(self, tmp_path, capsys, sub):
        counts = str(write(tmp_path, "counts.csv", GOOD_CSV))
        argv = {
            "predict": [],
            "simulate": ["--seed", "1", "--output", str(tmp_path / "out.csv")],
            "analyze": [counts],
            "search": [],
        }[sub]
        assert cli.main([sub, *argv, "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err, err

    @pytest.mark.parametrize("sub", ["simulate", "analyze", "predict", "search"])
    def test_output_below_a_file_is_an_input_error(self, tmp_path, capsys, config, sub):
        counts = str(write(tmp_path, "counts.csv", GOOD_CSV))
        argv = {
            "simulate": ["--config", config, "--seed", "1"],
            "analyze": [counts],
            "predict": ["--config", config],
            "search": ["--eta", "0.8"],
        }[sub]
        assert cli.main([sub, *argv, "--output", f"{counts}/x.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.json" in err

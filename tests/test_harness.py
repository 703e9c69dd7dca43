import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellkit import cli
from bellkit.experiments import PdcConfig, two_channel_rates
from bellkit.harness import (
    CANONICAL_PHI,
    AnalysisConfig,
    AnalysisReport,
    CountDataset,
    CountRow,
    DatasetError,
    TwoChannelCounts,
    emit_report,
    ingest_counts,
    load_config,
    render_report,
    run_analysis,
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
        assert capsys.readouterr().err == f"error: line 1: column '{repeated}' repeated\n"

    @pytest.mark.parametrize(
        "column, row",
        [
            ("n_mm", f"C,D,100,400,400,{10**400},2000,2000,1.0"),
            ("singles_a", f"C,D,100,400,400,100,{10**400},2000,1.0"),
        ],
        ids=["n_mm", "singles_a"],
    )
    def test_count_too_large_for_a_float_names_line_and_column(self, tmp_path, column, row):
        counts = DURATION_CSV.format(duration="1.0").replace("C,D,100,400,400,100,2000,2000,1.0", row)
        with pytest.raises(DatasetError, match=rf"^line 5: column {column} is too large"):
            ingest_counts(write(tmp_path, "big.csv", counts))

    def test_counts_just_below_the_bound_analyze(self):
        # four counts of 2**1021 - 1 still sum to a finite float
        big = 2**1021 - 1
        row = f"A,B,{big},{big},{big},{big}"
        ds = ingest_bytes(GOOD_CSV.replace("A,B,400,100,100,400", row).encode())
        report = run_analysis(ds, AnalysisConfig())
        assert report.pairs[0].n_total == 4 * big
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

    def test_non_integer_seed_names_line(self, tmp_path):
        with pytest.raises(DatasetError, match=r"line 1: seed 'abc' is not an integer"):
            ingest_counts(write(tmp_path, "bad.csv", "# seed=abc\n" + GOOD_CSV))

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
        assert tuple(dataclasses.replace(r, line=None) for r in back.rows) == ds.rows
        first = 2 if seed is None else 3
        assert [r.line for r in back.rows] == list(range(first, first + len(rows)))

    @given(body=st.binary(max_size=300) | FUZZED_CSV)
    def test_fuzzed_input_raises_only_dataset_or_value_errors(self, body):
        try:
            ds = ingest_bytes(body)
            render_report(run_analysis(ds, AnalysisConfig(r0=1e4)), "json")
        except ValueError:  # DatasetError is one
            pass

    def test_seed_comment_round_trip(self, tmp_path):
        ds = pdc_dataset(n=100)
        path = tmp_path / "synth.csv"
        ds.save(path)
        back = ingest_counts(path)
        assert back.seed == ds.seed
        assert back.rows[0].n_pp == ds.rows[0].n_pp


class TestRunAnalysis:
    def test_pdc_dataset_recovers_s_star(self):
        ds = pdc_dataset(v=0.95)
        report = run_analysis(ds, AnalysisConfig())
        expected = 2 * math.sqrt(2) * 0.95
        assert abs(report.s_star - expected) < 3 * report.s_err
        (verdict,) = report.verdicts
        assert verdict.name == "CHSH-star"
        assert verdict.violated and not verdict.genuine
        assert report.v_b == pytest.approx(report.s_star / (2 * math.sqrt(2)))
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


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        data = json.loads(path.read_text())
        assert AnalysisReport.from_json(data) == report

    def test_text_flags_non_genuine_inequality(self, tmp_path):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        path = tmp_path / "report.txt"
        emit_report(report, "text", path)
        text = path.read_text()
        assert "not a genuine Bell inequality" in text
        assert text.count("verdict") == len(report.verdicts)
        assert "plot data" in text

    def test_unknown_format(self, tmp_path):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, "xml", tmp_path / "report.xml")

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
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")


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
        from conftest import random_model

        model = random_model(rng)
        path = tmp_path / "model.json"
        model.save(path)
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

    @pytest.mark.parametrize("duration", ["0", "-2.5", "nan", "inf"])
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
            f"error: line 3: r0 = {v} times duration {v} expects {pairs} pairs, "
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
            f"error: line 2: 1000 coincidences exceed the {pairs} pairs that r0 = {float(r0)} "
            "times duration 1e-10 expects\n",
        )

    # sha256 digests of the reports as they stand; a change meant to keep
    # every output byte keeps them, one that alters a report re-pins them
    @pytest.mark.parametrize(
        "counts, config, verdicts, digest",
        [
            (GOOD_CSV, None, ["CHSH-star"],
             "8bdfe55d27ea467f0b28fa991e0a8d761f1ecef6822e3de2656ed5ba243e6049"),
            (DURATION_CSV.format(duration="1.0"), "[analysis]\nr0 = 10000\n", ["CHSH-star", "CH"],
             "2542c81d8ee92a00b5ddf0a2fa894c022fd9b7a087968982d79c4e90da042e20"),
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
        from conftest import random_model

        saved = tmp_path / "report.json"
        counts = write(tmp_path, "counts.csv", GOOD_CSV)
        assert cli.main(["analyze", str(counts), "--output", str(saved)]) == 0
        model = tmp_path / "model.json"
        random_model(rng).save(model)
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
        from conftest import random_model

        paths = {"config": config, "counts": str(write(tmp_path, "counts.csv", GOOD_CSV))}
        paths["report"] = str(tmp_path / "report.json")
        assert cli.main(["analyze", paths["counts"], "--output", paths["report"]]) == 0
        paths["model"] = str(tmp_path / "model.json")
        random_model(rng).save(paths["model"])
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

    def test_non_integer_seed_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "counts.csv", "# seed=abc\n" + GOOD_CSV)
        assert cli.main(["analyze", str(path)]) == 1
        assert "error: line 1: seed 'abc' is not an integer" in capsys.readouterr().err

    def test_singles_below_coincidences_names_pair_and_line(self, tmp_path, capsys):
        counts = DURATION_CSV.format(duration="1.0").replace(
            "A,B,400,100,100,400,2000", "A,B,400,100,100,400,10"
        )
        path = write(tmp_path, "counts.csv", counts)
        config = write(tmp_path, "cfg.ini", "[analysis]\nr0 = 10000\n")
        assert cli.main(["analyze", str(path), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: singles of setting pair (A, B)")
        assert "pAB = 0.04 exceeds marginal pA = 0.001" in err

    def test_count_too_large_for_a_float_exit_code(self, tmp_path, capsys):
        counts = GOOD_CSV.replace("C,D,100,400,400,100", f"C,D,100,400,400,{10**400}")
        path = write(tmp_path, "counts.csv", counts)
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 5: column n_mm is too large")

    def test_deeply_nested_saved_report_names_the_file(self, tmp_path, capsys):
        saved = write(tmp_path, "report.json", "[" * 100_000)
        assert cli.main(["report", str(saved)]) == 1
        assert capsys.readouterr().err == f"error: {saved}: JSON nested too deeply to read\n"

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
        "field, keys, value",
        [
            ("s_star", ("s_star",), "nan"),
            ("pairs[2].e_star", ("pairs", 2, "e_star"), "inf"),
            ("verdicts[0].lhs", ("verdicts", 0, "lhs"), "-inf"),
        ],
    )
    def test_non_finite_saved_report_names_the_field(
        self, tmp_path, capsys, fmt, field, keys, value
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
        assert err == f"error: report field {field} is {value}, not a finite number\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("pairs", 5, "field pairs must be a list, found 5"),
            ("verdicts", [1], "field verdicts[0] must be an object, found 1"),
            ("plot_data", None, "field plot_data must be a list, found null"),
            ("s_star", "2.5", 'field s_star must be a finite number, found "2.5"'),
            ("s", True, "field s must be a finite number or null, found true"),
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
                "field pairs[0].settings must hold 2 items, found 1",
            ),
            (
                lambda d: d["pairs"][3].update(n=2.5),
                "field pairs[3].n must be an integer, found 2.5",
            ),
            (
                lambda d: d["verdicts"][0].update(violated="no"),
                'field verdicts[0].violated must be true or false, found "no"',
            ),
            (
                lambda d: d["plot_data"][2].update(phi="pi/8"),
                'field plot_data[2].phi must be a finite number or null, found "pi/8"',
            ),
            (
                lambda d: d.update(v_b=10**400),
                "field v_b must be a finite number, found 1000000000",
            ),
        ],
        ids=["missing", "nested-missing", "short-list", "float-count", "string-bool",
             "string-angle", "huge-int"],
    )
    def test_saved_report_shape_is_checked_field_by_field(self, edit, message):
        report = run_analysis(pdc_dataset(n=1000), AnalysisConfig())
        data = json.loads(render_report(report, "json"))
        edit(data)
        with pytest.raises(ValueError) as exc:
            AnalysisReport.from_json(data)
        assert str(exc.value).startswith(message)

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
             "n_pairs = 99999999999999999999 outside [1, 2**63)"),
            (PDC + "r0 = nan\n", ["predict"], "[pdc] r0 = 'nan' is not a finite number"),
            ("[pdc]\nv = 0.9\nr0 = 2\n", ["predict"], "[pdc] eta is missing"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = inf\n", ["predict"],
             "[cascade] alpha = 'inf' is not a finite number"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = -1\n", ["predict"],
             "alpha = -1.0 must be finite and positive"),
            ("[cascade]\ntheta = 0.5\nzeta = 0.2\nalpha = 100\n", ["predict"],
             "alpha = 100.0 exceeds 96.10079530022739, the largest value at which "
             "no coincidence probability exceeds the singles"),
            ("[search]\netas = 0.8, abc\n", ["search"],
             "[search] etas = '0.8, abc' is not a list of finite numbers"),
            ("[search]\neta = 0,8\n", ["search"], "[search] eta = '0,8' is not a finite number"),
            ("[search]\neta = 80%\n", ["search"], "[search] eta = '80%' is not a finite number"),
            (PDC + "r0 = %(x)s\n", ["predict"], "[pdc] r0 = '%(x)s' is not a finite number"),
        ],
        ids=[
            "n_pairs-2.7", "n_pairs-abc", "n_pairs-1e6", "n_pairs-1e20", "pdc-r0-nan",
            "pdc-eta-missing", "cascade-alpha-inf", "cascade-alpha-negative",
            "cascade-alpha-above-bound", "etas-abc",
            "eta-decimal-comma", "eta-percent", "pdc-r0-interpolation",
        ],
    )
    def test_malformed_config_value_names_section_and_key(
        self, tmp_path, capsys, config, argv, message
    ):
        path = write(tmp_path, "cfg.ini", config)
        out = str(tmp_path / "out")
        assert cli.main([*argv, "--config", str(path), "--output", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

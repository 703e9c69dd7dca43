"""Dataset ingestion, analysis pipeline and report emission.

Counts come in as CSV (one row per setting pair), analysis produces the
renormalized correlations with first-order multinomial error propagation,
and every inequality verdict carries its genuine/auxiliary flag so a report
can never silently pass off a fair-sampling violation as a refutation of
local realism.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from .inequalities import (
    CANONICAL_PAIRS,
    CANONICAL_PHI,
    VERDICT_SCHEMA,
    InequalityReport,
    ProbabilitySet,
    TwoChannelCounts,
    ch_report,
    check_json,
    chsh_sum,
    renormalized_correlation,
    s_statistic,
    s_star_bound_visibility,
    write_text,
)

REQUIRED_COLUMNS = ("setting_a", "setting_b", "n_pp", "n_pm", "n_mp", "n_mm")
OPTIONAL_COLUMNS = ("singles_a", "singles_b", "duration")

# The analysis sums a row's four counts and computes in floats: below this
# bound each count, and the sum of four, is a finite float.
MAX_COUNT = 2**1021


class DatasetError(ValueError):
    """Malformed counts file or a dataset unusable for the analysis."""


@dataclass(frozen=True)
class CountRow:
    setting_a: str
    setting_b: str
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    singles_a: Optional[int] = None
    singles_b: Optional[int] = None
    duration: Optional[float] = None
    line: Optional[int] = None

    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def two_channel(self) -> TwoChannelCounts:
        return TwoChannelCounts(
            ppp=float(self.n_pp), ppm=float(self.n_pm), pmp=float(self.n_mp), pmm=float(self.n_mm)
        )


def _at_line(row: CountRow, message: str) -> str:
    return message if row.line is None else f"line {row.line}: {message}"


@dataclass(frozen=True)
class CountDataset:
    rows: tuple[CountRow, ...]
    seed: Optional[int] = None
    source_digest: Optional[str] = None

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.setting_a, row.setting_b)
            if key in seen:
                raise DatasetError(_at_line(row, f"duplicate setting pair {key}"))
            seen.add(key)

    def row(self, setting_a: str, setting_b: str) -> CountRow:
        for r in self.rows:
            if (r.setting_a, r.setting_b) == (setting_a, setting_b):
                return r
        raise KeyError(f"no row for setting pair ({setting_a}, {setting_b})")

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.seed is not None:
            buf.write(f"# seed={self.seed}\n")
        has_singles = any(r.singles_a is not None or r.singles_b is not None for r in self.rows)
        has_duration = any(r.duration is not None for r in self.rows)
        columns = list(REQUIRED_COLUMNS)
        if has_singles:
            columns += ["singles_a", "singles_b"]
        if has_duration:
            columns += ["duration"]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in self.rows:
            record = [r.setting_a, r.setting_b, r.n_pp, r.n_pm, r.n_mp, r.n_mm]
            if has_singles:
                record += [r.singles_a if r.singles_a is not None else "",
                           r.singles_b if r.singles_b is not None else ""]
            if has_duration:
                record += [r.duration if r.duration is not None else ""]
            writer.writerow(record)
        return buf.getvalue()

    def save(self, path) -> None:
        """Write to_csv() to path through write_text: UTF-8, in place."""
        write_text(path, self.to_csv())


def _parse_count(value: str, column: str, line_no: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise DatasetError(f"line {line_no}: column {column} is not an integer: {value!r}") from None
    if n < 0:
        raise DatasetError(f"line {line_no}: column {column} is negative: {n}")
    if n >= MAX_COUNT:
        raise DatasetError(
            f"line {line_no}: column {column} is too large for a float analysis: "
            f"{len(str(n))} digits, not below 2**1021"
        )
    return n


def ingest_counts(path) -> CountDataset:
    """Parse a counts CSV, keeping line provenance for every error.

    Lines starting with '#' are comments; a '# seed=N' comment records the
    generator seed of a synthetic dataset.  Other lines are CSV records as
    csv.writer quotes them; surrounding whitespace of a field is dropped.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    seed: Optional[int] = None
    header: Optional[list[str]] = None
    rows: list[CountRow] = []
    # utf-8-sig drops the byte-order mark Excel writes at the start of a
    # "CSV UTF-8" file; the digest stays over the bytes as read
    lines = io.StringIO(raw.decode("utf-8-sig"), newline="")
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("seed="):
                value = body[len("seed="):]
                try:
                    seed = int(value)
                except ValueError:
                    raise DatasetError(
                        f"line {line_no}: seed {value!r} is not an integer"
                    ) from None
            continue
        try:
            cells = [c.strip() for c in next(csv.reader([stripped], strict=True))]
        except csv.Error as exc:
            raise DatasetError(f"line {line_no}: malformed CSV record: {exc}") from None
        if header is None:
            header = cells
            for col in REQUIRED_COLUMNS:
                if col not in header:
                    raise DatasetError(f"line {line_no}: missing required column {col!r}")
            for i, col in enumerate(header):
                if col not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
                    raise DatasetError(f"line {line_no}: unknown column {col!r}")
                if col in header[:i]:
                    raise DatasetError(f"line {line_no}: column {col!r} repeated")
            continue
        if len(cells) != len(header):
            raise DatasetError(
                f"line {line_no}: expected {len(header)} fields, found {len(cells)}"
            )
        record = dict(zip(header, cells))
        counts = {c: _parse_count(record[c], c, line_no) for c in REQUIRED_COLUMNS[2:]}
        singles_a = singles_b = None
        duration = None
        if record.get("singles_a", "") != "":
            singles_a = _parse_count(record["singles_a"], "singles_a", line_no)
        if record.get("singles_b", "") != "":
            singles_b = _parse_count(record["singles_b"], "singles_b", line_no)
        if record.get("duration", "") != "":
            try:
                duration = float(record["duration"])
            except ValueError:
                raise DatasetError(f"line {line_no}: column duration is not a number") from None
            if not (math.isfinite(duration) and duration > 0):
                raise DatasetError(
                    f"line {line_no}: column duration must be finite and positive: {duration}"
                )
        rows.append(
            CountRow(
                setting_a=record["setting_a"],
                setting_b=record["setting_b"],
                n_pp=counts["n_pp"],
                n_pm=counts["n_pm"],
                n_mp=counts["n_mp"],
                n_mm=counts["n_mm"],
                singles_a=singles_a,
                singles_b=singles_b,
                duration=duration,
                line=line_no,
            )
        )
    if header is None:
        raise DatasetError("empty file: no header row")
    return CountDataset(rows=tuple(rows), seed=seed, source_digest=digest)


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis options.

    r0: pair production rate; together with per-row durations it converts
    counts into absolute probabilities, enabling the genuine CH test.  The
    plot block takes each pair's angle from CANONICAL_PHI, and the saved
    config lists those angles.
    """

    r0: Optional[float] = None

    def __post_init__(self):
        if self.r0 is not None and not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 = {self.r0} must be finite and positive")

    def to_json(self) -> dict:
        return {
            "r0": self.r0,
            "angles": {f"{x},{y}": phi for (x, y), phi in sorted(CANONICAL_PHI.items())},
        }


@dataclass(frozen=True)
class PairStats:
    setting_a: str
    setting_b: str
    n_total: int
    e_star: float
    err: float
    e: Optional[float] = None  # plain correlation; needs absolute normalization

    def to_json(self) -> dict:
        return {
            "settings": [self.setting_a, self.setting_b],
            "n": self.n_total,
            "e": self.e,
            "e_star": self.e_star,
            "err": self.err,
        }


def _reject_non_finite(value, path: str) -> None:
    """Raise ValueError naming the first NaN or infinite number in a loaded
    report (json.load accepts them), e.g. at field pairs[2].e_star."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"report field {path} is {value}, not a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{k}]")


# The fields of a saved report, in the check_json schema form.
REPORT_SCHEMA = {
    "pairs": [
        {"settings": [str, str], "n": int, "e": (float, None), "e_star": float, "err": float}
    ],
    "s": (float, None),
    "s_star": float,
    "s_err": float,
    "v_b": float,
    "verdicts": [VERDICT_SCHEMA],
    "plot_data": [{"phi": (float, None), "e_star": float, "err": float}],
    "provenance": dict,
}


@dataclass(frozen=True)
class AnalysisReport:
    pairs: tuple[PairStats, ...]
    s: Optional[float]
    s_star: float
    s_err: float
    v_b: float
    verdicts: tuple[InequalityReport, ...]
    plot_data: tuple[dict, ...]
    provenance: dict

    def to_json(self) -> dict:
        body = {
            "pairs": [p.to_json() for p in self.pairs],
            "s": self.s,
            "s_star": self.s_star,
            "s_err": self.s_err,
            "v_b": self.v_b,
            "verdicts": [v.to_json() for v in self.verdicts],
            "plot_data": list(self.plot_data),
            "provenance": dict(self.provenance),
        }
        return body

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisReport":
        _reject_non_finite(data, "")
        check_json(data, REPORT_SCHEMA, "")
        pairs = tuple(
            PairStats(
                setting_a=p["settings"][0],
                setting_b=p["settings"][1],
                n_total=p["n"],
                e_star=p["e_star"],
                err=p["err"],
                e=p["e"],
            )
            for p in data["pairs"]
        )
        return cls(
            pairs=pairs,
            s=data["s"],
            s_star=data["s_star"],
            s_err=data["s_err"],
            v_b=data["v_b"],
            verdicts=tuple(InequalityReport.from_json(v) for v in data["verdicts"]),
            plot_data=tuple(data["plot_data"]),
            provenance=dict(data["provenance"]),
        )


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run_analysis(ds: CountDataset, cfg: AnalysisConfig) -> AnalysisReport:
    """Correlations, CHSH statistics and inequality verdicts for a dataset.

    Always evaluates the renormalized statistic S* (non-genuine, needs the
    fair-sampling assumption).  When cfg.r0 is declared and rows carry
    durations and +-channel singles, additionally evaluates the genuine CH
    test on absolute probabilities.  With cfg.r0 declared, a row whose
    r0 * duration is not finite and positive, or is below the row's
    coincidence count, is a DatasetError naming its line.
    """
    if not ds.rows:
        raise DatasetError("empty dataset")
    rows = {}
    for x, y in CANONICAL_PAIRS:
        try:
            rows[(x, y)] = ds.row(x, y)
        except KeyError:
            raise DatasetError(f"dataset lacks canonical setting pair ({x}, {y})") from None

    pair_stats = []
    absolute_ok = cfg.r0 is not None and all(row.duration is not None for row in rows.values())
    # pairs expected over each row's duration: the absolute normalization
    n0 = {pair: cfg.r0 * row.duration for pair, row in rows.items()} if absolute_ok else {}
    for pair, n in n0.items():
        if not (math.isfinite(n) and n > 0):
            message = f"r0 = {cfg.r0} times duration {rows[pair].duration} expects {n} pairs"
            raise DatasetError(_at_line(rows[pair], f"{message}, not a finite positive number"))
    for (x, y), row in rows.items():
        n = row.total()
        if n == 0:
            raise DatasetError(
                _at_line(row, f"zero total coincidences for setting pair ({x}, {y})")
            )
        e_star = renormalized_correlation(row.two_channel())
        # first-order multinomial error on a +/-1 outcome mean over n events
        err = math.sqrt(max(0.0, 1.0 - e_star * e_star) / n)
        e_abs = None
        if absolute_ok:
            # a pair gives at most one coincidence; more would put |e| above 1
            if n > n0[(x, y)]:
                expected = f"r0 = {cfg.r0} times duration {row.duration} expects"
                message = f"{n} coincidences exceed the {n0[(x, y)]} pairs that {expected}"
                raise DatasetError(_at_line(row, message))
            e_abs = (row.n_pp + row.n_mm - row.n_pm - row.n_mp) / n0[(x, y)]
        pair_stats.append(
            PairStats(setting_a=x, setting_b=y, n_total=n, e_star=e_star, err=err, e=e_abs)
        )

    # pair_stats is in CANONICAL_PAIRS order, the argument order of both sums
    star_verdict = s_statistic(*(p.e_star for p in pair_stats), renormalized=True)
    s_star = star_verdict.lhs
    s_err = math.sqrt(sum(p.err * p.err for p in pair_stats))
    verdicts = [star_verdict]

    s_abs = None
    if absolute_ok:
        s_abs = chsh_sum(*(p.e for p in pair_stats))
        # p(A) and p(B) are the singles of the first pair, (A, B)
        row_ab, n_ab = rows[CANONICAL_PAIRS[0]], n0[CANONICAL_PAIRS[0]]
        if row_ab.singles_a is not None and row_ab.singles_b is not None:
            try:
                ps = ProbabilitySet(
                    pA=row_ab.singles_a / n_ab,
                    pB=row_ab.singles_b / n_ab,
                    **{f"p{x}{y}": row.n_pp / n0[(x, y)] for (x, y), row in rows.items()},
                )
            except ValueError as exc:
                raise DatasetError(
                    _at_line(
                        row_ab,
                        f"singles of setting pair (A, B) and the coincidences at r0 = {cfg.r0} "
                        f"give no valid CH probability set: {exc}",
                    )
                ) from None
            verdicts.append(ch_report(ps))

    plot_data = tuple(
        {
            "phi": CANONICAL_PHI[(p.setting_a, p.setting_b)],
            "e_star": p.e_star,
            "err": p.err,
        }
        for p in pair_stats
    )

    provenance = {
        "input_digest": ds.source_digest,
        "seed": ds.seed,
        "config": cfg.to_json(),
    }
    report = AnalysisReport(
        pairs=tuple(pair_stats),
        s=s_abs,
        s_star=s_star,
        s_err=s_err,
        v_b=s_star_bound_visibility(s_star),
        verdicts=tuple(verdicts),
        plot_data=plot_data,
        provenance=provenance,
    )
    return report


def _verdict_line(v: InequalityReport) -> str:
    status = "VIOLATED" if v.violated else "fulfilled"
    if v.genuine:
        flag = "genuine Bell inequality"
    else:
        flag = "not a genuine Bell inequality (auxiliary assumption required)"
    return f"verdict {v.name}: lhs {v.lhs:.6f} vs rhs {v.rhs:.6f}: {status}; {flag}"


def render_report(report: AnalysisReport, format: str) -> str:
    """Serialize a report; 'json' round-trips losslessly, 'text' is for
    human reading and carries one verdict line per inequality."""
    if format == "json":
        body = report.to_json()
        digest = hashlib.sha256(_canonical_json(body).encode()).hexdigest()
        body["digest"] = digest
        body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if format == "text":
        lines = ["coincidence analysis"]
        for p in report.pairs:
            prefix = f"pair {p.setting_a},{p.setting_b}:"
            lines.append(f"{prefix} E* = {p.e_star:+.6f} +/- {p.err:.6f} (n = {p.n_total})")
        lines.append(f"S* = {report.s_star:.6f} +/- {report.s_err:.6f}")
        if report.s is not None:
            lines.append(f"S (absolute) = {report.s:.6g}")
        lines.append(f"V_B = {report.v_b:.6f}")
        for v in report.verdicts:
            lines.append(_verdict_line(v))
        lines.append("plot data (phi, e_star, err):")
        for point in report.plot_data:
            phi = point["phi"]
            phi_text = f"{phi:+.6f}" if phi is not None else "n/a"
            lines.append(f"  {phi_text}, {point['e_star']:+.6f}, {point['err']:.6f}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}; use 'json' or 'text'")


def emit_report(report: AnalysisReport, format: str, path) -> None:
    """Write render_report(report, format) to path through write_text."""
    write_text(path, render_report(report, format))


def load_config(path) -> dict[str, dict[str, str]]:
    """Read the [section] key = value configuration file.

    Values stay the strings the file holds; each reader converts the keys
    it uses.
    """
    # no interpolation: a value holding "%" reaches its reader, which names
    # [section] key when it is malformed
    parser = configparser.ConfigParser(interpolation=None)
    # utf-8-sig drops the byte-order mark an editor may write at the start
    if not parser.read(path, encoding="utf-8-sig"):
        raise FileNotFoundError(f"config file not found: {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}

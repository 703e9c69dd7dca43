"""Dataset ingestion, analysis pipeline and report emission.

Counts come in as CSV (one row per setting pair), analysis produces the
renormalized correlations with first-order multinomial error propagation,
and every inequality verdict carries its genuine/auxiliary flag so a report
can never silently pass off a fair-sampling violation as a refutation of
local realism.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from .inequalities import (
    CANONICAL_ANGLES,
    CANONICAL_PAIRS,
    CANONICAL_PHI,
    PAIR_TOL,
    TSIRELSON_BOUND,
    VERDICT_SCHEMA,
    InequalityReport,
    ProbabilitySet,
    TwoChannelCounts,
    ch_report,
    check_json,
    chsh_sum,
    renormalized_correlation,
    s_statistic,
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


def _decode_utf8(raw: bytes, where: str, error=ValueError) -> str:
    """raw as text, less a leading UTF-8 byte-order mark.  A byte that is not
    UTF-8 raises error naming where and its line, counted as open() counts
    lines: a line ends at \\n, \\r\\n or a lone \\r."""
    body = raw.removeprefix(codecs.BOM_UTF8)
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at exactly those three endings
        line = len((body[:exc.start] + b".").splitlines())
        raise error(f"{where}line {line}: not valid UTF-8 (byte 0x{body[exc.start]:02x})") from None


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
    # _decode_utf8 drops the byte-order mark Excel writes at the start of a
    # "CSV UTF-8" file; the digest stays over the bytes as read
    lines = io.StringIO(_decode_utf8(raw, "", DatasetError), newline="")
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
        for c in ("singles_a", "singles_b"):
            if record.get(c, "") != "":
                counts[c] = _parse_count(record[c], c, line_no)
        duration = None
        if record.get("duration", "") != "":
            try:
                duration = float(record["duration"])
            except ValueError:
                raise DatasetError(f"line {line_no}: column duration is not a number") from None
            if not (math.isfinite(duration) and duration > 0):
                raise DatasetError(
                    f"line {line_no}: column duration must be finite and positive: {duration}"
                )
        rows.append(CountRow(record["setting_a"], record["setting_b"], **counts,
                             duration=duration, line=line_no))
    if header is None:
        raise DatasetError("empty file: no header row")
    return CountDataset(rows=tuple(rows), seed=seed, source_digest=digest)


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis options.

    r0: pair production rate; together with per-row durations it converts
    counts into absolute probabilities, enabling the genuine CH test.  The
    saved config lists the CANONICAL_PHI angles the plot block uses.
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
    n_total: int
    e_star: float
    e: Optional[float] = None  # plain correlation; needs absolute normalization

    @property
    def err(self) -> float:
        # first-order multinomial error on a +/-1 outcome mean over n events
        return math.sqrt(max(0.0, 1.0 - self.e_star * self.e_star) / self.n_total)

    def to_json(self) -> dict:
        return {
            "n": self.n_total,
            "e": self.e,
            "e_star": self.e_star,
            "err": self.err,
        }


# The fields of a saved report, in the check_json schema form: four pairs,
# in CANONICAL_PAIRS order.  Only pairs, the CH verdict's lhs and rhs, and
# provenance are read; every other field is checked on load, then recomputed.
REPORT_SCHEMA = {
    "pairs": [{"settings": [str, str], "n": int, "e": (float, None), "e_star": float,
               "err": float}] * len(CANONICAL_PAIRS),
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
    """The pairs measured, in CANONICAL_PAIRS order, the CH verdict when the
    counts were absolutely normalized, and their provenance; S, S*, its error
    and the verdicts follow from these."""

    pairs: tuple[PairStats, ...]
    ch: Optional[InequalityReport]
    provenance: dict

    @property
    def s(self) -> Optional[float]:
        es = [p.e for p in self.pairs]
        return None if None in es else chsh_sum(*es)

    @property
    def s_star(self) -> float:
        return self.verdicts[0].lhs

    @property
    def s_err(self) -> float:
        return math.sqrt(sum(p.err * p.err for p in self.pairs))

    @property
    def verdicts(self) -> tuple[InequalityReport, ...]:
        star = s_statistic(*(p.e_star for p in self.pairs), renormalized=True)
        return (star,) if self.ch is None else (star, self.ch)

    def to_json(self) -> dict:
        pairs = [{"settings": list(pair), **p.to_json()}
                 for pair, p in zip(CANONICAL_PAIRS, self.pairs)]
        verdicts = self.verdicts
        return {
            "pairs": pairs,
            "s": self.s,
            "s_star": verdicts[0].lhs,
            "s_err": self.s_err,
            "v_b": verdicts[0].lhs / TSIRELSON_BOUND,
            "verdicts": [v.to_json() for v in verdicts],
            "plot_data": [{"phi": phi, "e_star": p["e_star"], "err": p["err"]}
                          for phi, p in zip(CANONICAL_ANGLES, pairs)],
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisReport":
        """The report a saved one holds, refused unless run_analysis could
        have written its pairs and some ProbabilitySet gives its CH sides."""
        check_json(data, REPORT_SCHEMA, "")
        # run_analysis writes all four e or none
        no_e = data["pairs"][0]["e"] is None
        all_e = f"{'null' if no_e else 'a number'}, as pairs[0].e is"
        pairs = []
        for k, (p, pair) in enumerate(zip(data["pairs"], CANONICAL_PAIRS)):
            for key, ok, expected in [
                ("settings", p["settings"] == list(pair), '["{}", "{}"]'.format(*pair)),
                ("n", 1 <= p["n"] < 4 * MAX_COUNT, "in [1, 2**1023)"),
                ("e_star", abs(p["e_star"]) <= 1.0 + PAIR_TOL, "in [-1, 1]"),
                ("e", p["e"] is None or abs(p["e"]) <= 1.0 + PAIR_TOL, "in [-1, 1]"),
                ("e", (p["e"] is None) == no_e, all_e),
            ]:
                if not ok:
                    found = json.dumps(p[key])[:40]
                    raise ValueError(f"field pairs[{k}].{key} must be {expected}, found {found}")
            pairs.append(PairStats(n_total=p["n"], e_star=p["e_star"], e=p["e"]))
        # run_analysis writes the CHSH-star verdict, then the CH verdict when
        # the counts were absolutely normalized, which also gives each e
        names = [v["name"] for v in data["verdicts"]]
        if names != ["CHSH-star"] and (no_e or names != ["CHSH-star", "CH"]):
            expected = ", as pairs[0].e is null" if no_e else ' or ["CHSH-star", "CH"]'
            found = json.dumps(names)[:80]
            raise ValueError(f'field verdicts must be named ["CHSH-star"]{expected}, found {found}')
        ch = None
        if len(names) == 2:
            v = data["verdicts"][1]
            # the range of each side over every ProbabilitySet, whose six
            # values each lie in [-PAIR_TOL, 1 + PAIR_TOL]
            for key, low, high, terms in (("lhs", -1, 3, 4), ("rhs", 0, 2, 2)):
                if not low - terms * PAIR_TOL <= v[key] <= high + terms * PAIR_TOL:
                    found = json.dumps(v[key])[:40]
                    raise ValueError(
                        f"field verdicts[1].{key} must be in [{low}, {high}], found {found}"
                    )
            ch = InequalityReport("CH", v["lhs"], v["rhs"])
        return cls(tuple(pairs), ch, dict(data["provenance"]))


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
            raise DatasetError(_at_line(row, f"zero total coincidences for setting pair ({x}, {y})"))
        e_abs = None
        if absolute_ok:
            # a pair gives at most one coincidence; more would put |e| above 1
            if n > n0[(x, y)]:
                expected = f"r0 = {cfg.r0} times duration {row.duration} expects"
                message = f"{n} coincidences exceed the {n0[(x, y)]} pairs that {expected}"
                raise DatasetError(_at_line(row, message))
            e_abs = (row.n_pp + row.n_mm - row.n_pm - row.n_mp) / n0[(x, y)]
        tc = TwoChannelCounts(*map(float, (row.n_pp, row.n_pm, row.n_mp, row.n_mm)))
        pair_stats.append(PairStats(n_total=n, e_star=renormalized_correlation(tc), e=e_abs))

    ch = None
    if absolute_ok:
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
            ch = ch_report(ps)

    provenance = {"input_digest": ds.source_digest, "seed": ds.seed, "config": cfg.to_json()}
    return AnalysisReport(pairs=tuple(pair_stats), ch=ch, provenance=provenance)


def _verdict_line(v: dict) -> str:
    status = "VIOLATED" if v["violated"] else "fulfilled"
    if v["genuine"]:
        flag = "genuine Bell inequality"
    else:
        flag = "not a genuine Bell inequality (auxiliary assumption required)"
    return f"verdict {v['name']}: lhs {v['lhs']:.6f} vs rhs {v['rhs']:.6f}: {status}; {flag}"


def render_report(report: AnalysisReport, format: str) -> str:
    """Serialize a report; 'json' round-trips losslessly, 'text' is for
    human reading and carries one verdict line per inequality."""
    body = report.to_json()
    if format == "json":
        body["digest"] = hashlib.sha256(_canonical_json(body).encode()).hexdigest()
        body["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if format == "text":
        lines = ["coincidence analysis"]
        for p in body["pairs"]:
            x, y = p["settings"]
            lines.append(f"pair {x},{y}: E* = {p['e_star']:+.6f} +/- {p['err']:.6f} (n = {p['n']})")
        lines.append(f"S* = {body['s_star']:.6f} +/- {body['s_err']:.6f}")
        if body["s"] is not None:
            lines.append(f"S (absolute) = {body['s']:.6g}")
        lines.append(f"V_B = {body['v_b']:.6f}")
        lines.extend(_verdict_line(v) for v in body["verdicts"])
        lines.append("plot data (phi, e_star, err):")
        for point in body["plot_data"]:
            lines.append(f"  {point['phi']:+.6f}, {point['e_star']:+.6f}, {point['err']:.6f}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}; use 'json' or 'text'")


def load_config(path) -> dict[str, dict[str, str]]:
    """Read the [section] key = value configuration file.

    The grammar is the part of INI that configparser, without interpolation,
    reads the same way: blank lines; whole-line comments starting with '#'
    or ';', indented or not; '[name]' headers, the name as written between
    the brackets; 'key = value' or 'key: value' lines, split at the first
    '=' or ':', with the key stripped and lower-cased and the value stripped
    and kept as written, '%' and '#' included.  Any other line is a
    ValueError naming the file and the line: a key before the first header,
    a line with no '=' or ':' or with an empty key, an indented line (a
    multi-line value), a repeated section or key, an empty header name,
    text after a header's ']', and [DEFAULT], whose keys configparser would
    copy into every section.

    Values stay the strings the file holds; each reader converts the keys
    it uses.  A missing file is a FileNotFoundError naming it; any other
    file that cannot be read raises the OSError of open(), and one that is
    not UTF-8 a ValueError naming the file and the line.
    """
    cfg: dict[str, dict[str, str]] = {}
    section = None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    # _decode_utf8 drops the byte-order mark an editor may write at the
    # start; newline=None splits and numbers lines as open() in text mode does
    text = _decode_utf8(raw, f"{path}, ")
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            problem = "indented line; a value must fit on its key's line"
        elif stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]":
                problem = "a section header must end with ']'"
            elif not name.strip():
                problem = "empty section name"
            elif name == "DEFAULT":
                problem = "[DEFAULT] section; give each section its own keys"
            elif name in cfg:
                problem = f"section [{name}] repeated"
            else:
                section = cfg[name] = {}
                continue
        else:
            raw_key = stripped.split("=", 1)[0].split(":", 1)[0]
            key = raw_key.strip().lower()
            if section is None:
                problem = "line before the first [section] header"
            elif raw_key == stripped or not key:
                problem = "expected key = value or key: value"
            elif key in section:
                problem = f"key {key} repeated in [{name}]"
            else:
                section[key] = stripped[len(raw_key) + 1:].strip()
                continue
        raise ValueError(f"{path}, line {line_no}: {problem}")
    return cfg

"""Dataset ingestion, analysis pipeline and report emission.

Counts come in as CSV (one row per setting pair): ingest_counts reads the
file and its digest, and inequalities, which owns the counts format, parses
the text into a CountDataset.  Analysis produces the renormalized
correlations with first-order multinomial error propagation, and every
inequality verdict carries its genuine/auxiliary flag so a report can never
silently pass off a fair-sampling violation as a refutation of local
realism.

run_analysis is the one path to an AnalysisReport: a saved report stores
each pair's counts, and AnalysisReport.from_json runs it on them again.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .inequalities import (
    CANONICAL_ANGLES,
    CANONICAL_PAIRS,
    CANONICAL_PHI,
    COUNT_COLUMNS,
    TSIRELSON_BOUND,
    CountDataset,
    CountRow,
    DatasetError,
    InequalityReport,
    ProbabilitySet,
    _at_line,
    _has_json_type,
    _parse_counts_csv,
    ch_report,
    check_json,
    chsh_sum,
    s_star_report,
)


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


def ingest_counts(path) -> CountDataset:
    """Read a counts CSV, keeping line provenance for every error.

    The dataset records the SHA-256 digest of the bytes as read; the text
    format is inequalities', which parses it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # _decode_utf8 drops the byte-order mark Excel writes at the start of a
    # "CSV UTF-8" file; the digest stays over the bytes as read
    text = _decode_utf8(raw, "", DatasetError)
    return _parse_counts_csv(text, hashlib.sha256(raw).hexdigest())


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis options.

    r0: pair production rate; together with per-row durations it converts
    counts into absolute probabilities, enabling the genuine CH test.  The
    saved config lists the CANONICAL_PHI angles the plot block uses.
    """

    r0: Optional[float] = None

    def __post_init__(self):
        if self.r0 is not None and not (_has_json_type(self.r0, float) and self.r0 > 0):
            raise ValueError(f"r0 = {self.r0!r} must be finite and positive")

    def to_json(self) -> dict:
        return {
            "r0": self.r0,
            "angles": {f"{x},{y}": phi for (x, y), phi in sorted(CANONICAL_PHI.items())},
        }


@dataclass(frozen=True)
class PairStats:
    """The counts of one setting pair, and n0, the pairs expected over its
    duration (r0 times duration) when the counts are absolutely normalized."""

    row: CountRow
    n0: Optional[float] = None

    @property
    def n(self) -> int:
        return self.row.total()

    @cached_property
    def e_star(self) -> float:
        # the integer quotient, correctly rounded however large the counts
        r = self.row
        return (r.n_pp + r.n_mm - r.n_pm - r.n_mp) / self.n

    @property
    def e(self) -> Optional[float]:
        r = self.row
        return None if self.n0 is None else (r.n_pp + r.n_mm - r.n_pm - r.n_mp) / self.n0

    @cached_property
    def err(self) -> float:
        # first-order multinomial error on a +/-1 outcome mean over n events
        return math.sqrt(max(0.0, 1.0 - self.e_star * self.e_star) / self.n)

    def to_json(self) -> dict:
        r = self.row
        counts = {c: getattr(r, c) for c in COUNT_COLUMNS}
        return {"settings": [r.setting_a, r.setting_b], **counts, "n": self.n, "e": self.e,
                "e_star": self.e_star, "err": self.err}


# What AnalysisReport.from_json reads of a saved report, in the check_json
# schema form: four pairs' counts, in CANONICAL_PAIRS order, and provenance.
REPORT_SCHEMA = {
    "pairs": [{**dict.fromkeys(COUNT_COLUMNS[:4], int), "singles_a": (int, None),
               "singles_b": (int, None), "duration": (float, None)}] * len(CANONICAL_PAIRS),
    "provenance": {"input_digest": (str, None), "seed": (int, None),
                   "config": {"r0": (float, None)}},
}


@dataclass(frozen=True)
class AnalysisReport:
    """The pairs measured, in CANONICAL_PAIRS order, and their provenance;
    S, S*, its error and the verdicts follow from these."""

    pairs: tuple[PairStats, ...]
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

    @cached_property
    def verdicts(self) -> tuple[InequalityReport, ...]:
        """CHSH-star's verdict, then CH's when the pairs are absolutely
        normalized and (A, B) has singles: ProbabilitySet's ValueError if
        the CH probabilities are not a valid set."""
        star = s_star_report([p.row for p in self.pairs])
        # p(A) and p(B) are the singles of the first pair, (A, B)
        ab, n_ab = self.pairs[0].row, self.pairs[0].n0
        if n_ab is None or ab.singles_a is None or ab.singles_b is None:
            return (star,)
        ps = ProbabilitySet(
            pA=ab.singles_a / n_ab,
            pB=ab.singles_b / n_ab,
            **{f"p{p.row.setting_a}{p.row.setting_b}": p.row.n_pp / p.n0 for p in self.pairs},
        )
        return (star, ch_report(ps))

    def to_json(self) -> dict:
        pairs = [p.to_json() for p in self.pairs]
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
        """The report run_analysis makes from the REPORT_SCHEMA fields of a
        saved report; a ValueError names the first of them that is missing,
        mistyped or out of range, or else the first field to_json writes
        that the saved report holds differently."""
        try:
            pairs, provenance = data["pairs"], data["provenance"]
            rows = tuple(CountRow(x, y, **{c: pairs[k][c] for c in COUNT_COLUMNS},
                                  where=f"field pairs[{k}]")
                         for k, (x, y) in enumerate(CANONICAL_PAIRS))
            ds = CountDataset(rows, provenance["seed"], provenance["input_digest"])
            cfg = AnalysisConfig(r0=provenance["config"]["r0"])
        except (LookupError, TypeError, ValueError) as exc:
            # the schema names a missing or mistyped field, a DatasetError
            # the pair of a count out of range; what remains is r0's range
            check_json(data, REPORT_SCHEMA)
            if isinstance(exc, DatasetError):
                raise
            raise ValueError(f"field provenance.config: {exc}") from None
        report = run_analysis(ds, cfg)
        check_json(data, report.to_json(), "as the stored counts give")
        return report


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run_analysis(ds: CountDataset, cfg: AnalysisConfig) -> AnalysisReport:
    """Correlations, CHSH statistics and inequality verdicts for a dataset.

    Always evaluates the renormalized statistic S* (non-genuine, needs the
    fair-sampling assumption).  When cfg.r0 is declared and rows carry
    durations and +-channel singles, additionally evaluates the genuine CH
    test on absolute probabilities.  With cfg.r0 declared, a row whose
    r0 * duration is not finite and positive, or is below the row's
    coincidence count, is a DatasetError naming its line; so are singles of
    (A, B) that make no valid CH probability set, found by computing the
    verdicts here.
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
        # a pair gives at most one coincidence; more would put |e| above 1
        if absolute_ok and n > n0[(x, y)]:
            expected = f"r0 = {cfg.r0} times duration {row.duration} expects"
            message = f"{n} coincidences exceed the {n0[(x, y)]} pairs that {expected}"
            raise DatasetError(_at_line(row, message))
        pair_stats.append(PairStats(row, n0.get((x, y))))

    provenance = {"input_digest": ds.source_digest, "seed": ds.seed, "config": cfg.to_json()}
    report = AnalysisReport(pairs=tuple(pair_stats), provenance=provenance)
    try:
        report.verdicts
    except ValueError as exc:
        message = (f"singles of setting pair (A, B) and the coincidences at r0 = {cfg.r0} "
                   f"give no valid CH probability set: {exc}")
        raise DatasetError(_at_line(rows[CANONICAL_PAIRS[0]], message)) from None
    return report


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

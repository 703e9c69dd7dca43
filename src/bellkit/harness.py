"""Dataset ingestion, analysis pipeline and report emission.

Counts come in as CSV (one row per setting pair): ingest_counts reads the
file and its digest, and inequalities, which owns the counts format, parses
the text into a CountDataset.  Analysis produces the renormalized
correlations with first-order multinomial error propagation, and every
inequality verdict carries its genuine/auxiliary flag so a report can never
silently pass off a fair-sampling violation as a refutation of local
realism.

An AnalysisReport is the counts of the four canonical pairs, with the
input's seed and digest, and the config; every figure it reports follows
from these.  Its constructor is the one path to one, and checks them: so
run_analysis, AnalysisReport.from_json, which reads the counts and config a
saved report stores, and dataclasses.replace all build checked reports.
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
        if self.r0 is not None:  # an int r0 renders as the float it equals
            object.__setattr__(self, "r0", float(self.r0))

    def to_json(self) -> dict:
        return {
            "r0": self.r0,
            "angles": {f"{x},{y}": phi for (x, y), phi in sorted(CANONICAL_PHI.items())},
        }


def _over(count: int, n0: float) -> float:
    """count / n0 correctly rounded: the int is not rounded to a float first."""
    num, den = n0.as_integer_ratio()
    return count * den / num


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
    """The counts measured, as the rows of the four CANONICAL_PAIRS in order
    with the input's seed and digest, and the config they are analyzed under;
    n0, each pair's statistics, S, S*, its error and the verdicts follow
    from these.  The constructor keeps those rows of the dataset given.  It
    refuses with a DatasetError an empty dataset, one lacking a canonical
    pair, and, naming the row's line, an r0 * duration not finite and
    positive, a pair of no coincidences or of more than r0 * duration, and
    singles of (A, B) that make no valid CH probability set."""

    dataset: CountDataset
    config: AnalysisConfig

    def __post_init__(self):
        ds, r0 = self.dataset, self.config.r0
        if not ds.rows:
            raise DatasetError("empty dataset")
        rows = []
        for x, y in CANONICAL_PAIRS:
            try:
                rows.append(ds.row(x, y))
            except KeyError:
                raise DatasetError(f"dataset lacks canonical setting pair ({x}, {y})") from None
        object.__setattr__(self, "dataset", CountDataset(tuple(rows), ds.seed, ds.source_digest))
        # every r0 * duration is checked before any pair's coincidences
        for row, n in zip(rows, self.n0 or ()):
            if not (math.isfinite(n) and n > 0):
                message = f"r0 = {r0} times duration {row.duration} expects {n} pairs"
                raise DatasetError(_at_line(row, f"{message}, not a finite positive number"))
        for (x, y), row, expected_pairs in zip(CANONICAL_PAIRS, rows, self.n0 or (None,) * 4):
            n = row.total()
            if n == 0:
                message = f"zero total coincidences for setting pair ({x}, {y})"
                raise DatasetError(_at_line(row, message))
            # a pair gives at most one coincidence; more would put |e| above 1
            if expected_pairs is not None and n > expected_pairs:
                message = f"{n} coincidences exceed the {expected_pairs} pairs that r0 = {r0} times"
                raise DatasetError(_at_line(row, f"{message} duration {row.duration} expects"))
        try:
            self.verdicts
        except ValueError as exc:
            message = (f"singles of setting pair (A, B) and the coincidences at r0 = {r0} "
                       f"give no valid CH probability set: {exc}")
            raise DatasetError(_at_line(rows[0], message)) from None

    @cached_property
    def n0(self) -> Optional[tuple[float, ...]]:
        """The pairs expected over each row's duration, r0 * duration: the
        absolute normalization, or None unless r0 and every duration are set."""
        r0, durations = self.config.r0, [row.duration for row in self.dataset.rows]
        return None if r0 is None or None in durations else tuple(r0 * t for t in durations)

    @cached_property
    def pairs(self) -> list[dict]:
        """Each pair's counts, n, E, E* and error, as to_json writes them."""
        pairs = []
        for row, n0 in zip(self.dataset.rows, self.n0 or [None] * len(CANONICAL_PAIRS)):
            n, d = row.total(), row.n_pp + row.n_mm - row.n_pm - row.n_mp
            # the integer quotient, correctly rounded however large the counts
            e_star = d / n
            # first-order multinomial error on a +/-1 outcome mean over n events
            err = math.sqrt(max(0.0, 1.0 - e_star * e_star) / n)
            counts = {c: getattr(row, c) for c in COUNT_COLUMNS}
            pairs.append({"settings": [row.setting_a, row.setting_b], **counts, "n": n,
                          "e": None if n0 is None else _over(d, n0), "e_star": e_star, "err": err})
        return pairs

    @property
    def s(self) -> Optional[float]:
        return None if self.n0 is None else chsh_sum(*(p["e"] for p in self.pairs))

    @property
    def s_star(self) -> float:
        return self.verdicts[0].lhs

    @property
    def s_err(self) -> float:
        return math.sqrt(sum(p["err"] * p["err"] for p in self.pairs))

    @cached_property
    def verdicts(self) -> tuple[InequalityReport, ...]:
        """CHSH-star's verdict, then CH's when the pairs are absolutely
        normalized and (A, B) has singles: ProbabilitySet's ValueError if
        the CH probabilities are not a valid set."""
        rows, n0 = self.dataset.rows, self.n0
        star = s_star_report(rows)
        # p(A) and p(B) are the singles of the first pair, (A, B)
        ab = rows[0]
        if n0 is None or ab.singles_a is None or ab.singles_b is None:
            return (star,)
        ps = ProbabilitySet(_over(ab.singles_a, n0[0]), _over(ab.singles_b, n0[0]),
                            *(_over(r.n_pp, n) for r, n in zip(rows, n0)))
        return (star, ch_report(ps))

    def to_json(self) -> dict:
        # copies, so that editing the output leaves the report as it was
        pairs = [dict(p, settings=list(p["settings"])) for p in self.pairs]
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
            "provenance": {"input_digest": self.dataset.source_digest, "seed": self.dataset.seed,
                           "config": self.config.to_json()},
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
    """The checked AnalysisReport of a dataset: S*, which rests on fair sampling,
    and the genuine CH test when cfg.r0 is declared and rows carry durations and singles."""
    return AnalysisReport(ds, cfg)


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

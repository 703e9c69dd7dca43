"""Bell-type inequality evaluation on measurable probabilities.

Every verdict carries a ``genuine`` flag: True only for inequalities that
follow from factorizability (local realism) alone, as each facet of the local
polytope in CH_FAMILY_FACETS does, False for those that need auxiliary
assumptions (no-enhancement, fair sampling / renormalized correlations).
check_json, the one field-by-field check of a loaded JSON document, lives
here: a schema leaf is a type or the value the field must hold, [item, ...]
a list of such items, and a refused value's message gives the reason.  So
does the counts format: CountRow checks each count's type and range,
CountDataset writes the counts CSV text and _parse_counts_csv reads it
back.  Reading and writing files is left to harness and cli.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

PAIR_TOL = 1e-9

CHSH_BOUND = 2.0

# The quantum maximum of S (Tsirelson); a source of visibility V gives
# S* = TSIRELSON_BOUND * V at the CANONICAL_ANGLES.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# The one set-up of the CHSH and CH tests, settings A, C on side 1 and B, D
# on side 2 (Fine, PRL 48, 291, 1982); its four setting pairs, in the order
# every statistic takes them, and their signed polarizer angle differences.
SIDE1_SETTINGS = ("A", "C")
SIDE2_SETTINGS = ("B", "D")
CANONICAL_PAIRS = tuple((x, y) for x in SIDE1_SETTINGS for y in SIDE2_SETTINGS)
CANONICAL_ANGLES = (-math.pi / 8, math.pi / 8, math.pi / 8, 3 * math.pi / 8)
CANONICAL_PHI = dict(zip(CANONICAL_PAIRS, CANONICAL_ANGLES))


@dataclass(frozen=True)
class ProbabilitySet:
    """The six measurable quantities of the Clauser-Horne test.

    Marginals p(A), p(B) and pair probabilities for the setting pairs
    (A,B), (A,D), (C,B), (C,D).  The marginals of C and D are not part of
    the set: in the single-channel experiment they are never recorded.
    """

    pA: float
    pB: float
    pAB: float
    pAD: float
    pCB: float
    pCD: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not -PAIR_TOL <= value <= 1.0 + PAIR_TOL:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        # a pair cannot exceed either of its marginals by more than PAIR_TOL
        # relative, so a marginal in [-PAIR_TOL, 0] allows no pair above 0
        for pair, bound, bname in (
            ("pAB", self.pA, "pA"),
            ("pAB", self.pB, "pB"),
            ("pAD", self.pA, "pA"),
            ("pCB", self.pB, "pB"),
        ):
            if 0.0 < getattr(self, pair) > bound * (1.0 + PAIR_TOL):
                raise ValueError(f"{pair} = {getattr(self, pair)} exceeds marginal {bname} = {bound}")

    def as_dict(self) -> dict[str, float]:
        return {
            "pA": self.pA,
            "pB": self.pB,
            "pAB": self.pAB,
            "pAD": self.pAD,
            "pCB": self.pCB,
            "pCD": self.pCD,
        }


@dataclass(frozen=True)
class TwoChannelCounts:
    """Outcome probabilities (or counts) for one setting pair.

    The plain CHSH statistic is a genuine Bell quantity only when the four
    entries are coincidence probabilities summing to one, i.e. when every
    pair yields a detected two-channel outcome.
    """

    ppp: float
    ppm: float
    pmp: float
    pmm: float

    def __post_init__(self):
        for name in ("ppp", "ppm", "pmp", "pmm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} = {getattr(self, name)} is negative")

    def total(self) -> float:
        return self.ppp + self.ppm + self.pmp + self.pmm


REQUIRED_COLUMNS = ("setting_a", "setting_b", "n_pp", "n_pm", "n_mp", "n_mm")
OPTIONAL_COLUMNS = ("singles_a", "singles_b", "duration")
COUNT_COLUMNS = REQUIRED_COLUMNS[2:] + OPTIONAL_COLUMNS  # each a CountRow field

# The analysis sums a row's four counts and computes in floats: below this
# bound each count, and the sum of four, is a finite float.
MAX_COUNT = 2**1021


class DatasetError(ValueError):
    """Malformed counts file or a dataset unusable for the analysis."""


@dataclass(frozen=True)
class CountRow:
    """The counts of one setting pair.  A count that is not an int in [0, MAX_COUNT), or a
    duration that is not a finite positive number, is a DatasetError naming where, as in
    "line 3" or "field pairs[2]"; a bool is no number."""

    setting_a: str
    setting_b: str
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    singles_a: Optional[int] = None
    singles_b: Optional[int] = None
    duration: Optional[float] = None
    where: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        for column in COUNT_COLUMNS:
            value = getattr(self, column)
            if value is None and column in OPTIONAL_COLUMNS:
                continue
            duration = column == "duration"
            if isinstance(value, bool) or not isinstance(value, (int, float) if duration else int):
                problem = "is not a number" if duration else f"is not an integer: {value!r}"
            elif 0 < value <= sys.float_info.max if duration else 0 <= value < MAX_COUNT:
                continue
            elif duration:
                problem = f"must be finite and positive: {value}"
            elif value < 0:  # one of MAX_COUNT's size or more by its digits
                shown = value if value > -MAX_COUNT else f"{_digits(-value)} digits"
                problem = f"is negative: {shown}"
            else:
                digits = _digits(value)
                problem = f"is too large for a float analysis: {digits} digits, not below 2**1021"
            raise DatasetError(_at_line(self, f"column {column} {problem}"))

    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


def _digits(n: int) -> int:
    """The decimal digits of n > 0; str(n) refuses an n of over 4300 digits."""
    d = int(math.log10(n)) + 1  # off by at most one in the float's rounding
    return d - (10 ** (d - 1) > n) + (10**d <= n)


def _at_line(row: CountRow, message: str) -> str:
    return message if row.where is None else f"{row.where}: {message}"


@dataclass(frozen=True)
class CountDataset:
    rows: tuple[CountRow, ...]
    seed: Optional[int] = None
    source_digest: Optional[str] = None

    def __post_init__(self):
        if not _has_json_type(self.seed, (int, None)):
            raise DatasetError(f"seed {self.seed!r} is not an integer")
        if not _has_json_type(self.source_digest, (str, None)):
            raise DatasetError(f"source digest {self.source_digest!r} is not a string")
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
        # the optional columns some row fills, both singles columns or neither
        filled = {c for r in self.rows for c in OPTIONAL_COLUMNS if getattr(r, c) is not None}
        if filled & {"singles_a", "singles_b"}:
            filled |= {"singles_a", "singles_b"}
        columns = REQUIRED_COLUMNS + tuple(c for c in OPTIONAL_COLUMNS if c in filled)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in self.rows:
            writer.writerow(["" if getattr(r, c) is None else getattr(r, c) for c in columns])
        return buf.getvalue()


def _integer_cell(cell: str) -> Optional[tuple[int, str]]:
    """The sign and the digits, leading zeros dropped, of an integer cell: an
    optional '-', then ASCII digits; None for any other cell.  int() alone
    also reads '+4', '4_00' and non-ASCII digits, which csv.writer never writes."""
    digits = cell.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        return -1 if len(digits) < len(cell) else 1, digits.lstrip("0") or "0"
    return None


def _read_cell(column: str, cell: str):
    """A count cell's int or a duration cell's float; the cell itself when it
    holds neither, for CountRow to refuse in column order."""
    if column == "duration":
        try:  # float() also reads '1_0' and non-ASCII digits
            return float(cell) if cell.isascii() and "_" not in cell else cell
        except ValueError:
            return cell
    integer = _integer_cell(cell)
    if integer is None:
        return cell
    sign, digits = integer
    # a count of more digits than MAX_COUNT has is refused for its digit
    # count, which 10**(n-1) keeps without int() reading all n digits
    return sign * (int(digits) if len(digits) <= 308 else 10 ** (len(digits) - 1))


def _parse_counts_csv(text: str, source_digest: Optional[str]) -> CountDataset:
    """The dataset a counts CSV holds, each error naming its line.

    Lines starting with '#' are comments; a '# seed=N' comment records the
    generator seed of a synthetic dataset.  Other lines are CSV records as
    csv.writer quotes them; surrounding whitespace of a field is dropped.
    """
    seed: Optional[int] = None
    header: Optional[list[str]] = None
    rows: list[CountRow] = []
    for line_no, line in enumerate(io.StringIO(text, newline=""), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("seed="):
                value = body[len("seed="):].strip()
                integer = _integer_cell(value)
                if integer is None:
                    raise DatasetError(f"line {line_no}: seed {value!r} is not an integer")
                sign, digits = integer
                try:
                    seed = sign * int(digits)
                except ValueError:  # int() refuses a run of digits only for its length
                    problem = f"of {len(digits)} digits is too long to read"
                    raise DatasetError(f"line {line_no}: seed {problem}") from None
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
        where, values = f"line {line_no}", {}
        for column in COUNT_COLUMNS:
            value = record.get(column, "")
            if value != "" or column not in OPTIONAL_COLUMNS:
                values[column] = _read_cell(column, value)
        rows.append(CountRow(record["setting_a"], record["setting_b"], **values, where=where))
    if header is None:
        raise DatasetError("empty file: no header row")
    return CountDataset(rows=tuple(rows), seed=seed, source_digest=source_digest)


# Facets of the local polytope, the hull of models.OUTCOME_VERTICES: the
# projection of the 16-outcome simplex onto the six measurable quantities
# (Fine, PRL 48, 291, 1982).  The CH combination appears with both its upper
# and lower bound; the remaining CH relabelings involve the unrecorded
# marginals p(C), p(D) and survive projection only as the Frechet-style
# bounds below.  Each entry: (name, coefficients, offset) for coeff . x <= offset.
CH_FAMILY_FACETS: tuple[tuple[str, tuple[float, ...], float], ...] = (
    ("CH", (-1, -1, 1, 1, 1, -1), 0.0),
    ("CH-lower", (1, 1, -1, -1, -1, 1), 1.0),
    ("bound pAB <= pA", (-1, 0, 1, 0, 0, 0), 0.0),
    ("bound pAB <= pB", (0, -1, 1, 0, 0, 0), 0.0),
    ("bound pAD <= pA", (-1, 0, 0, 1, 0, 0), 0.0),
    ("bound pCB <= pB", (0, -1, 0, 0, 1, 0), 0.0),
    ("bound pAB >= 0", (0, 0, -1, 0, 0, 0), 0.0),
    ("bound pAD >= 0", (0, 0, 0, -1, 0, 0), 0.0),
    ("bound pCB >= 0", (0, 0, 0, 0, -1, 0), 0.0),
    ("bound pCD >= 0", (0, 0, 0, 0, 0, -1), 0.0),
    ("bound pAB >= pA+pB-1", (1, 1, -1, 0, 0, 0), 1.0),
    ("bound pCD <= 1-pA+pAD", (1, 0, 0, -1, 0, 1), 1.0),
    ("bound pCD <= 1-pB+pCB", (0, 1, 0, 0, -1, 1), 1.0),
)

# Whether a violation of each inequality refutes factorizability itself
# (genuine), as each facet's does, or only an auxiliary assumption it needs.
GENUINE = {**{name: True for name, _, _ in CH_FAMILY_FACETS}, "CHSH-star": False, "FC": False}


@dataclass(frozen=True)
class InequalityReport:
    name: str  # a key of GENUINE; the verdict is lhs <= rhs
    lhs: float
    rhs: float

    def __post_init__(self):
        if self.name not in GENUINE:
            raise ValueError(f"unknown inequality {self.name!r}")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def violated(self) -> bool:
        return self.margin < 0

    @property
    def genuine(self) -> bool:
        return GENUINE[self.name]

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
                "violated": self.violated, "genuine": self.genuine}


_JSON_TYPE_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
    None: "null",
}


def _has_json_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_json_type(value, one) for one in kind)
    if kind is None or isinstance(value, bool):
        return value is kind  # null has kind None only, and a bool no kind at all
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_json(value, schema, reason: str = "") -> None:
    """Raise ValueError naming the first field of a loaded JSON document that
    schema refuses, as in pairs[2].e_star or side1.table[1].

    A schema is a dict of required fields, a list of exactly those items,
    [item, ...] for a list of such items, or a leaf: a type (float for a
    finite number, int or str; a bool is no number) or a tuple of them, None
    for null; or else the field's value, matched type-strictly (an int
    matches an int or a float, a bool only a bool), with reason in the
    message: field s_star must be 2.4, <reason>, found "2.5".  An unlisted
    field may hold anything but NaN or an infinity (json.loads reads NaN,
    Infinity and 1e400)."""
    _check(value, schema, f", {reason}" if reason else "")


class _Misfit(ValueError):
    """A check_json failure: what the field fails, as in " is missing", and
    the field's keys, innermost first, each with whether it is a list index.
    The message names the field, as in pairs[2].e_star, with "" for an empty
    key, and is built only when read."""

    def __init__(self, failure: str, *keys):
        super().__init__(failure)
        self.failure = failure
        self.keys = list(keys)

    def __str__(self) -> str:
        name = ""
        for key, index in reversed(self.keys):
            key = key if index or key else '""'
            name = f"{name}[{key}]" if index else f"{name}.{key}" if name else key
        return (f"field {name}" if name else "top-level value") + self.failure


def _wrong_type(value, kind) -> _Misfit:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    expected = " or ".join(_JSON_TYPE_NAMES[one] for one in kinds)
    return _Misfit(f" must be {expected}, found {json.dumps(value)[:40]}")


# The schema of a value no schema describes: its numbers must be finite.
_UNLISTED = object()

# The types of a schema leaf that is a value, not a type.
_VALUE_TYPES = {str, int, float, bool, type(None)}


def _check(value, schema, reason: str, key=None, index=None) -> None:
    """check_json of value, the field at key in its parent (a list index when
    index is True), or the whole document when index is None; reason is ""
    or starts with ", "."""
    try:
        kind = type(schema)
        if kind in _VALUE_TYPES:
            if not (type(value) is kind or kind is float and type(value) is int) or value != schema:
                found = json.dumps(value)[:40]
                raise _Misfit(f" must be {json.dumps(schema)[:40]}{reason}, found {found}")
        elif schema is _UNLISTED:
            if isinstance(value, float) and not abs(value) <= sys.float_info.max:
                raise _wrong_type(value, float)
            if isinstance(value, (dict, list)):  # each of its keys or items is unlisted too
                _check(value, {} if isinstance(value, dict) else [_UNLISTED, ...], reason)
        elif kind is not dict and kind is not list:
            if not _has_json_type(value, schema):
                raise _wrong_type(value, schema)
        elif not isinstance(value, kind):
            raise _wrong_type(value, kind)
        elif kind is dict:
            for name, item in schema.items():
                if name not in value:
                    raise _Misfit(" is missing", (name, False))
                _check(value[name], item, reason, name, False)
            for name, item in value.items():
                if name not in schema:
                    _check(item, _UNLISTED, reason, name, False)
        else:
            if schema and schema[-1] is ...:
                schema = schema[:1] * len(value)
            for k, (item, expected) in enumerate(zip(value, schema)):
                _check(item, expected, reason, k, True)
            if len(value) != len(schema):
                raise _Misfit(f" must hold {len(schema)} items{reason}, found {len(value)}")
    except _Misfit as misfit:
        if index is not None:
            misfit.keys.append((key, index))
        raise


def ch_report(ps: ProbabilitySet) -> InequalityReport:
    """Clauser-Horne test: p(A,B)+p(A,D)+p(C,B)-p(C,D) <= p(A)+p(B).

    Holds for every factorizable model with no auxiliary assumption, so the
    verdict is flagged genuine.
    """
    lhs = ps.pAB + ps.pAD + ps.pCB - ps.pCD
    rhs = ps.pA + ps.pB
    return InequalityReport("CH", lhs, rhs)


def least_slack_facet(ps: ProbabilitySet) -> InequalityReport:
    """The verdict of the facet of CH_FAMILY_FACETS with the least slack at
    ps, the first on ties: lhs is coeff . ps, rhs the offset."""
    x = tuple(ps.as_dict().values())
    lhs = [sum(c * v for c, v in zip(coeff, x)) for _, coeff, _ in CH_FAMILY_FACETS]
    k = min(range(len(lhs)), key=lambda i: CH_FAMILY_FACETS[i][2] - lhs[i])
    name, _, offset = CH_FAMILY_FACETS[k]
    return InequalityReport(name, lhs[k], offset)


def correlation(tc: TwoChannelCounts) -> float:
    """Plain correlation E = p++ + p-- - p+- - p-+, no renormalization."""
    return tc.ppp + tc.pmm - tc.ppm - tc.pmp


def renormalized_correlation(tc: TwoChannelCounts) -> float:
    """E* = (p++ + p-- - p+- - p-+) / (p++ + p-- + p+- + p-+).

    The denominator restricts to detected coincidences; using E* in the
    CHSH sum silently adds a fair-sampling assumption.
    """
    total = tc.total()
    if total == 0:
        raise ZeroDivisionError("all four outcome entries are zero; E* undefined")
    return correlation(tc) / total


def chsh_sum(eAB, eAD, eCB, eCD):
    """E(A,B) + E(A,D) + E(C,B) - E(C,D) over the canonical pairs.

    The +/- terms are paired before the cross sum: this keeps the symmetric
    maximum S = 2 exactly representable at the boundary.  Works elementwise
    on numpy arrays as well as on floats.
    """
    return (eAB - eCD) + (eAD + eCB)


def s_star_report(rows: Sequence[CountRow]) -> InequalityReport:
    """The CHSH-star verdict on the counts of the four canonical pairs, in
    CANONICAL_PAIRS order, decided in integers.  With E* = d / n per pair and
    N the product of the n, lhs is num / N correctly rounded, num the CHSH
    sum of the d * N / n; or the next float above the bound when S* exceeds
    it but rounds to it, so the verdict is violated exactly when S* is."""
    d = [r.n_pp + r.n_mm - r.n_pm - r.n_mp for r in rows]
    n = [r.total() for r in rows]
    big_n = math.prod(n)
    num = chsh_sum(*(dk * (big_n // nk) for dk, nk in zip(d, n)))
    lhs = num / big_n
    if lhs == CHSH_BOUND and num > int(CHSH_BOUND) * big_n:
        lhs = math.nextafter(CHSH_BOUND, math.inf)
    return InequalityReport("CHSH-star", lhs, CHSH_BOUND)


def fc_report(ps: ProbabilitySet, pAinf: float, pInfB: float) -> InequalityReport:
    """Freedman-Clauser test against polarizer-removed coincidences.

    Same left side as the CH test, but the right side p(A,inf)+p(inf,B)
    rests on the counterfactual no-enhancement assumption, so the verdict
    is never genuine.
    """
    for name, value in (("pAinf", pAinf), ("pInfB", pInfB)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} = {value} outside [0, 1]")
    return InequalityReport("FC", ch_report(ps).lhs, pAinf + pInfB)

"""Bell-type inequality evaluation on measurable probabilities.

Every verdict carries a ``genuine`` flag: True only for inequalities that
follow from factorizability (local realism) alone, False for those that
need auxiliary assumptions (no-enhancement, fair sampling / renormalized
correlations).  check_json, the field-by-field type check of a loaded JSON
document, lives here beside the verdict schema; reading and writing files is
left to cli.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

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


# Whether a violation of each inequality refutes factorizability itself
# (genuine) or only an auxiliary assumption it needs.
GENUINE = {"CH": True, "CHSH": True, "CHSH-star": False, "FC": False}


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
        return {key: getattr(self, key) for key in VERDICT_SCHEMA}


# The fields of a saved verdict, in the check_json schema form.
VERDICT_SCHEMA = {
    "name": str,
    "lhs": float,
    "rhs": float,
    "margin": float,
    "violated": bool,
    "genuine": bool,
}

_JSON_TYPE_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    bool: "true or false",
    list: "a list",
    dict: "an object",
    None: "null",
}


def _has_json_type(value, kind) -> bool:
    if kind is None:
        return value is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_json(value, schema, path: str) -> None:
    """Raise ValueError naming the first field of a loaded JSON document
    whose type or shape differs from schema, as in pairs[2].e_star or
    side1.table[1]; path is the name of value itself, "" at the top level.

    A schema is a type (float for a finite number, int, str, bool, list or
    dict; a bool is never a number), a tuple of alternatives with None for
    null, a dict of required fields, a one-item list [item] for a list of
    such items, or a longer list for a list of exactly those items.  A field
    the schema does not list, and the contents of a bare list or dict, may
    hold anything but NaN or an infinity (json.load reads NaN, Infinity and
    1e400): field <path> must be a finite number, found NaN.
    """
    shape = type(schema) if isinstance(schema, (dict, list)) else schema
    kinds = shape if isinstance(shape, tuple) else (shape,)
    if not any(_has_json_type(value, kind) for kind in kinds):
        expected = " or ".join(_JSON_TYPE_NAMES[kind] for kind in kinds)
        where = f"field {path}" if path else "top-level value"
        raise ValueError(f"{where} must be {expected}, found {json.dumps(value)[:40]}")
    if isinstance(schema, dict):
        for key, item in schema.items():
            name = f"{path}.{key}" if path else key
            if key not in value:
                raise ValueError(f"field {name} is missing")
            check_json(value[key], item, name)
        _check_finite({key: item for key, item in value.items() if key not in schema}, path)
    elif isinstance(schema, list):
        if len(schema) > 1 and len(value) != len(schema):
            raise ValueError(f"field {path} must hold {len(schema)} items, found {len(value)}")
        for k, item in enumerate(value):
            check_json(item, schema[0] if len(schema) == 1 else schema[k], f"{path}[{k}]")
    elif isinstance(value, (dict, list)):
        _check_finite(value, path)


def _check_finite(value, path: str) -> None:
    """check_json of a value no schema describes: its numbers must be finite."""
    if isinstance(value, float):
        check_json(value, float, path)
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _check_finite(item, f"{path}[{k}]")


def ch_report(ps: ProbabilitySet) -> InequalityReport:
    """Clauser-Horne test: p(A,B)+p(A,D)+p(C,B)-p(C,D) <= p(A)+p(B).

    Holds for every factorizable model with no auxiliary assumption, so the
    verdict is flagged genuine.
    """
    lhs = ps.pAB + ps.pAD + ps.pCB - ps.pCD
    rhs = ps.pA + ps.pB
    return InequalityReport("CH", lhs, rhs)


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


def s_statistic(
    eAB: float, eAD: float, eCB: float, eCD: float, renormalized: bool
) -> InequalityReport:
    """CHSH combination E(A,B)+E(A,D)+E(C,B)-E(C,D) <= 2.

    Genuine only when the inputs are plain correlations whose four outcome
    probabilities sum to one per setting pair; with renormalized inputs the
    statistic is the fair-sampling surrogate S*.
    """
    for name, value in (("eAB", eAB), ("eAD", eAD), ("eCB", eCB), ("eCD", eCD)):
        if not -1.0 - PAIR_TOL <= value <= 1.0 + PAIR_TOL:
            raise ValueError(f"{name} = {value} outside [-1, 1]")
    name = "CHSH-star" if renormalized else "CHSH"
    return InequalityReport(name, chsh_sum(eAB, eAD, eCB, eCD), CHSH_BOUND)


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

"""Correctness oracles, kept apart from the program's own code paths.

Each check takes plain data (numbers, dicts, text) and returns a list of
failure messages; an empty list means the result passed.  No check calls
into bellkit: every expected value comes from a closed form or from a
structure derived here, so no check can agree with the program by
construction.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

SQRT2 = math.sqrt(2.0)

SEARCH_TOL = 1e-5  # |s_star_max - closed form|
GENUINE_TOL = 1e-8  # genuine S may exceed 2 by at most this
WITNESS_TOL = 1e-9  # witness reproduces the six probabilities
PROB_TOL = 1e-12  # recomputed probabilities and CH sides
CH_SLACK = 1e-10  # CH may fail by this much on a factorizable model
S_STAR_SIGMAS = 5.0  # simulated S* within this many s_err of 2 sqrt2 V

# Deterministic outcomes (a, c, b, d) of the four observables A, C (side 1)
# and B, D (side 2), and the point each one gives in the measured
# coordinates (pA, pB, pAB, pAD, pCB, pCD).  The local polytope is the
# convex hull of these 16 points.
OUTCOMES = tuple(itertools.product((0, 1), repeat=4))
LOCAL_VERTICES = tuple((a, b, a * b, a * d, c * b, c * d) for a, c, b, d in OUTCOMES)

CANONICAL_PAIRS = {("A", "B"), ("A", "D"), ("C", "B"), ("C", "D")}


def _dot(u, v) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


def s_star_max(eta: float) -> float:
    """Largest renormalized CHSH value of a local model at efficiency eta:
    4 up to eta = 3/4, then Larsson's bound 2 / (2 eta - 1)."""
    return 4.0 if eta <= 0.75 else 2.0 / (2.0 * eta - 1.0)


def check_search(eta: float, s_star: float, genuine_s: float) -> list[str]:
    fails = []
    expected = s_star_max(eta)
    if not abs(s_star - expected) <= SEARCH_TOL:
        fails.append(f"eta={eta}: s_star_max {s_star!r}, closed form {expected!r}")
    if not genuine_s <= 2.0 + GENUINE_TOL:
        fails.append(f"eta={eta}: genuine S {genuine_s!r} above 2")
    return fails


def model_probabilities(weights, side1, side2) -> tuple[float, ...]:
    """(pA, pB, pAB, pAD, pCB, pCD) of a factorizable model given as cell
    weights and per-cell response columns (A, C) and (B, D)."""
    w = [float(x) for x in weights]
    a = [float(r[0]) for r in side1]
    c = [float(r[1]) for r in side1]
    b = [float(r[0]) for r in side2]
    d = [float(r[1]) for r in side2]
    return (
        _dot(w, a),
        _dot(w, b),
        _dot(w, [x * y for x, y in zip(a, b)]),
        _dot(w, [x * y for x, y in zip(a, d)]),
        _dot(w, [x * y for x, y in zip(c, b)]),
        _dot(w, [x * y for x, y in zip(c, d)]),
    )


def check_model_probabilities(weights, side1, side2, x) -> list[str]:
    expected = model_probabilities(weights, side1, side2)
    worst = max(abs(p - q) for p, q in zip(x, expected))
    if not worst <= PROB_TOL:
        return [f"model probabilities off by {worst:.3g}"]
    return []


def check_ch(x, lhs: float, rhs: float, must_hold: bool) -> list[str]:
    """CH sides recomputed from the point; a factorizable model must satisfy it."""
    p_a, p_b, p_ab, p_ad, p_cb, p_cd = x
    fails = []
    if not abs(lhs - (p_ab + p_ad + p_cb - p_cd)) <= PROB_TOL:
        fails.append(f"CH lhs {lhs!r} disagrees with the point")
    if not abs(rhs - (p_a + p_b)) <= PROB_TOL:
        fails.append(f"CH rhs {rhs!r} disagrees with the point")
    if must_hold and not rhs - lhs >= -CH_SLACK:
        fails.append(f"factorizable model violates CH by {lhs - rhs:.3g}")
    return fails


def check_witness(x, probabilities: dict) -> list[str]:
    """A joint distribution over (a, c, b, d) that reproduces the point."""
    if set(probabilities) != set(OUTCOMES):
        return ["witness does not cover the 16 outcomes"]
    p = [float(probabilities[o]) for o in OUTCOMES]
    fails = []
    if not min(p) >= -PROB_TOL:
        fails.append(f"witness has negative weight {min(p):.3g}")
    if not abs(math.fsum(p) - 1.0) <= WITNESS_TOL:
        fails.append(f"witness weights sum to {math.fsum(p)!r}")
    for k, name in enumerate(("pA", "pB", "pAB", "pAD", "pCB", "pCD")):
        value = math.fsum(q * v[k] for q, v in zip(p, LOCAL_VERTICES))
        if not abs(value - x[k]) <= WITNESS_TOL:
            fails.append(f"witness gives {name} = {value!r}, point has {x[k]!r}")
    return fails


def check_certificate(x, name: str, lhs: float, rhs: float, facets: dict) -> list[str]:
    """An infeasibility certificate: a named inequality that every local
    vertex satisfies and the point violates.

    facets maps a facet name to (coefficients, offset) for coeff . x <= offset.
    """
    if name not in facets:
        return [f"certificate names no facet of the local polytope: {name!r}"]
    coeff, offset = facets[name]
    fails = []
    worst = max(_dot(coeff, v) for v in LOCAL_VERTICES)
    if worst > offset + PROB_TOL:
        fails.append(f"facet {name!r} is not valid: a local vertex reaches {worst!r} > {offset!r}")
    value = _dot(coeff, x)
    if not value > offset:
        fails.append(f"point does not violate facet {name!r}: {value!r} <= {offset!r}")
    if not (abs(value - lhs) <= WITNESS_TOL and rhs == offset):
        fails.append(f"certificate sides ({lhs!r}, {rhs!r}) disagree with facet {name!r}")
    return fails


def check_exit(command: str, code: int, stderr: str) -> list[str]:
    if code == 0:
        return []
    tail = stderr.strip().splitlines()[-1:] or [""]
    return [f"{command}: exit code {code}: {tail[0][:200]}"]


def parse_json(command: str, text: str):
    """(payload, failures) for a command's JSON output."""
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{command}: output is not JSON: {exc}"]


def check_counts_csv(text: str, n_pairs: int) -> list[str]:
    """Simulated counts: the four canonical pairs, n_pairs events each."""
    body = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    pairs = {(r.get("setting_a"), r.get("setting_b")) for r in rows}
    if pairs != CANONICAL_PAIRS or len(rows) != 4:
        return [f"counts cover pairs {sorted(map(str, pairs))}, not the four canonical ones"]
    fails = []
    for r in rows:
        try:
            total = sum(int(r[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm"))
        except (KeyError, TypeError, ValueError):
            fails.append(f"counts row {r} is malformed")
            continue
        if total != n_pairs:
            fails.append(f"pair {r['setting_a']},{r['setting_b']} has {total} events, not {n_pairs}")
    return fails


def check_analysis(report, v: float, n_pairs: int) -> list[str]:
    """Analysis of counts simulated at visibility v: S* = 2 sqrt2 V within
    S_STAR_SIGMAS standard errors, n_pairs events per pair, and a digest."""
    try:
        s_star = float(report["s_star"])
        s_err = float(report["s_err"])
        totals = [int(p["n"]) for p in report["pairs"]]
        digest = report["digest"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"analysis report lacks a field: {exc!r}"]
    fails = []
    expected = 2.0 * SQRT2 * v
    if not (s_err > 0 and abs(s_star - expected) <= S_STAR_SIGMAS * s_err):
        fails.append(f"S* {s_star!r} +/- {s_err!r} is not within 5 s_err of 2 sqrt2 V = {expected!r}")
    if totals != [n_pairs] * 4:
        fails.append(f"pair totals {totals}, expected {n_pairs} each")
    if not (isinstance(digest, str) and re.fullmatch(r"[0-9a-f]{64}", digest)):
        fails.append(f"digest {digest!r} is not a sha256 hex string")
    return fails


def check_report_text(text: str, report) -> list[str]:
    """The text rendering states the same S* as the JSON report."""
    match = re.search(r"^S\* = ([-+0-9.eE]+)", text, re.MULTILINE)
    if match is None:
        return ["text report has no 'S* = ' line"]
    try:
        expected = float(report["s_star"])
    except (KeyError, TypeError, ValueError):
        return ["no JSON report to compare the text report with"]
    if not abs(float(match.group(1)) - expected) <= 1e-6:
        return [f"text report S* {match.group(1)} disagrees with JSON S* {expected!r}"]
    return []


def check_digest_repeat(first, again) -> list[str]:
    if first is None or first != again:
        return [f"analyze digest changed on a repeat run of the same counts: {first!r} -> {again!r}"]
    return []


def cascade_aperture_maximum(zeta: float) -> float:
    """max over the aperture of eta (1 + sqrt2 V) for a cascade source: with
    u = 1 - cos theta, zeta (u (1 + sqrt2) - 2 sqrt2 u^3 / 3) / 2 is
    stationary at u* = sqrt((1 + sqrt2) / (2 sqrt2))."""
    u = math.sqrt((1.0 + SQRT2) / (2.0 * SQRT2))
    return 0.5 * zeta * (u * (1.0 + SQRT2) - (2.0 * SQRT2 / 3.0) * u**3)


def check_predict(payload, cycle: dict) -> list[str]:
    """Closed forms for the [pdc] and [cascade] predictions of one config."""
    v, zeta, theta = cycle["v"], cycle["zeta"], cycle["theta"]
    try:
        pdc = payload["pdc"]
        cascade = payload["cascade"]
        checks = [
            ("pdc expected_s_star", pdc["expected_s_star"], 2.0 * SQRT2 * v),
            ("cascade eta", cascade["eta"], 0.5 * (1.0 - math.cos(theta)) * zeta),
            ("cascade v", cascade["v"], 1.0 - (2.0 / 3.0) * (1.0 - math.cos(theta)) ** 2),
            ("aperture maximum", cascade["aperture_maximum"]["lhs"], cascade_aperture_maximum(zeta)),
            (
                "aperture maximum, both detectors",
                cascade["aperture_maximum"]["both_detectors"],
                2.0 * cascade_aperture_maximum(zeta),
            ),
        ]
        min_eff = pdc["min_efficiency_for_violation"]
    except (KeyError, TypeError) as exc:
        return [f"prediction lacks a field: {exc!r}"]
    fails = []
    for label, got, expected in checks:
        if not abs(float(got) - expected) <= 1e-8 * max(1.0, abs(expected)):
            fails.append(f"{label} {got!r}, closed form {expected!r}")
    if v < SQRT2 / 2.0:
        if min_eff is not None:
            fails.append(f"V = {v} admits no violation, yet min efficiency is {min_eff!r}")
    elif min_eff is None or not abs(float(min_eff) - 2.0 / (1.0 + SQRT2 * v)) <= PROB_TOL:
        fails.append(f"min efficiency {min_eff!r}, closed form {2.0 / (1.0 + SQRT2 * v)!r}")
    return fails

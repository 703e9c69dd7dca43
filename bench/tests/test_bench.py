"""Tests of the benchmark itself: seeded inputs, trace arithmetic, oracles.

Run from the root of a checkout:  python3 -m pytest bench/tests -q

Every oracle is shown to accept a real result of the program and to reject
a deliberately wrong one; the wrong results are built here, the program is
never patched.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

from bellkit import cli, harness, models, search  # noqa: E402
from bellkit.experiments import PdcConfig, two_channel_rates  # noqa: E402
from bellkit.inequalities import ProbabilitySet, TwoChannelCounts, ch_report  # noqa: E402

FACETS = {name: (coeff, offset) for name, coeff, offset in models.CH_FAMILY_FACETS}


def _plain(stream):
    return [[np.asarray(part).tolist() if not isinstance(part, str) else part for part in p]
            for p in stream]


# --- seeded inputs -----------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    assert inputs.cli_cycles(11, 20) == inputs.cli_cycles(11, 20)
    assert _plain(inputs.feasibility_stream(11, 200)) == _plain(inputs.feasibility_stream(11, 200))
    assert inputs.eta_order(11) == inputs.eta_order(11)


def test_other_seed_gives_other_inputs():
    assert inputs.cli_cycles(11, 20) != inputs.cli_cycles(12, 20)
    assert _plain(inputs.feasibility_stream(11, 200)) != _plain(inputs.feasibility_stream(12, 200))
    assert inputs.eta_order(11) != inputs.eta_order(12)


def test_eta_grid_covers_the_three_regions():
    grid = inputs.ETA_GRID
    assert 0.75 in grid and 1.0 in grid
    assert any(0.75 < eta < 1.0 for eta in grid)
    assert sorted(inputs.eta_order(5)) == sorted(grid)


def test_cli_cycles_hold_the_same_efficiencies_for_every_seed():
    n = run.CLI_CYCLES
    etas = {seed: [c["search_eta"] for c in inputs.cli_cycles(seed, n)] for seed in (1, 2)}
    assert sorted(etas[1]) == sorted(etas[2]) == sorted(inputs.ETA_GRID * (n // len(inputs.ETA_GRID)))
    assert etas[1] != etas[2]


def test_feasibility_stream_interleaves_models_and_valid_grid_points():
    stream = inputs.feasibility_stream(3, 400)
    assert [p[0] for p in stream[:4]] == ["model", "grid", "model", "grid"]
    for p in stream:
        if p[0] == "grid":
            ProbabilitySet(*p[1])  # raises on an invalid point
        else:
            assert 1 <= len(p[1]) <= 6 and math.isclose(sum(p[1]), 1.0)


# --- reference-relative times -------------------------------------------------

def test_relative_divides_by_the_median_reference_nearby():
    refs = [(0.0, 1.0), (0.5, 3.0), (1.0, 2.0), (10.0, 5.0), (10.2, 7.0), (10.4, 6.0), (29.0, 9.0)]
    ops = [(0.6, 4.0), (10.3, 12.0), (20.0, 18.0)]
    # within 1 s: medians 2.0 and 6.0; none near 20.0, so its three nearest
    # (29.0, 10.4, 10.2) give 7.0
    assert reference.relative(ops, refs, window=1.0, least=3) == pytest.approx([2.0, 2.0, 18.0 / 7.0])


def test_timeline_times_the_kernel_when_due():
    timeline = reference.Timeline(interval=1e9)
    timeline.op(0.0, 0.001)  # next_ref starts at 0: the kernel runs once
    timeline.op(0.001, 0.002)  # not due again
    assert len(timeline.ops) == 2 and len(timeline.refs) == 1
    assert timeline.refs[0][1] > 0


# --- trace arithmetic --------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "models.joint_feasibility", 1.0, 4.0),
        Span(2, 1, 0, "lp.linprog", 2.0, 3.0),
        Span(3, 0, 0, "inequalities.ch_report", 3.5, 6.0),  # overlaps span 1
        Span(4, 0, 0, "models.scan_ch_family", 9.0, 12.0),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(3.0)


def test_tracer_nests_wrapped_calls_and_marks_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap(inner, "models.inner")
    outer = tracer.wrap(lambda x: traced_inner(x), "search.outer")
    with tracer.op():
        outer(1)
    with pytest.raises(ValueError):
        with tracer.op():
            outer(-1)
    names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
    assert names == [
        ("op", None, 0, False),
        ("search.outer", 0, 0, False),
        ("models.inner", 1, 0, False),
        ("op", None, 1, True),
        ("search.outer", 3, 1, True),
        ("models.inner", 4, 1, True),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def test_profile_hook_spans_a_function_by_code_object():
    def solver(x):
        return {"status": 0, "x": x}

    def minimizer():
        return None

    tracer = Tracer()
    alias = solver  # a call through another name is still the same code
    with tracer.profiled({solver.__code__: ("lp.solver", lambda r: r["status"])},
                         {minimizer.__code__: "minimizer"}):
        with tracer.op():
            alias(1)
            minimizer()
            minimizer()
    lp = [s for s in tracer.spans if s.name == "lp.solver"]
    assert len(lp) == 1 and lp[0].info == 0 and lp[0].parent == 0
    assert tracer.counts == {"minimizer": 2}


def test_patched_restores_module_attributes():
    original = models.scan_ch_family
    tracer = Tracer()
    with tracer.patched([(models, "scan_ch_family", None)]):
        assert models.scan_ch_family is not original
        models.scan_ch_family(ProbabilitySet(0.5, 0.5, 0.25, 0.25, 0.25, 0.25))
    assert models.scan_ch_family is original
    assert [s.name for s in tracer.spans] == ["models.scan_ch_family"]


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   _io\n"
        "import time:      2000 |      80000 | numpy\n"
        "import time:       300 |     550000 |     scipy.optimize\n"
        "import time:       500 |     700000 | bellkit\n"
    )
    assert run.parse_importtime(text) == {
        "_io": 120, "numpy": 80000, "scipy.optimize": 550000, "bellkit": 700000
    }


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# --- oracles: loophole search ------------------------------------------------

def test_search_oracle_accepts_the_program_and_rejects_wrong_values():
    result = search.maximize_s_star(0.9)
    assert oracles.check_search(0.9, result.s_star_max, result.genuine_s) == []
    assert oracles.check_search(0.9, result.s_star_max + 1e-4, result.genuine_s)
    assert oracles.check_search(0.9, math.nan, result.genuine_s)
    assert oracles.check_search(0.9, result.s_star_max, 2.0 + 1e-6)
    assert oracles.s_star_max(0.5) == 4.0 and oracles.s_star_max(1.0) == 2.0


# --- oracles: feasibility ----------------------------------------------------

def _model(seed=4):
    point = inputs.feasibility_stream(seed, 1)[0]
    _, w, t1, t2 = point
    space = models.HiddenVariableSpace(tuple(f"c{i}" for i in range(len(w))), w)
    model = models.FactorizableModel(
        space, models.ResponseTable(1, ("A", "C"), t1), models.ResponseTable(2, ("B", "D"), t2)
    )
    return point, model


def _x(ps):
    return (ps.pA, ps.pB, ps.pAB, ps.pAD, ps.pCB, ps.pCD)


def test_model_probability_oracle():
    (_, w, t1, t2), model = _model()
    x = _x(models.probability_set_from_model(model))
    assert oracles.check_model_probabilities(w, t1, t2, x) == []
    assert oracles.check_model_probabilities(w, t1, t2, (x[0] + 1e-9, *x[1:]))


def test_ch_oracle():
    (_, w, t1, t2), model = _model()
    ps = models.probability_set_from_model(model)
    report = ch_report(ps)
    assert oracles.check_ch(_x(ps), report.lhs, report.rhs, must_hold=True) == []
    assert oracles.check_ch(_x(ps), report.lhs + 1e-6, report.rhs, must_hold=False)
    # a CH-violating point passes as grid traffic but not as a model point
    bad = ProbabilitySet(0.5, 0.5, 0.5, 0.5, 0.5, 0.0)
    report = ch_report(bad)
    assert oracles.check_ch(_x(bad), report.lhs, report.rhs, must_hold=False) == []
    assert oracles.check_ch(_x(bad), report.lhs, report.rhs, must_hold=True)


def test_witness_oracle():
    _, model = _model()
    ps = models.probability_set_from_model(model)
    verdict = models.joint_feasibility(ps)
    assert isinstance(verdict, models.Feasible)
    probs = dict(verdict.witness.probabilities)
    assert oracles.check_witness(_x(ps), probs) == []

    shifted = dict(probs)
    shifted[(1, 1, 1, 1)] += 1e-6
    shifted[(0, 0, 0, 0)] -= 1e-6
    assert oracles.check_witness(_x(ps), shifted)
    negative = dict(probs)
    negative[(0, 1, 0, 1)] = -0.01
    assert oracles.check_witness(_x(ps), negative)
    missing = dict(probs)
    del missing[(1, 0, 1, 0)]
    assert oracles.check_witness(_x(ps), missing)


def test_certificate_oracle():
    ps = ProbabilitySet(0.5, 0.5, 0.5, 0.5, 0.5, 0.0)  # violates CH
    verdict = models.joint_feasibility(ps)
    assert isinstance(verdict, models.Infeasible)
    cert = verdict.certificate
    x = _x(ps)
    assert oracles.check_certificate(x, cert.name, cert.lhs, cert.rhs, FACETS) == []
    # the known defect: an infeasible verdict with a "boundary" certificate
    assert oracles.check_certificate(x, "boundary", 0.0, 0.0, FACETS)
    # a real facet the point does not violate
    assert oracles.check_certificate(x, "bound pAB >= 0", -0.5, 0.0, FACETS)
    # the right facet with made-up sides
    assert oracles.check_certificate(x, cert.name, cert.lhs + 0.1, cert.rhs, FACETS)
    # an inequality some local vertex violates is no certificate
    invalid = {"pAB <= 0": ((0, 0, 1, 0, 0, 0), 0.0)}
    assert oracles.check_certificate(x, "pAB <= 0", 0.5, 0.0, invalid)


def test_local_vertices_satisfy_every_program_facet():
    for name, (coeff, offset) in FACETS.items():
        assert max(sum(c * v for c, v in zip(coeff, vertex))
                   for vertex in oracles.LOCAL_VERTICES) <= offset, name


# --- oracles: CLI ------------------------------------------------------------

def _counts(v=0.9, seed=5):
    cfg = PdcConfig(v=v, eta=0.1, r0=1.0)
    stats = {p: TwoChannelCounts(*two_channel_rates(cfg, phi)) for p, phi in harness.CANONICAL_PHI.items()}
    return search.sample_counts(stats, inputs.N_PAIRS, seed)


def _report_json(dataset):
    report = harness.run_analysis(dataset, harness.AnalysisConfig())
    return json.loads(harness.render_report(report, "json")), harness.render_report(report, "text")


def test_exit_and_json_oracles():
    assert oracles.check_exit("analyze", 0, "") == []
    assert oracles.check_exit("analyze", 1, "error: bad file\n")
    assert oracles.parse_json("search", '{"a": 1}') == ({"a": 1}, [])
    payload, fails = oracles.parse_json("search", '{"a": ')
    assert payload is None and fails


def test_counts_oracle():
    text = _counts().to_csv()
    assert oracles.check_counts_csv(text, inputs.N_PAIRS) == []
    assert oracles.check_counts_csv(text, inputs.N_PAIRS + 1)
    lines = text.splitlines()
    assert oracles.check_counts_csv("\n".join(lines[:-1]), inputs.N_PAIRS)


def test_analysis_and_report_oracles():
    payload, text = _report_json(_counts(v=0.9))
    assert oracles.check_analysis(payload, 0.9, inputs.N_PAIRS) == []
    assert oracles.check_report_text(text, payload) == []

    off = copy.deepcopy(payload)
    off["s_star"] += 10 * off["s_err"]
    assert oracles.check_analysis(off, 0.9, inputs.N_PAIRS)
    assert oracles.check_report_text(text, off)
    assert oracles.check_analysis(payload, 0.8, inputs.N_PAIRS)
    no_digest = dict(payload, digest="")
    assert oracles.check_analysis(no_digest, 0.9, inputs.N_PAIRS)
    assert oracles.check_report_text("coincidence analysis\n", payload)


def test_digest_repeat_oracle():
    first, _ = _report_json(_counts(seed=5))
    again, _ = _report_json(_counts(seed=5))
    other, _ = _report_json(_counts(seed=6))
    assert oracles.check_digest_repeat(first["digest"], again["digest"]) == []
    assert oracles.check_digest_repeat(first["digest"], other["digest"])
    assert oracles.check_digest_repeat(None, None)


@pytest.mark.parametrize("v", [0.6, 0.95])
def test_predict_oracle(tmp_path, v):
    cycle = dict(inputs.cli_cycles(2, 1)[0], v=v)
    config = tmp_path / "run.ini"
    config.write_text(inputs.cycle_config(cycle))
    out = tmp_path / "predict.json"
    assert cli.main(["predict", "--config", str(config), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert oracles.check_predict(payload, cycle) == []

    wrong = copy.deepcopy(payload)
    wrong["cascade"]["aperture_maximum"]["lhs"] *= 1.001
    assert oracles.check_predict(wrong, cycle)
    wrong = copy.deepcopy(payload)
    wrong["pdc"]["min_efficiency_for_violation"] = None if v > 0.75 else 0.9
    assert oracles.check_predict(wrong, cycle)
    assert oracles.check_predict({"pdc": {}}, cycle)

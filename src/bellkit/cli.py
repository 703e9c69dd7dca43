"""Command-line pipelines: validate, predict, analyze, search, simulate, report.

Exit codes: 0 success, 1 input error, 2 usage error (from argparse) or
internal error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
import traceback

from . import experiments, harness, search
from .inequalities import s_star_bound_visibility
from .models import FactorizableModel, validate_model


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    model = FactorizableModel.load(args.model)
    report = validate_model(model)
    _write_or_print(json.dumps(report.to_json(), indent=2, allow_nan=False) + "\n", args.output)
    return 0


def _predict_cascade(section: dict) -> dict:
    cfg = experiments.CascadeConfig(
        theta=float(section["theta"]),
        zeta=float(section["zeta"]),
        r0=float(section.get("r0", 1.0)),
        alpha=float(section.get("alpha", 1.0)),
    )
    eta, v, alpha = experiments.cascade_optics(cfg.theta, cfg.zeta)
    lhs, fulfilled = experiments.bi_margin(alpha * cfg.alpha, eta, v)
    max_lhs, theta_star = experiments.cascade_bi_maximum(cfg.zeta)
    max_lhs_both, _ = experiments.cascade_bi_maximum(cfg.zeta, both_detectors=True)
    ch, fc = experiments.cascade_inequality_reports(cfg)
    return {
        "eta": eta,
        "v": v,
        "alpha": alpha * cfg.alpha,
        "bell_condition_lhs": lhs,
        "bell_condition_fulfilled": fulfilled,
        "aperture_maximum": {"lhs": max_lhs, "theta": theta_star, "both_detectors": max_lhs_both},
        "verdicts": [ch.to_json(), fc.to_json()],
    }


def _pdc_config(section: dict) -> experiments.PdcConfig:
    return experiments.PdcConfig(
        v=float(section["v"]), eta=float(section["eta"]), r0=float(section.get("r0", 1.0))
    )


def _predict_pdc(section: dict) -> dict:
    cfg = _pdc_config(section)
    angles, _ = experiments.optimal_angles()
    rates = {
        f"phi={phi:+.6f}": experiments.two_channel_rates(cfg, phi) for phi in angles.as_tuple()
    }
    out = {
        "expected_s_star": 2.0 * math.sqrt(2.0) * cfg.v,
        "rates_at_canonical_angles": rates,
    }
    try:
        out["min_efficiency_for_violation"] = experiments.bi1_min_efficiency(cfg.v)
    except experiments.NoViolationPossibleError:
        out["min_efficiency_for_violation"] = None
    return out


def _cmd_predict(args) -> int:
    cfg = harness.load_config(args.config)
    out: dict = {}
    if "cascade" in cfg:
        out["cascade"] = _predict_cascade(cfg["cascade"])
    if "pdc" in cfg:
        out["pdc"] = _predict_pdc(cfg["pdc"])
    if not out:
        raise ValueError("config declares neither a [cascade] nor a [pdc] section")
    _write_or_print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n", args.output)
    return 0


def _analysis_config(cfg: dict) -> harness.AnalysisConfig:
    section = cfg.get("analysis", {})
    r0 = section.get("r0")
    return harness.AnalysisConfig(r0=float(r0) if r0 is not None else None)


def _cmd_analyze(args) -> int:
    ds = harness.ingest_counts(args.counts)
    cfg = _analysis_config(harness.load_config(args.config) if args.config else {})
    report = harness.run_analysis(ds, cfg)
    text = harness.render_report(report, args.format)
    _write_or_print(text, args.output)
    return 0


def _cmd_simulate(args) -> int:
    cfg = harness.load_config(args.config)
    if "pdc" not in cfg:
        raise ValueError("simulate requires a [pdc] section")
    pdc = _pdc_config(cfg["pdc"])
    n_pairs = int(cfg.get("analysis", {}).get("n_pairs", 10**6))
    stats = {}
    for (x, y), phi in harness.CANONICAL_PHI.items():
        rpp, rpm, rmp, rmm = experiments.two_channel_rates(pdc, phi)
        stats[(x, y)] = harness.TwoChannelCounts(rpp, rpm, rmp, rmm)
    ds = search.sample_counts(stats, n_pairs, args.seed)
    ds.save(args.output)
    return 0


def _cmd_search(args) -> int:
    cfg = harness.load_config(args.config) if args.config else {}
    section = cfg.get("search", {})
    if args.eta is not None:
        etas = [args.eta]
    elif "etas" in section:
        etas = [float(x) for x in str(section["etas"]).split(",")]
    elif "eta" in section:
        etas = [float(section["eta"])]
    else:
        raise ValueError("search requires --eta or a [search] eta/etas entry")
    results = [search.maximize_s_star(eta) for eta in etas]
    payload = [r.to_json() for r in results]
    body = payload[0] if len(payload) == 1 else {"results": payload}
    _write_or_print(json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n", args.output)
    return 0


def _cmd_report(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        data = json.load(fh)
    report = harness.AnalysisReport.from_json(data)
    _write_or_print(harness.render_report(report, args.format), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="local-realism toolkit: inequality tests, quantum predictions, "
        "detection-loophole search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a factorizable model JSON file")
    p.add_argument("model")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("predict", help="closed-form predictions from [cascade]/[pdc] config")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("analyze", help="analyze a counts CSV")
    p.add_argument("counts")
    p.add_argument("--config")
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate synthetic counts from [pdc] predictions")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("search", help="maximize S* over local mixtures at fixed efficiency")
    p.add_argument("--config")
    p.add_argument("--eta", type=float)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="re-render a saved JSON analysis report")
    p.add_argument("report")
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on its first call rather than at import.

    Parsing reads the parser and writes only to the fresh namespace it
    returns, so one parser serves every call in the process.
    """
    return build_parser()


INPUT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    KeyError,
    ValueError,
    json.JSONDecodeError,
    configparser.Error,
    harness.DatasetError,
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipelines: validate, predict, analyze, search, simulate, report.

Exit codes: 0 success, 1 input error, 2 usage error (from argparse) or
internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import traceback

# models and search import numpy, which analyze, predict and report never
# use, so only the commands that need them import them
from . import experiments, harness
from .inequalities import (CANONICAL_ANGLES, CANONICAL_PHI, TSIRELSON_BOUND, DatasetError,
                           TwoChannelCounts)

_KIND_NAMES = {float: "a finite number", int: "an integer", list: "a list of finite numbers"}


def _setting(cfg: dict, section: str, key: str, kind=float, default=dataclasses.MISSING):
    """The value of [section] key in a loaded config, converted by kind.

    kind float takes a finite number, int what int() takes (so neither 2.7
    nor 1e6), and list a comma-separated list of finite numbers.  A missing
    key gives default; without one (dataclasses.MISSING), and for a
    malformed value, ValueError names [section] key.
    """
    text = cfg.get(section, {}).get(key)
    if text is None:
        if default is dataclasses.MISSING:
            raise ValueError(f"[{section}] {key} is missing")
        return default
    items = text.split(",") if kind is list else [text]
    try:
        values = [int(item) if kind is int else float(item) for item in items]
    except ValueError:
        values = None
    if values is None or (kind is not int and not all(map(math.isfinite, values))):
        raise ValueError(f"[{section}] {key} = {text!r} is not {_KIND_NAMES[kind]}")
    return values if kind is list else values[0]


def _in_section(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), with [section] before the message of its ValueError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from None


def _config(cfg: dict, section: str, make):
    """The config dataclass make built from [section]: each field is a key,
    read by _setting in the order declared, with the field's default if it
    has one, so a class's fields are its section's keys and defaults."""
    values = {f.name: _setting(cfg, section, f.name, default=f.default)
              for f in dataclasses.fields(make)}
    return _in_section(section, make, **values)


def load_json(path):
    """The JSON document in a file, read as UTF-8 with or without a leading
    byte-order mark.  Bytes that are not UTF-8, JSON that json.loads refuses
    (an integer of more digits than int() converts included) and a nesting
    too deep for it (a RecursionError) are each a ValueError naming the file."""
    with open(path, "rb") as fh:
        text = harness._decode_utf8(fh.read(), f"{path}, ")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def write_text(path: str | None, text: str) -> None:
    """Write text as UTF-8 to path, in place, or to stdout when path is None
    (no --output; main() refuses "").  The bytes, a new file's mode (0o666
    less the umask), an existing file's inode, symlink-following and the
    errors raised are those of open(path, "w", encoding="utf-8") on POSIX.
    The text is encoded first, so an encoding error leaves the file
    untouched.  A regular file is cut to the new length after the write, not
    truncated on open: ext4 (auto_da_alloc) starts a writeback when a file
    truncated to zero is closed.  Nothing is fsynced, so a write that fails
    part-way (a full disk) can leave the new text before the rest of the old.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_validate(args) -> int:
    from .models import FactorizableModel, validate_model

    report = validate_model(FactorizableModel.from_json(load_json(args.model)))
    write_text(args.output, json.dumps(report.to_json(), indent=2, allow_nan=False) + "\n")
    return 0


def _predict_cascade(cfg: dict) -> dict:
    cascade = _config(cfg, "cascade", experiments.CascadeConfig)
    eta, v = experiments.cascade_optics(cascade.theta, cascade.zeta)
    lhs, fulfilled = experiments.bi_margin(cascade.alpha, eta, v)
    max_lhs, theta_star = experiments.cascade_bi_maximum(cascade.zeta)
    # each photon may reach either detector, which doubles the maximum
    aperture_maximum = {"lhs": max_lhs, "theta": theta_star, "both_detectors": 2.0 * max_lhs}
    ch, fc = experiments.prediction_reports(eta, v, cascade.alpha)
    return {
        "eta": eta,
        "v": v,
        "alpha": cascade.alpha,
        "bell_condition_lhs": lhs,
        "bell_condition_fulfilled": fulfilled,
        "aperture_maximum": aperture_maximum,
        "verdicts": [ch.to_json(), fc.to_json()],
    }


def _predict_pdc(cfg: dict) -> dict:
    pdc = _config(cfg, "pdc", experiments.PdcConfig)
    rates = {
        f"phi={phi:+.6f}": experiments.two_channel_rates(pdc, phi) for phi in CANONICAL_ANGLES
    }
    return {
        "expected_s_star": TSIRELSON_BOUND * pdc.v,
        "rates_at_canonical_angles": rates,
        "min_efficiency_for_violation": experiments.bi1_min_efficiency(pdc.v),
    }


def _cmd_predict(args) -> int:
    cfg = harness.load_config(args.config)
    out: dict = {}
    if "cascade" in cfg:
        out["cascade"] = _predict_cascade(cfg)
    if "pdc" in cfg:
        out["pdc"] = _predict_pdc(cfg)
    if not out:
        raise ValueError("config declares neither a [cascade] nor a [pdc] section")
    write_text(args.output, json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    # a DatasetError names the line or no place at all; the file is named here
    try:
        ds = harness.ingest_counts(args.counts)
        cfg = harness.load_config(args.config) if args.config else {}
        report = harness.run_analysis(ds, _config(cfg, "analysis", harness.AnalysisConfig))
    except DatasetError as exc:
        raise DatasetError(f"{args.counts}: {exc}") from None
    write_text(args.output, harness.render_report(report, args.format))
    return 0


def _cmd_simulate(args) -> int:
    from . import search

    # numpy's generator takes only non-negative seeds, and its message names
    # no field
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed} is negative")
    cfg = harness.load_config(args.config)
    if "pdc" not in cfg:
        raise ValueError("simulate requires a [pdc] section")
    pdc = _config(cfg, "pdc", experiments.PdcConfig)
    n_pairs = _setting(cfg, "analysis", "n_pairs", kind=int, default=10**6)
    stats = {}
    for (x, y), phi in CANONICAL_PHI.items():
        rates = experiments.two_channel_rates(pdc, phi)
        # eta = 0, or an eta * r0 below the smallest float, leaves nothing to
        # sample, and rates whose sum overflows leave no probabilities; the
        # sampler's message names a pair, not the fields
        total = sum(rates)
        if not 0.0 < total < math.inf:
            outcome = "no coincidences" if total == 0.0 else "rates whose sum overflows"
            raise ValueError(f"[pdc] eta = {pdc.eta!r} with r0 = {pdc.r0!r} gives {outcome}")
        stats[(x, y)] = TwoChannelCounts(*rates)
    ds = _in_section("analysis", search.sample_counts, stats, n_pairs, args.seed)
    write_text(args.output, ds.to_csv())
    return 0


def _cmd_search(args) -> int:
    from . import search

    cfg = harness.load_config(args.config) if args.config else {}
    section = cfg.get("search", {})
    if args.eta is not None:
        source, etas = "--eta", [args.eta]
    elif "etas" in section:
        source, etas = "[search] etas", _setting(cfg, "search", "etas", kind=list)
    elif "eta" in section:
        source, etas = "[search] eta", [_setting(cfg, "search", "eta")]
    else:
        raise ValueError("search requires --eta or a [search] eta/etas entry")
    try:
        results = [search.maximize_s_star(eta) for eta in etas]
    except ValueError as exc:
        # maximize_s_star names eta, not where the value came from
        raise ValueError(f"{source}: {exc}") from None
    payload = [r.to_json() for r in results]
    body = payload[0] if len(payload) == 1 else {"results": payload}
    write_text(args.output, json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


def _cmd_report(args) -> int:
    report = harness.AnalysisReport.from_json(load_json(args.report))
    write_text(args.output, harness.render_report(report, args.format))
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

    # main() hands a command's arguments straight to its parser
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on its first call rather than at import.

    Parsing reads the parser and writes only to the fresh namespace it
    returns, so one parser serves every call in the process.
    """
    return build_parser()


# Errors that mean bad input (exit 1): OSError for files that cannot be
# read or written, ValueError for malformed data or values, DatasetError and
# JSONDecodeError included.
INPUT_ERRORS = (OSError, ValueError)


def _parse(argv: list) -> argparse.Namespace:
    """parse_args of the top-level parser, which hands everything after the
    command name to that command's parser.  That parser is called directly;
    the top-level one answers what it would answer itself: -h, a missing or
    unknown command, and unrecognized arguments, named under its own usage.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        # every subcommand takes --output; "" would otherwise mean stdout to
        # some and a nameless file to simulate
        if args.output == "":
            raise ValueError("--output is empty")
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

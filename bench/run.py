"""bellkit benchmark: three oracle-checked workloads, end to end or traced.

Run from the root of a checkout, with nothing installed:

    python3 bench/run.py --workload feasibility-batch --seed 1 --seconds 20 --trace 0

Workloads (all closed loops with one client):
  cli-pipeline       `cli.main` in process, one command at a time: simulate,
                     analyze --format json, report, predict, search; then one
                     cycle as `python -m bellkit.cli` subprocesses.
  feasibility-batch  in process: random factorizable models interleaved with
                     5-level grid points through the feasibility layer.
  loophole-scan      in process: maximize_s_star over a shuffled eta grid.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
times every call into the program's layers and reports per-layer metrics.
Every output is checked against an oracle in oracles.py; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Full results, provenance and trace spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import oracles
import reference
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
FEASIBILITY_STREAM = 4096
CLI_CYCLES = 3 * len(inputs.ETA_GRID)  # every eta three times
SUBCOMMANDS = ("simulate", "analyze", "report", "predict", "search")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# (name, unit, better): reported with --trace 0 on every workload.  Operation
# times are in units of the reference kernel timed beside them (reference.py),
# because the host's speed changes in phases as long as a run; the same
# figures in milliseconds are printed but not among them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_median_ref", "ref", "lower"),
    ("op_p90_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Functions wrapped in spans during a traced run, by bellkit module.
TRACED = {
    "harness": ("load_config", "ingest_counts", "run_analysis", "render_report"),
    "search": ("sample_counts", "maximize_s_star", "mixture_statistics"),
    "experiments": ("cascade_bi_maximum", "two_channel_rates"),
    "models": ("probability_set_from_model", "scan_ch_family", "joint_feasibility"),
    "inequalities": ("ch_report",),
}
BUSY_LAYERS = ("cli", "harness", "search", "experiments", "models", "inequalities", "lp")
ERROR_LAYERS = ("import",) + BUSY_LAYERS

# (name, unit, better): reported with --trace 1 on every workload.  A
# per-call time of a function the workload never calls reads 0.
PER_LAYER = (
    ("import.bellkit_ms", "ms", "lower"),
    ("import.scipy_optimize_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    *((f"cli.{sub}.self_ms", "ms", "lower") for sub in SUBCOMMANDS),
    ("harness.load_config.us", "us", "lower"),
    ("harness.ingest_counts.us", "us", "lower"),
    ("harness.run_analysis.us", "us", "lower"),
    ("harness.render_report.us", "us", "lower"),
    ("search.sample_counts.ms", "ms", "lower"),
    ("search.maximize_s_star.ms", "ms", "lower"),
    ("search.mixture_statistics.us", "us", "lower"),
    ("search.max_abs_err", "1", "lower"),
    ("experiments.cascade_bi_maximum.us", "us", "lower"),
    ("experiments.two_channel_rates.us", "us", "lower"),
    ("scipy.minimize_scalar.calls", "calls/op", "lower"),
    ("models.probability_set_from_model.us", "us", "lower"),
    ("inequalities.ch_report.us", "us", "lower"),
    ("models.scan_ch_family.us", "us", "lower"),
    ("models.joint_feasibility.feasible_us", "us", "lower"),
    ("models.joint_feasibility.infeasible_us", "us", "lower"),
    ("models.joint_feasibility.infeasible_ratio", "ratio", "lower"),
    ("lp.calls_per_op", "calls/op", "lower"),
    ("lp.iterations_per_call", "count", "lower"),
    ("lp.nonoptimal_ratio", "ratio", "lower"),
    *((f"{layer}.busy_share", "ratio", "lower") for layer in BUSY_LAYERS),
    *((f"{layer}.errors", "count", "lower") for layer in ERROR_LAYERS),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class SetupError(RuntimeError):
    """The benchmark cannot run the program from this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def check_origin(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "bellkit").resolve():
        raise SetupError(f"bellkit resolves to {path}, not to {SRC / 'bellkit'}")


def load_bellkit() -> SimpleNamespace:
    """Import bellkit from this checkout's src/ and nowhere else."""
    if not (SRC / "bellkit").is_dir():
        raise SetupError(f"no bellkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        bellkit = importlib.import_module("bellkit")
    except ImportError as exc:
        raise SetupError(f"cannot import bellkit from {SRC}: {exc}") from exc
    check_origin(bellkit.__file__)
    names = ("cli", "experiments", "harness", "inequalities", "models", "search")
    mods = {name: importlib.import_module(f"bellkit.{name}") for name in names}
    return SimpleNamespace(version=bellkit.__version__, **mods)


def cold_import() -> None:
    """Import bellkit in a fresh interpreter, as every CLI call does."""
    proc = subprocess.run(
        [sys.executable, "-c", "import bellkit; print(bellkit.__file__)"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"fresh interpreter cannot import bellkit: {proc.stderr.strip()[-300:]}")
    check_origin(proc.stdout.strip())


def parse_importtime(text: str) -> dict[str, int]:
    """Module -> cumulative microseconds, from `python -X importtime` output."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the column header line
            continue
        out.setdefault(parts[2].strip(), cumulative)
    return out


def import_times() -> tuple[dict[str, float], int]:
    """Median import milliseconds of bellkit, scipy.optimize and numpy over
    fresh interpreters; a module that `import bellkit` does not load reads 0."""
    samples: dict[str, list[float]] = {"bellkit": [], "scipy.optimize": [], "numpy": []}
    errors = 0
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bellkit"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            errors += 1
            continue
        cumulative = parse_importtime(proc.stderr)
        for name, values in samples.items():
            values.append(cumulative.get(name, 0) / 1000.0)
    return {name: median(values) for name, values in samples.items()}, errors


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, workload: str, bk) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "bellkit": bk.version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(fails[: max(0, 50 - len(self.messages))])


def check(workload, k: int, result, **kwargs) -> list[str]:
    """The workload's oracles on operation k; a result they cannot read fails."""
    try:
        return workload.check_op(k, result, **kwargs)
    except Exception as exc:  # a malformed result is a failed operation
        return [f"op {k}: unreadable result: {type(exc).__name__}: {exc}"]


@dataclass
class Measured:
    durations: list  # seconds per operation
    relative: list  # the same over the nearby reference kernel time
    setups: list  # seconds per set-up
    parts: list  # index of the first operation after each set-up
    peak_rss_mb: float
    table: dict  # further named results: name -> (value, unit)


class Workload:
    """Seeded inputs and one operation, timed in this process.

    Subclasses define prepare() (inputs and warm-up, repeatable), run_op(k)
    (operation k, calling bellkit through module attributes so a traced run
    can wrap them), check_op(k, result) (oracle failures) and table().
    """

    def __init__(self, bk, seed: int, work: Path):
        self.bk = bk
        self.seed = seed
        self.work = work
        self.span = nullcontext  # a traced run swaps in Tracer.span

    def set_up(self) -> float:
        """One set-up: a fresh-interpreter import, inputs and warm-up; seconds."""
        t0 = time.perf_counter()
        cold_import()
        self.prepare()
        return time.perf_counter() - t0

    def measure(self, seconds: float, tally: Tally) -> Measured:
        """SETUP_REPEATS set-ups spread over the run, each followed by an
        equal share of `seconds` of operations, so that the set-up median
        does not rest on one speed phase of the host."""
        timeline, setups, parts = reference.Timeline(), [], []
        k = 0
        for _ in range(SETUP_REPEATS):
            setups.append(self.set_up())
            parts.append(k)
            timeline.reference()
            start = time.perf_counter()
            while k == parts[-1] or time.perf_counter() - start < seconds / SETUP_REPEATS:
                t0 = time.perf_counter()
                try:
                    result, fails = self.run_op(k), None
                except Exception as exc:  # the op boundary: record and go on
                    fails = [f"op {k}: {type(exc).__name__}: {exc}"]
                timeline.op(t0, time.perf_counter())
                tally.record(check(self, k, result) if fails is None else fails)
                k += 1
        timeline.reference()
        durations = [d for _, d in timeline.ops]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        table = self.table(durations)
        table["reference_ms"] = (median([d for _, d in timeline.refs]) * 1e3, "ms")
        return Measured(durations, timeline.relative(), setups, parts, rss, table)


class FeasibilityBatch(Workload):
    name = "feasibility-batch"

    def prepare(self) -> None:
        models, inequalities = self.bk.models, self.bk.inequalities
        self.points = []
        for point in inputs.feasibility_stream(self.seed, FEASIBILITY_STREAM):
            if point[0] == "model":
                _, w, t1, t2 = point
                space = models.HiddenVariableSpace(tuple(f"c{i}" for i in range(len(w))), w)
                model = models.FactorizableModel(
                    space,
                    models.ResponseTable(1, ("A", "C"), t1),
                    models.ResponseTable(2, ("B", "D"), t2),
                )
                self.points.append((point, model))
            else:
                self.points.append((point, inequalities.ProbabilitySet(*point[1])))
        self.facets = {name: (coeff, offset) for name, coeff, offset in models.CH_FAMILY_FACETS}
        for k in range(64):
            self.run_op(k)

    def run_op(self, k):
        raw, built = self.points[k % len(self.points)]
        models, inequalities = self.bk.models, self.bk.inequalities
        ps = models.probability_set_from_model(built) if raw[0] == "model" else built
        return ps, inequalities.ch_report(ps), models.scan_ch_family(ps), models.joint_feasibility(ps)

    def check_op(self, k, result) -> list[str]:
        raw, _ = self.points[k % len(self.points)]
        ps, ch, _scan, verdict = result
        x = (ps.pA, ps.pB, ps.pAB, ps.pAD, ps.pCB, ps.pCD)
        is_model = raw[0] == "model"
        fails = oracles.check_model_probabilities(*raw[1:], x) if is_model else []
        fails += oracles.check_ch(x, ch.lhs, ch.rhs, must_hold=is_model)
        if isinstance(verdict, self.bk.models.Feasible):
            fails += oracles.check_witness(x, verdict.witness.probabilities)
        elif isinstance(verdict, self.bk.models.Infeasible):
            if is_model:
                fails.append("a factorizable model was judged infeasible")
            cert = verdict.certificate
            fails += oracles.check_certificate(x, cert.name, cert.lhs, cert.rhs, self.facets)
        else:
            fails.append(f"unknown verdict {type(verdict).__name__}")
        return [f"point {k % len(self.points)}: {f}" for f in fails]

    def table(self, durations) -> dict:
        return {
            "feasibility_points_per_s": (len(durations) / sum(durations), "1/s"),
            "feasibility_point_us_p90": (p90(durations) * 1e6, "us"),
        }


class LoopholeScan(Workload):
    name = "loophole-scan"

    def __init__(self, bk, seed: int, work: Path):
        super().__init__(bk, seed, work)
        self.max_abs_err = 0.0

    def prepare(self) -> None:
        self.etas = inputs.eta_order(self.seed)
        self.run_op(0)

    def run_op(self, k):
        return self.bk.search.maximize_s_star(self.etas[k % len(self.etas)])

    def check_op(self, k, result) -> list[str]:
        eta = self.etas[k % len(self.etas)]
        err = abs(result.s_star_max - oracles.s_star_max(eta))
        self.max_abs_err = max(self.max_abs_err, err)
        return oracles.check_search(eta, result.s_star_max, result.genuine_s)

    def table(self, durations) -> dict:
        return {
            "search_solve_ms": (median(durations) * 1e3, "ms"),
            "search_solve_ms_p90": (p90(durations) * 1e3, "ms"),
            "search_max_abs_err": (self.max_abs_err, "1"),
        }


class CliPipeline(Workload):
    """Closed loop over the CLI: one operation is one cycle of the five
    commands, each through `cli.main` in this process.

    After the timed loop, one cycle runs as `python -m bellkit.cli`
    subprocesses, and its counts are analyzed a second time.  Their outputs
    pass the same oracles, and their wall times are reported.
    """

    name = "cli-pipeline"

    def __init__(self, bk, seed: int, work: Path):
        super().__init__(bk, seed, work)
        self.env = child_env()
        self.max_abs_err = 0.0
        self.reports: dict[tuple[str, int], dict] = {}

    def prepare(self) -> None:
        self.cycles = inputs.cli_cycles(self.seed, CLI_CYCLES)
        for c, cycle in enumerate(self.cycles):
            (self.work / f"config{c}.ini").write_text(inputs.cycle_config(cycle), encoding="utf-8")
        self.run_op(0, prefix="warm")

    def paths(self, prefix: str, c: int) -> dict[str, Path]:
        return {
            sub: self.work / f"{prefix}{c}-{sub}.{ext}"
            for sub, ext in zip(SUBCOMMANDS, ("csv", "json", "txt", "json", "json"))
        }

    def argv(self, sub: str, c: int, prefix: str) -> list[str]:
        cycle, out, config = self.cycles[c], self.paths(prefix, c), str(self.work / f"config{c}.ini")
        args = {
            "simulate": ["--config", config, "--seed", str(cycle["sample_seed"])],
            "analyze": [str(out["simulate"]), "--format", "json"],
            "report": [str(out["analyze"])],
            "predict": ["--config", config],
            "search": ["--eta", repr(cycle["search_eta"])],
        }[sub]
        return [sub, *args, "--output", str(out[sub])]

    def run_op(self, k: int, prefix: str = "inproc"):
        """Cycle k through cli.main; returns (exit code, stderr) per command."""
        results = []
        for sub in SUBCOMMANDS:
            with self.span(f"cli.{sub}") as span:
                try:
                    code = self.bk.cli.main(self.argv(sub, k % CLI_CYCLES, prefix))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                if code and span is not None:
                    span.error = True
            results.append((code, ""))
        return results

    def check_op(self, k: int, result, prefix: str = "inproc") -> list[str]:
        fails = []
        for sub, (code, stderr) in zip(SUBCOMMANDS, result):
            fails += self.check_command(sub, k % CLI_CYCLES, prefix, code, stderr)
        return fails

    def check_command(self, sub: str, c: int, prefix: str, code: int, stderr: str) -> list[str]:
        fails = oracles.check_exit(sub, code, stderr)
        if fails:
            return fails
        cycle, path = self.cycles[c], self.paths(prefix, c)[sub]
        text = path.read_text(encoding="utf-8")
        if sub == "simulate":
            return oracles.check_counts_csv(text, inputs.N_PAIRS)
        if sub == "report":
            return oracles.check_report_text(text, self.reports.get((prefix, c)))
        payload, fails = oracles.parse_json(sub, text)
        if fails:
            return fails
        if sub == "analyze":
            self.reports[(prefix, c)] = payload
            return oracles.check_analysis(payload, cycle["v"], inputs.N_PAIRS)
        if sub == "predict":
            return oracles.check_predict(payload, cycle)
        eta = cycle["search_eta"]
        self.max_abs_err = max(self.max_abs_err, abs(payload["s_star_max"] - oracles.s_star_max(eta)))
        return oracles.check_search(eta, payload["s_star_max"], payload["genuine_s"])

    def spawn(self, argv: list[str]):
        """Run one CLI subprocess; (wall s, cpu s, max rss MB, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bellkit.cli", *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stderr

    def measure(self, seconds: float, tally: Tally) -> Measured:
        measured = super().measure(seconds, tally)
        results = []
        for sub in SUBCOMMANDS:
            wall, cpu, peak, code, stderr = self.spawn(self.argv(sub, 0, "proc"))
            measured.table[f"cli_{sub}_ms"] = (wall * 1e3, "ms")
            measured.table[f"cli_{sub}_cpu_ms"] = (cpu * 1e3, "ms")
            measured.peak_rss_mb = max(measured.peak_rss_mb, peak)
            results.append((code, stderr))
        tally.record(check(self, 0, results, prefix="proc"))
        tally.record(self.repeat_analyze())
        return measured

    def table(self, durations) -> dict:
        return {"search_max_abs_err": (self.max_abs_err, "1")}

    def repeat_analyze(self) -> list[str]:
        """Analyze the first cycle's counts again; the digest must not change."""
        out = self.paths("proc", 0)
        again = self.work / "repeat-analyze.json"
        argv = ["analyze", str(out["simulate"]), "--format", "json", "--output", str(again)]
        _, _, _, code, stderr = self.spawn(argv)
        fails = oracles.check_exit("analyze (repeat)", code, stderr)
        if fails:
            return fails
        payload, fails = oracles.parse_json("analyze (repeat)", again.read_text(encoding="utf-8"))
        if fails:
            return fails
        first = self.reports.get(("proc", 0), {}).get("digest")
        return oracles.check_digest_repeat(first, payload.get("digest"))


WORKLOADS = {w.name: w for w in (CliPipeline, FeasibilityBatch, LoopholeScan)}


def trace_targets(bk) -> list:
    describe = {("models", "joint_feasibility"): lambda verdict: type(verdict).__name__}
    return [
        (getattr(bk, module), attr, describe.get((module, attr)))
        for module, attrs in TRACED.items()
        for attr in attrs
    ]


def lp_info(result):
    return int(result.status), int(getattr(result, "nit", 0) or 0)


def traced_run(bk, workload, seconds: float, tally: Tally) -> tuple[Tracer, int, float]:
    """Traced pass for half the time, then the same operations untraced.

    Returns the tracer, the number of operations and the traced over
    untraced time of those operations.
    """
    scipy_optimize = importlib.import_module("scipy.optimize")
    tracer = Tracer()
    workload.span = tracer.span
    n = 0
    with tracer.patched(trace_targets(bk)), tracer.profiled(
        {scipy_optimize.linprog.__code__: ("lp.linprog", lp_info)},
        {scipy_optimize.minimize_scalar.__code__: "scipy.minimize_scalar"},
    ):
        start = time.perf_counter()
        while n < 1 or time.perf_counter() - start < seconds / 2:
            try:
                with tracer.op():
                    result = workload.run_op(n)
                fails = check(workload, n, result)
            except Exception as exc:  # the op boundary: record and go on
                fails = [f"op {n}: {type(exc).__name__}: {exc}"]
            tally.record(fails)
            n += 1
    workload.span = nullcontext
    untraced = 0.0
    for k in range(n):
        t0 = time.perf_counter()
        try:
            workload.run_op(k)
        except Exception:  # already recorded in the traced pass
            pass
        untraced += time.perf_counter() - t0
    traced = sum(s.duration for s in tracer.spans if s.name == "op")
    return tracer, n, traced / untraced


def layer_metrics(tracer: Tracer, n_ops: int, overhead: float, imports, import_errors, max_err):
    spans = tracer.spans
    selfs = self_times(spans)

    def per_call(name, scale, keep=lambda s: True):
        return median([s.duration * scale for s in spans if s.name == name and keep(s)])

    op_total = sum(s.duration for s in spans if s.name == "op")
    busy = {layer: 0.0 for layer in BUSY_LAYERS}
    errors = {layer: 0 for layer in ERROR_LAYERS}
    for s in spans:
        if s.layer in busy:
            busy[s.layer] += selfs[s.id]
        if s.error and s.layer in errors:
            errors[s.layer] += 1
    errors["import"] = import_errors
    lp = [s for s in spans if s.name == "lp.linprog"]
    lp_done = [s.info for s in lp if s.info is not None]
    jf = [s for s in spans if s.name == "models.joint_feasibility" and s.info is not None]

    values = {
        "import.bellkit_ms": imports["bellkit"],
        "import.scipy_optimize_ms": imports["scipy.optimize"],
        "import.numpy_ms": imports["numpy"],
        "search.max_abs_err": max_err,
        "scipy.minimize_scalar.calls": tracer.counts.get("scipy.minimize_scalar", 0) / n_ops,
        "models.joint_feasibility.feasible_us": per_call(
            "models.joint_feasibility", 1e6, lambda s: s.info == "Feasible"
        ),
        "models.joint_feasibility.infeasible_us": per_call(
            "models.joint_feasibility", 1e6, lambda s: s.info == "Infeasible"
        ),
        "models.joint_feasibility.infeasible_ratio": (
            sum(s.info == "Infeasible" for s in jf) / len(jf) if jf else 0.0
        ),
        "lp.calls_per_op": len(lp) / n_ops,
        "lp.iterations_per_call": (sum(nit for _, nit in lp_done) / len(lp_done)) if lp_done else 0.0,
        "lp.nonoptimal_ratio": (sum(st != 0 for st, _ in lp_done) / len(lp_done)) if lp_done else 0.0,
        "trace.overhead_ratio": overhead,
    }
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.self_ms"] = median(
            [selfs[s.id] * 1e3 for s in spans if s.name == f"cli.{sub}"]
        )
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".busy_share"):
            values[name] = busy[name.split(".")[0]] / op_total
        elif name.endswith(".errors"):
            values[name] = errors[name.split(".")[0]]
        else:
            values[name] = per_call(name.rsplit(".", 1)[0], 1e6 if unit == "us" else 1e3)
    return values


def run_workload(args, name: str, bk, process_import_s: float) -> dict:
    """Set up one workload several times, then measure or trace it."""
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](bk, args.seed, work)
        tally = Tally()
        table: dict[str, tuple] = {}
        setup_samples: list[float] = []
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            workload.prepare()
            imports, import_errors = import_times()
            tracer, n_ops, overhead = traced_run(bk, workload, args.seconds, tally)
            max_err = getattr(workload, "max_abs_err", 0.0)
            values = layer_metrics(tracer, n_ops, overhead, imports, import_errors, max_err)
            metrics = {metric: (values[metric], unit) for metric, unit, _ in PER_LAYER}
            tracer.write(OUT / f"{stem}.spans.jsonl")
        else:
            measured = workload.measure(args.seconds, tally)
            d, rel, setup_samples = measured.durations, measured.relative, measured.setups
            bounds = measured.parts + [len(rel)]
            parts = [rel[begin:end] for begin, end in zip(bounds, bounds[1:])]
            metrics = {
                "setup_s": (median(setup_samples), "s"),
                "op_median_ref": (median(rel), "ref"),
                # the median over the parts of the run: a slow burst of the
                # host that lands in one part moves one part's tail only
                "op_p90_ref": (median([p90(part) for part in parts]), "ref"),
                "peak_rss_mb": (measured.peak_rss_mb, "MB"),
            }
            table = {
                "op_median_ms": (median(d) * 1e3, "ms"),
                "op_p90_ms": (p90(d) * 1e3, "ms"),
                "ops_per_s": (len(d) / sum(d), "1/s"),
                "operations": (len(d), "count"),
            }
            table.update(measured.table)
        table["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
        table["process_import_s"] = (process_import_s, "s")
    finally:
        for path in sorted(work.iterdir()):
            path.unlink()
        work.rmdir()

    prov = provenance(args, name, bk)
    print(f"workload {name}:")
    for metric, (value, unit) in {**metrics, **table}.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for message in tally.messages[:20]:
        print(f"  FAILED: {message}")
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    record = {
        "provenance": prov,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "table": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    t0 = time.perf_counter()
    bk = load_bellkit()
    process_import_s = time.perf_counter() - t0
    if args.workload != "all":
        result = run_workload(args, args.workload, bk, process_import_s)
    else:
        # every workload in this one process, one after another; metric
        # names are prefixed with the workload
        results = {name: run_workload(args, name, bk, process_import_s) for name in WORKLOADS}
        result = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    result = {"correct": result["failed"] == 0, **result}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

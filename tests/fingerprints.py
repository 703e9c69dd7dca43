"""Fingerprints of bellkit's answers, for checking that a change keeps them.

Run from the repository root as

    PYTHONPATH=src python tests/fingerprints.py

and compare the printed hashes with those of the parent tree.  Each is the
first 16 hex digits of a SHA-256 fed one item at a time, in order:

- verdict types: the class name of joint_feasibility's verdict on every
  point of bench/inputs.feasibility_stream(seed, 4096), seeds 601, 602, 713;
- certificates: repr((name, lhs, rhs, margin)) of each Infeasible verdict's
  certificate over the same points;
- the 15 288 points: verdict types, certificates and repr(verdict) of every
  verdict, witnesses included, over those points followed by the first 3000
  points ProbabilitySet accepts in the loop of acceptance criterion 6 (rng
  seed 8_2026, 5-level grid);
- search: json.dumps(r.to_json(), sort_keys=True) + repr((r.s_star_max,
  r.genuine_s)) of maximize_s_star(eta) for eta = k/100 (k = 10..100), 2e-9,
  0.333, 0.7777 and 0.999;
- cli: the output bytes of simulate, analyze (json and text) and report (text
  and json) over the 57 bench cli-pipeline cycles of seeds 601, 602 and 713,
  generated_at blanked, each preceded by its exit code;
- cli with CH: the same cycles' counts given singles and durations, analyzed
  and reported with [analysis] r0, so the report carries the CH verdict,
  plus fixed datasets whose CH probabilities are refused, with stderr.

pytest does not collect this file.  It reads bench/inputs.py and nothing
else under bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import inputs  # noqa: E402
import numpy as np  # noqa: E402

from bellkit import cli, models  # noqa: E402
from bellkit.inequalities import ProbabilitySet  # noqa: E402
from bellkit.search import maximize_s_star  # noqa: E402

STREAM_SEEDS = (601, 602, 713)
CLI_CYCLES = 3 * len(inputs.ETA_GRID)
SEARCH_ETAS = [k / 100 for k in range(10, 101)] + [2e-9, 0.333, 0.7777, 0.999]

# counts at r0 = 10000 whose CH probabilities ProbabilitySet refuses with
# singles_a 300 (below n_pp) or 20000 (above the pairs expected), and takes
# with 2000
REFUSED_CH = (
    "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm,singles_a,singles_b,duration\n"
    "A,B,400,100,100,400,{singles},2000,1.0\n"
    "A,D,400,100,100,400,,,1.0\n"
    "C,B,400,100,100,400,,,1.0\n"
    "C,D,100,400,400,100,,,1.0\n"
)


class Fingerprint:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, item: str) -> None:
        self.sha.update(item.encode())
        self.count += 1

    def __str__(self) -> str:
        return f"{self.sha.hexdigest()[:16]} ({self.count} items)"


def stream_point(point) -> ProbabilitySet:
    if point[0] == "grid":
        return ProbabilitySet(*point[1])
    _, weights, side1, side2 = point
    space = models.HiddenVariableSpace(tuple(f"c{i}" for i in range(len(weights))), weights)
    model = models.FactorizableModel(
        space, models.ResponseTable(1, ("A", "C"), side1), models.ResponseTable(2, ("B", "D"), side2)
    )
    return models.probability_set_from_model(model)


def criterion_6_points(n: int):
    """The first n points ProbabilitySet accepts in acceptance criterion 6."""
    rng = np.random.default_rng(8_2026)
    grid = np.linspace(0.0, 1.0, 5)
    while n:
        p_a, p_b = rng.choice(grid, size=2)
        pairs = rng.choice(grid, size=4) * min(p_a, p_b)
        try:
            ps = ProbabilitySet(p_a, p_b, *pairs)
        except ValueError:
            continue
        n -= 1
        yield ps


class Verdicts:
    """Fingerprints of joint_feasibility's verdicts: their type names, their
    certificates, and their whole reprs."""

    def __init__(self):
        self.types, self.certificates, self.reprs = Fingerprint(), Fingerprint(), Fingerprint()

    def add(self, verdict) -> None:
        self.types.add(type(verdict).__name__)
        if isinstance(verdict, models.Infeasible):
            c = verdict.certificate
            self.certificates.add(repr((c.name, c.lhs, c.rhs, c.margin)))
        self.reprs.add(repr(verdict))


def feasibility() -> tuple[Verdicts, Verdicts]:
    """The verdicts over the bench streams, and over the 15 288 points."""
    streams, points = Verdicts(), Verdicts()
    for seed in STREAM_SEEDS:
        for point in inputs.feasibility_stream(seed, 4096):
            verdict = models.joint_feasibility(stream_point(point))
            streams.add(verdict)
            points.add(verdict)
    for ps in criterion_6_points(3000):
        points.add(models.joint_feasibility(ps))
    return streams, points


def search() -> Fingerprint:
    fp = Fingerprint()
    for eta in SEARCH_ETAS:
        r = maximize_s_star(eta)
        fp.add(json.dumps(r.to_json(), sort_keys=True) + repr((r.s_star_max, r.genuine_s)))
    return fp


def run(fp: Fingerprint, *argv: str) -> Path | None:
    """cli.main(argv) into fp: exit code, stderr, and the --output file with
    generated_at blanked.  The output path, or None on a failed command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    out = Path(argv[argv.index("--output") + 1])
    # every file lives in one temporary directory, which messages name
    fp.add(f"{argv[0]} exit {code}\n{err.getvalue().replace(str(out.parent), '<work>')}")
    if code != 0:
        return None
    fp.add(re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out.read_text(encoding="utf-8")))
    return out


def analyze_and_report(fp: Fingerprint, counts: Path, work: Path, *config: str) -> None:
    run(fp, "analyze", str(counts), *config, "--format", "text", "--output", str(work / "a.txt"))
    saved = run(fp, "analyze", str(counts), *config, "--format", "json", "--output", str(work / "a.json"))
    if saved is not None:
        for fmt in ("text", "json"):
            run(fp, "report", str(saved), "--format", fmt, "--output", str(work / f"r.{fmt}"))


def with_ch_columns(csv: str) -> str:
    """The counts of a simulated CSV with singles on each side of four times
    the largest n_pp, and a duration of 1.0 on every row."""
    lines = csv.splitlines()
    rows = [line.split(",") for line in lines if not line.startswith(("#", "setting_a"))]
    singles = 4 * max(int(row[2]) for row in rows)
    body = [f"{','.join(row)},{singles},{singles},1.0" for row in rows]
    header = next(line for line in lines if line.startswith("setting_a"))
    comments = [line for line in lines if line.startswith("#")]
    return "\n".join([*comments, f"{header},singles_a,singles_b,duration", *body]) + "\n"


def cli_outputs() -> tuple[Fingerprint, Fingerprint]:
    plain, ch = Fingerprint(), Fingerprint()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in STREAM_SEEDS:
            for cycle in inputs.cli_cycles(seed, CLI_CYCLES):
                config = work / "config.ini"
                config.write_text(inputs.cycle_config(cycle), encoding="utf-8")
                counts = run(plain, "simulate", "--config", str(config),
                             "--seed", str(cycle["sample_seed"]), "--output", str(work / "c.csv"))
                analyze_and_report(plain, counts, work)
                absolute = work / "ch.csv"
                absolute.write_text(with_ch_columns(counts.read_text(encoding="utf-8")), encoding="utf-8")
                # 4e6 pairs expected against 1e6 coincidences per setting pair
                (work / "r0.ini").write_text("[analysis]\nr0 = 4e6\n", encoding="utf-8")
                analyze_and_report(ch, absolute, work, "--config", str(work / "r0.ini"))
        (work / "r0.ini").write_text("[analysis]\nr0 = 10000\n", encoding="utf-8")
        for singles in (300, 20000, 2000):
            counts = work / "refused.csv"
            counts.write_text(REFUSED_CH.format(singles=singles), encoding="utf-8")
            analyze_and_report(ch, counts, work, "--config", str(work / "r0.ini"))
    return plain, ch


def main() -> None:
    streams, points = feasibility()
    print(f"feasibility verdict types  {streams.types}")
    print(f"feasibility certificates   {streams.certificates}")
    print(f"15 288 verdict types       {points.types}")
    print(f"15 288 certificates        {points.certificates}")
    print(f"15 288 verdict reprs       {points.reprs}")
    print(f"search                     {search()}")
    plain, ch = cli_outputs()
    print(f"cli                        {plain}")
    print(f"cli with CH                {ch}")


if __name__ == "__main__":
    main()

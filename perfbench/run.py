"""The codekraft benchmark: one client in a closed loop, in-process CLI calls.

    python3 perfbench/run.py --workload power-refine --seed 1 --seconds 50 --trace 0
    for w in power-refine verify-small; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 50; done
    python3 -m pytest perfbench/tests

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run stops with exit code 2.  The corpus is generated
from the seed into ``.perfbench/`` and the library sees only those files.

A round is the workload's list of commands.  Each command is a call of
``codekraft.cli.run_command`` that starts after the previous one returned;
its exit code and output are then checked against the answer the corpus
construction knows, untimed.  Each command starts after a full garbage
collection, untimed, with the harness's own objects frozen out of every
collection: as a CLI call would start on a fresh heap, a command pays for
the collections its own allocations cause and for none left by the commands
before it, whose order the seed shuffles.

Between commands the set-up (a fresh import of codekraft and a parse of
every corpus file) is timed again whenever set-ups have taken less than a
tenth of the time so far, so its samples are spread over the run as evenly
as the commands are.  Each round runs on the package of the latest set-up.
Whole rounds repeat until ``--seconds`` have passed.  The tail latency is a
Harrell-Davis percentile of each command's median over the rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the same
timed pass, then one more round with every public library function wrapped
(see ``tracing.py``), and reports the per-layer metrics.  The last line of
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checker import Checker
from corpus import WORKLOADS, Corpus, build
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# the share of the run's time spent timing set-ups
SETUP_SHARE = 0.1
PERCENTILES = (99, 95, 90, 75, 50)
# what no span may account for in a command's latency: the call into the
# root wrapper and the clock reads around it take microseconds
SPAN_GAP_TOLERANCE_S = 1e-3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Pass:
    """What one pass of whole rounds measured: latencies per round, set-up times."""

    rounds: list[list[float]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.rounds))


def import_library():
    """A fresh import of codekraft, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "codekraft" or m.startswith("codekraft.")]:
        del sys.modules[name]
    return importlib.import_module("codekraft")


def setup(paths: list[Path]):
    """Import codekraft afresh and parse every corpus file; returns (seconds, package)."""
    gc.collect()
    start = perf_counter()
    package = import_library()
    for path in paths:
        package.parse_code_file(path.read_bytes(), path=str(path))
    return perf_counter() - start, package


def run_round(package, corpus: Corpus, checker: Checker, directory: Path, record: Pass, tracer=None, between=None) -> None:
    """Every command of the corpus once, in order; ``between()`` runs after each, untimed."""
    # looked up per round, so a traced round calls the wrapper
    run_command = package.cli.run_command
    latencies = []
    for i, command in enumerate(corpus.commands):
        argv = command.argv(directory)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = i
        crash = None
        gc.collect()
        start = perf_counter()
        try:
            rc = run_command(argv, out, err)
        except Exception as exc:  # a crash fails this command, not the run
            rc, crash = None, exc
        latencies.append(perf_counter() - start)
        problem = f"raised {crash!r}" if crash else checker.check(command, rc, out.getvalue())
        if problem:
            record.failures.append(f"{command.kind} {' '.join(command.codes)} {' '.join(command.options)}: {problem}")
        if between is not None:
            between()
    record.rounds.append(latencies)


def timed_pass(paths, corpus, checker, directory, seconds: float):
    """Whole rounds, with set-ups between commands, until ``seconds`` have passed."""
    record = Pass()
    package = None
    begin = perf_counter()

    def set_up():
        nonlocal package
        while sum(record.setups) <= SETUP_SHARE * (perf_counter() - begin):
            elapsed, package = setup(paths)
            record.setups.append(elapsed)

    set_up()
    while True:
        run_round(package, corpus, checker, directory, record, between=set_up)
        if perf_counter() - begin >= seconds:
            return record, package


def tail_percentile(commands: int) -> int:
    """The highest percentile with at least ten of a round's commands beyond it.

    Fixed by the round, not by how many rounds fit in the run, so a faster
    program reports the same percentile; a run has at least one round.
    """
    return next((p for p in PERCENTILES if commands * (100 - p) >= 1000), 50)


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile (Biometrika 69(3), 1982).

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution, so that no one value decides it where the values are
    sparse.  The weights are integrated with Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    steps = 32  # even, per order statistic
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        inner = sum((4 if j % 2 else 2) * density((i + j / steps) / n) for j in range(1, steps))
        weights.append((density(i / n) + inner + density((i + 1) / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(record: Pass) -> tuple[dict[str, float], list[str]]:
    lat = [x for r in record.rounds for x in r]
    # The tail is taken over each command's median across the rounds, by
    # Harrell-Davis.  It sits among the few slowest commands, where their
    # costs step widely, so a plain percentile is decided by one or two
    # commands, and over the pooled samples by one slow sample of one.
    typical = [statistics.median(r[i] for r in record.rounds) for i in range(len(record.rounds[0]))]
    p = tail_percentile(len(typical))
    tail = harrell_davis(typical, p / 100)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "setup_s": statistics.median(record.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in typical if x > tail)
    notes = {
        "latency_tail_ms": f"(Harrell-Davis p{p} of {len(typical)} commands' medians over "
        f"{len(record.rounds)} rounds, {beyond} beyond it)",
        "setup_s": f"(median of {len(record.setups)})",
    }
    lines = [f"{name} = {values[name]:.6g} {unit} {notes.get(name, '')}".rstrip() for name, unit in END_TO_END]
    failed = len(record.failures)
    lines.append(f"fail_ratio = {failed / len(lat):.6g} ratio ({failed} of {len(lat)} commands failed)")
    return values, lines


def traced_pass(package, corpus, checker, directory, timed: Pass, seed: int):
    tracer = Tracer(package)
    record = Pass()
    with tracer:
        run_round(package, corpus, checker, directory, record, tracer)
    leftovers = tracer.leftover_wrappers()
    latencies = record.rounds[0]
    overhead = sum(latencies) / statistics.median(map(sum, timed.rounds))
    values, gaps = tracer.metrics(latencies, overhead)
    spans = WORK / f"spans-{corpus.workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans)
    units = {name: unit for name, unit, *_ in PER_LAYER}
    lines = [f"{name} = {value:.6g} {units[name]}" for name, value in values.items()]
    lines.append(
        f"self-time check: per command, latency - (self + harness times) lies in "
        f"[{min(gaps):.3g}, {max(gaps):.3g}] s; harness time {values['trace.harness_s']:.3g} s"
    )
    lines.append(f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
    if leftovers:
        record.failures.append(f"wrappers left in place: {', '.join(leftovers)}")
    for i, gap in enumerate(gaps):
        if not 0 <= gap <= SPAN_GAP_TOLERANCE_S:
            record.failures.append(f"the spans of command {i} miss its latency by {gap:.3g} s")
    return record, values, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "codekraft" / "__init__.py").is_file():
        print(f"error: no codekraft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    corpus = build(args.workload, args.seed)
    checker = Checker(corpus)
    checker.prepare()
    gc.collect()
    gc.freeze()
    directory = WORK / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = corpus.write(directory)
        origin = Path(import_library().__file__).resolve().parent
        if origin != (SRC / "codekraft").resolve():
            print(f"error: codekraft was imported from {origin}, not {SRC}", file=sys.stderr)
            return 2
        timed, package = timed_pass(paths, corpus, checker, directory, args.seconds)
        lines = [
            f"workload {args.workload}, seed {args.seed}: {corpus.description}",
            f"closed loop, 1 client: {len(timed.rounds)} rounds of {len(corpus.commands)} commands, "
            f"{sum(map(sum, timed.rounds)):.2f} s in run_command",
        ]
        records = [timed]
        if args.trace:
            traced, metrics, more = traced_pass(package, corpus, checker, directory, timed, args.seed)
            records.append(traced)
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics, more = end_to_end(timed)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failures = [f for record in records for f in record.failures]
    attempted = sum(record.attempted for record in records)
    for line in lines + more + [f"FAILED {f}" for f in failures[:10]]:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced runs: spans around every public codekraft function, from outside.

:class:`Tracer` replaces each public function of the layer modules with a
wrapper wherever it is bound (the package namespace and every module that
imports it), and ``Code.__init__`` on the class.  Each call records a span:
function, start, end, parent span and command id.  Spans stay in memory
until the run ends.

A wrapper also notes when it was entered and when it was left, outside its
own bookkeeping.  The gap between those and the span's start and end is
harness time: the tracer's own cost, kept out of every layer.  Self time is
a span's duration minus, for each child, the time from entering its wrapper
to leaving it, so for each command the self times plus the harness time of its spans add up to the
time from entering its ``cli.run_command`` wrapper to leaving it, which
:func:`span_gaps` compares with the latency measured outside the tracer.
Only the interpreter's cost of calling a wrapper, before it reads the clock
on entry and after it reads it on leaving, stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "core", "kraft", "decipher", "refine", "power", "props")

CHECKS = ("check_mcmillan", "check_power_law", "check_monotonicity", "check_equal_kraft_finiteness", "check_chain")

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("cli.run_command.self_s", "s", "lower", "setup_s and latency_p50_ms on power-refine and verify-small"),
    ("cli.parse_code_file.calls", "count", "lower", "setup_s and latency_p50_ms on power-refine and verify-small"),
    ("cli.parse_code_file.self_s", "s", "lower", "setup_s and latency_p50_ms on power-refine and verify-small"),
    ("cli.self_s", "s", "lower", "latency_p50_ms on verify-small"),
    ("core.code_init.calls", "count", "lower", "latency_tail_ms on verify-small (one-pass essential words)"),
    ("core.code_init.self_s", "s", "lower", "latency_tail_ms on verify-small (one-pass essential words)"),
    ("core.self_s", "s", "lower", "latency_tail_ms on verify-small"),
    ("kraft.kraft_sum.calls", "count", "lower", "nothing on any workload (control)"),
    ("kraft.kraft_sum.self_s", "s", "lower", "nothing on any workload (control)"),
    ("kraft.self_s", "s", "lower", "nothing on any workload (control)"),
    ("decipher.is_ud.calls", "count", "lower", "latency_p50_ms on verify-small; nothing on power-refine"),
    ("decipher.is_ud.distinct_codes", "count", "lower", "nothing (input property); nothing on power-refine"),
    ("decipher.is_ud.repeat_ratio", "ratio", "lower", "latency_p50_ms on verify-small (verdict caching)"),
    ("decipher.is_ud.not_ud_ratio", "ratio", "lower", "latency_p50_ms on verify-small; nothing on power-refine"),
    ("decipher.is_ud.words_in", "count", "lower", "latency_p50_ms on verify-small; nothing on power-refine"),
    ("decipher.is_ud.self_s", "s", "lower", "latency_p50_ms on verify-small; nothing on power-refine"),
    ("decipher.self_s", "s", "lower", "latency_p50_ms on verify-small; nothing on power-refine"),
    ("refine.first_factorization.calls", "count", "lower", "ops_per_s, latency_tail_ms on power-refine"),
    ("refine.first_factorization.hit_ratio", "ratio", "higher", "latency_tail_ms on verify-small (pruning)"),
    ("refine.first_factorization.self_s", "s", "lower", "ops_per_s, latency_tail_ms on power-refine (index reuse)"),
    ("refine.is_refinement.calls", "count", "lower", "ops_per_s, latency_tail_ms on power-refine and verify-small"),
    ("refine.is_refinement.holds_ratio", "ratio", "higher", "latency_tail_ms on verify-small (pruning)"),
    ("refine.is_irredundant_refinement.calls", "count", "lower", "latency_tail_ms on verify-small (pruning)"),
    ("refine.irredundant_refinements.calls", "count", "lower", "latency_tail_ms on verify-small"),
    ("refine.irredundant_refinements.results", "count", "lower", "latency_tail_ms on verify-small"),
    ("refine.self_s", "s", "lower", "ops_per_s, latency_tail_ms on power-refine; latency_tail_ms on verify-small"),
    ("power.code_power.calls", "count", "lower", "peak_rss_mb, latency_tail_ms on power-refine and verify-small"),
    ("power.words_materialized", "count", "lower", "peak_rss_mb, latency_tail_ms on power-refine and verify-small"),
    ("power.dedup_ratio", "ratio", "lower", "peak_rss_mb on power-refine and verify-small"),
    ("power.power_chain.calls", "count", "lower", "latency_tail_ms on power-refine"),
    ("power.self_s", "s", "lower", "peak_rss_mb, latency_tail_ms on power-refine and verify-small"),
    *((f"props.{check}.calls", "count", "lower", "latency_tail_ms on verify-small") for check in CHECKS),
    ("props.equal_kraft_refinements.calls", "count", "lower", "latency_tail_ms on verify-small"),
    ("props.equal_kraft.kept_ratio", "ratio", "higher", "latency_tail_ms on verify-small (pruning)"),
    ("props.self_s", "s", "lower", "latency_tail_ms on verify-small"),
    ("trace.harness_s", "s", "lower", "nothing: the time the wrappers take, outside every layer"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: the cost of tracing itself"),
)

_ORIGINAL = "__perfbench_original__"


def self_times(parent, entered, start, end, left) -> tuple[list[float], list[float]]:
    """Self and harness time of each span.

    Self time is the span's duration minus the time from entering to leaving
    each direct child's wrapper; harness time is the wrapper's time outside
    its span.
    """
    own = [e - s for s, e in zip(start, end)]
    harness = [(b - a) - o for a, b, o in zip(entered, left, own)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= left[i] - entered[i]
    return own, harness


def span_gaps(command_of, own, harness, latencies) -> list[float]:
    """Per command, its latency minus the self and harness times of its spans.

    The latency is measured around the call, outside the tracer, so each gap
    is what no span accounts for: the call into the root wrapper and the
    clock reads around it, a few microseconds.  A command whose calls were
    not traced, or whose spans went to another command, misses by far more.
    """
    covered = [0.0] * len(latencies)
    for i, command in enumerate(command_of):
        covered[command] += own[i] + harness[i]
    return [latency - total for latency, total in zip(latencies, covered)]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _ratio(part, whole) -> float:
    # an idle layer has no attempts; report 0 rather than an undefined ratio
    return part / whole if whole else 0.0


class Tracer:
    """Records one span per call of a public codekraft function."""

    def __init__(self, package):
        self.package = package
        self.modules = [package, *(getattr(package, layer) for layer in LAYERS)]
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.command_of = array("i")
        self.entered = array("d")
        self.start = array("d")
        self.end = array("d")
        self.left = array("d")
        self.command = -1
        self.counts: Counter = Counter()
        self.ud_codes: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "decipher.is_ud": self._on_is_ud,
            "refine.first_factorization": self._on_first_factorization,
            "refine.is_refinement": self._on_is_refinement,
            "refine.irredundant_refinements": self._on_irredundant_refinements,
            "power.code_power": self._on_code_power,
            "props.equal_kraft_refinements": self._on_equal_kraft_refinements,
        }

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        code = self.package.core.Code
        self._patch(code, "__init__", self._wrap("core.code_init", code.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold a wrapper; empty after :meth:`uninstall`."""
        owners = [*self.modules, self.package.core.Code]
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners for attr, value in vars(owner).items()
            if hasattr(value, _ORIGINAL)
        ]

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            span = len(self.start)
            parent = stack[-1] if stack else -1
            self.name_of.append(index)
            self.parent.append(parent)
            self.command_of.append(self.command)
            self.entered.append(entered)
            self.start.append(0.0)
            self.end.append(0.0)
            self.left.append(0.0)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.start[span] = start
                self.end[span] = end
                # if fn raised, the span is left when it ends
                self.left[span] = end
            if hook is not None:
                hook(args, kwargs, result, parent)
            self.left[span] = perf_counter()
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _on_is_ud(self, args, kwargs, result, parent):
        code = _arg(args, kwargs, 0, "code")
        self.ud_codes.add(code)
        self.counts["is_ud.words_in"] += len(code)
        self.counts["is_ud.not_ud"] += not result.is_ud

    def _on_first_factorization(self, args, kwargs, result, parent):
        self.counts["first_factorization.hits"] += result is not None

    def _on_is_refinement(self, args, kwargs, result, parent):
        self.counts["is_refinement.holds"] += result.holds

    def _on_irredundant_refinements(self, args, kwargs, result, parent):
        self.counts["irredundant_refinements.results"] += len(result)
        if parent >= 0 and self.names[self.name_of[parent]] == "props.equal_kraft_refinements":
            self.counts["equal_kraft.candidates"] += len(result)

    def _on_code_power(self, args, kwargs, result, parent):
        code, k = _arg(args, kwargs, 0, "code"), _arg(args, kwargs, 1, "k")
        if k >= 2 and len(code):
            self.counts["power.materialized"] += len(result)
            self.counts["power.product"] += len(code) ** k

    def _on_equal_kraft_refinements(self, args, kwargs, result, parent):
        self.counts["equal_kraft.kept"] += len(result)

    def metrics(self, latencies: list[float], overhead_ratio: float) -> tuple[dict[str, float], list[float]]:
        """Every per-layer metric, and :func:`span_gaps` for the commands' ``latencies``."""
        own, harness = self_times(self.parent, self.entered, self.start, self.end, self.left)
        calls: Counter = Counter()
        self_by: dict[str, float] = defaultdict(float)
        for i, f in enumerate(self.name_of):
            name = self.names[f]
            calls[name] += 1
            self_by[name] += own[i]
            self_by[name.split(".")[0]] += own[i]
        c = self.counts
        ud_calls = calls["decipher.is_ud"]
        values = {
            "cli.run_command.self_s": self_by["cli.run_command"],
            "cli.parse_code_file.calls": calls["cli.parse_code_file"],
            "cli.parse_code_file.self_s": self_by["cli.parse_code_file"],
            "core.code_init.calls": calls["core.code_init"],
            "core.code_init.self_s": self_by["core.code_init"],
            "kraft.kraft_sum.calls": calls["kraft.kraft_sum"],
            "kraft.kraft_sum.self_s": self_by["kraft.kraft_sum"],
            "decipher.is_ud.calls": ud_calls,
            "decipher.is_ud.distinct_codes": len(self.ud_codes),
            "decipher.is_ud.repeat_ratio": _ratio(ud_calls, len(self.ud_codes)),
            "decipher.is_ud.not_ud_ratio": _ratio(c["is_ud.not_ud"], ud_calls),
            "decipher.is_ud.words_in": c["is_ud.words_in"],
            "decipher.is_ud.self_s": self_by["decipher.is_ud"],
            "refine.first_factorization.calls": calls["refine.first_factorization"],
            "refine.first_factorization.hit_ratio": _ratio(c["first_factorization.hits"], calls["refine.first_factorization"]),
            "refine.first_factorization.self_s": self_by["refine.first_factorization"],
            "refine.is_refinement.calls": calls["refine.is_refinement"],
            "refine.is_refinement.holds_ratio": _ratio(c["is_refinement.holds"], calls["refine.is_refinement"]),
            "refine.is_irredundant_refinement.calls": calls["refine.is_irredundant_refinement"],
            "refine.irredundant_refinements.calls": calls["refine.irredundant_refinements"],
            "refine.irredundant_refinements.results": c["irredundant_refinements.results"],
            "power.code_power.calls": calls["power.code_power"],
            "power.words_materialized": c["power.materialized"],
            "power.dedup_ratio": _ratio(c["power.materialized"], c["power.product"]),
            "power.power_chain.calls": calls["power.power_chain"],
            "props.equal_kraft_refinements.calls": calls["props.equal_kraft_refinements"],
            "props.equal_kraft.kept_ratio": _ratio(c["equal_kraft.kept"], c["equal_kraft.candidates"]),
            "trace.harness_s": sum(harness),
            "trace.overhead_ratio": overhead_ratio,
        }
        for check in CHECKS:
            values[f"props.{check}.calls"] = calls[f"props.{check}"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_by[layer]
        gaps = span_gaps(self.command_of, own, harness, latencies)
        return {name: values[name] for name, *_ in PER_LAYER}, gaps

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.entered[0] if self.entered else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\tcommand\tfunction\tentered_s\tstart_s\tend_s\tleft_s\n")
            for i, f in enumerate(self.name_of):
                times = (self.entered[i], self.start[i], self.end[i], self.left[i])
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.command_of[i]}\t{self.names[f]}\t"
                    + "\t".join(f"{t - origin:.9f}" for t in times) + "\n"
                )

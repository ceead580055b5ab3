"""Tests of the benchmark itself: generator, checker, tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for workload in corpus.WORKLOADS:
        first = corpus.build(workload, 11)
        assert corpus.build(workload, 11) == first
        assert corpus.build(workload, 12).codes != first.codes


def test_generated_codes_match_their_construction():
    for workload in corpus.WORKLOADS:
        built = corpus.build(workload, 5)
        for spec in built.codes.values():
            if len(spec.words) <= 64:
                assert checker.is_ud(spec.words) == spec.ud, spec.name
            if spec.family == "composed":
                assert not corpus.prefix_free(spec.words) and not corpus.suffix_free(spec.words)
            if spec.collision:
                u, v = spec.collision
                assert {u, v, u + v} <= set(spec.words)


def _sweep_spec(family):
    built = corpus.build("ud-sweep", 3)
    spec = next(s for s in built.codes.values() if s.family.startswith(family))
    return built, spec


def test_checker_accepts_a_planted_witness_and_rejects_corrupted_ones():
    built, spec = _sweep_spec("collision")
    check = checker.Checker(built)
    u, v = spec.collision
    command = corpus.Command("ud", (spec.name,))
    assert check.check(command, 1, f"not UD: {u + v} = {u}·{v} = {u + v}\n") is None
    assert check.check(command, 1, f"not UD: {u + v} = {u}·{v} = {u}·{v}\n") is not None
    outside = next(w for w in ("0" * 40, "1" * 41) if w not in spec.words)
    assert check.check(command, 1, f"not UD: {u + v} = {u}·{v} = {outside}\n") is not None
    payload = {
        "command": "ud", "inputs": [], "verdict": False, "exact_values": {"witness_length": len(u + v)},
        "witnesses": {"word": u + v, "left": [u, v], "right": [u + v + "0"]},
    }
    assert check.check(corpus.Command("ud", (spec.name,), json=True), 1, json.dumps(payload)) is not None


def test_checker_rejects_a_wrong_kraft_value_and_a_wrong_exit_code():
    built, spec = _sweep_spec("prefix")
    check = checker.Checker(built)
    kraft = corpus.Command("kraft", (spec.name,))
    assert check.check(kraft, 0, "1/1 (≈ 1.00000000000)\n") is None
    assert check.check(kraft, 0, "1/2 (≈ 0.500000000000)\n") is not None
    assert check.check(kraft, 2, "1/1 (≈ 1.00000000000)\n") is not None
    ud = corpus.Command("ud", (spec.name,))
    assert check.check(ud, 0, "UD\n") is None
    assert check.check(ud, 1, "UD\n") is not None
    assert check.check(ud, 3, "") is not None


def _write(directory, texts):
    for name, text in texts.items():
        (directory / f"{name}.code").write_text(text, encoding="utf-8")


def test_checker_agrees_with_the_library_on_one_command_of_each_kind(tmp_path):
    package = run.import_library()
    for workload in corpus.WORKLOADS:
        built = corpus.build(workload, 2)
        check = checker.Checker(built)
        seen = set()
        for command in built.commands:
            small = all(len(built.codes[n].words) <= 16 for n in command.codes)
            if command.kind in seen or not small or set(command.codes) & {"skewed4", "block2", "block4"}:
                continue
            seen.add(command.kind)
            _write(tmp_path, {n: built.codes[n].text for n in command.codes})
            out = io.StringIO()
            rc = package.cli.run_command(command.argv(tmp_path), out, io.StringIO())
            assert check.check(command, rc, out.getvalue()) is None, (workload, command)


def test_harrell_davis_matches_reference_values():
    values = [89.0, 55.0, 34.0, 21.0, 13.0, 8.0, 5.0, 3.0, 2.0, 1.0]
    # from the regularized incomplete beta function
    assert abs(run.harrell_davis(values, 0.5) - 13.0656758) < 1e-6
    assert abs(run.harrell_davis(values, 0.75) - 40.3131198) < 1e-4
    assert abs(run.harrell_davis([3.0, 1.0, 2.0], 0.5) - 2.0) < 1e-9


def test_self_times_on_a_synthetic_span_tree():
    # root spans [1, 19] inside its wrapper [0, 20]; its children a [3, 8]
    # in [2, 9] and b [11, 17] in [10, 18]; a has child c [5, 6] in [4, 7]
    parent = [-1, 0, 1, 0]
    entered = [0.0, 2.0, 4.0, 10.0]
    start = [1.0, 3.0, 5.0, 11.0]
    end = [19.0, 8.0, 6.0, 17.0]
    left = [20.0, 9.0, 7.0, 18.0]
    own, harness = tracing.self_times(parent, entered, start, end, left)
    assert own == [3.0, 2.0, 1.0, 6.0]
    assert harness == [2.0, 2.0, 2.0, 2.0]
    assert sum(own) + sum(harness) == left[0] - entered[0]
    # command 0 took 20.5 s from outside; command 1 has no spans at all
    gaps = tracing.span_gaps([0, 0, 0, 0], own, harness, [20.5, 3.0])
    assert gaps == [0.5, 3.0]


def test_traced_round_records_spans_and_restores_every_function(tmp_path):
    package = run.import_library()
    modules = [package, *(getattr(package, layer) for layer in tracing.LAYERS)]
    before = [dict(vars(m)) for m in modules]
    init, is_ud = package.core.Code.__init__, package.decipher.is_ud
    _write(tmp_path, {"c": "alphabet 01\n0\n01\n10\n"})
    argv = ["verify", str(tmp_path / "c.code")]
    tracer = tracing.Tracer(package)
    latencies = []
    with tracer:
        assert package.cli.is_ud is package.decipher.is_ud is package.is_ud is not is_ud
        for command in range(2):
            tracer.command = command
            start = perf_counter()
            assert package.cli.run_command(argv, io.StringIO(), io.StringIO()) == 0
            latencies.append(perf_counter() - start)
    assert tracer.leftover_wrappers() == []
    assert [dict(vars(m)) for m in modules] == before
    assert package.core.Code.__init__ is init
    values, gaps = tracer.metrics(latencies, overhead_ratio=1.0)
    assert all(0 <= gap <= run.SPAN_GAP_TOLERANCE_S for gap in gaps), gaps
    assert 0 < values["trace.harness_s"] < sum(latencies)
    # spans credited to the wrong command leave one command over its latency
    own, harness = tracing.self_times(tracer.parent, tracer.entered, tracer.start, tracer.end, tracer.left)
    assert tracing.span_gaps([0] * len(own), own, harness, latencies)[0] < 0
    assert values["cli.parse_code_file.calls"] == 2
    assert values["decipher.is_ud.calls"] >= 2 and values["decipher.is_ud.not_ud_ratio"] > 0
    assert values["props.check_mcmillan.calls"] == 2
    assert set(values) == {name for name, *_ in tracing.PER_LAYER}


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} <= set(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]

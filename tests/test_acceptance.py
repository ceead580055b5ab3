"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact rational or integer; tolerances are zero
throughout.
"""

import io
import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from codekraft import (
    check_chain,
    code_power,
    concat,
    first_factorization,
    irredundant_refinements,
    is_irredundant_refinement,
    is_ud,
    kraft_sum,
    power_chain,
    run_command,
)

from helpers import bcode, binary_codes, brute_force_bound, is_ud_bruteforce, key_word, random_ud_pairs, refines_by_tuples

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name):
    ok = False
    started = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def monotonicity_pairs():
    return random_ud_pairs(200)


def test_criterion_1_mcmillan_sweep():
    with criterion(1, "McMillan sweep, binary codes with <= 3 words of length <= 4"):
        started = time.perf_counter()
        total = ud_total = 0
        for code in binary_codes(3, 4):
            total += 1
            if is_ud(code).is_ud:
                ud_total += 1
                assert kraft_sum(code) <= 1
        assert total == 4526 and ud_total > 0
        assert time.perf_counter() - started < 30


def test_criterion_2_oracle_equivalence():
    with criterion(2, "Sardinas-Patterson agrees with the bounded brute force"):
        for code in binary_codes(3, 3):
            bound = brute_force_bound(code)
            fast = is_ud(code)
            slow = is_ud_bruteforce(code, bound)
            assert fast.is_ud == slow.is_ud
            for verdict in (fast, slow):
                if not verdict.is_ud:
                    left, right = verdict.witness
                    assert left.factors != right.factors
                    assert left.concatenation == right.concatenation
                    assert all(f in code for f in left.factors + right.factors)


def test_criterion_3_power_law_instances():
    with criterion(3, "exact Kraft values of small powers"):
        started = time.perf_counter()
        ambiguous = bcode("0", "01", "10")
        assert kraft_sum(ambiguous) == Fraction(1)
        # oracle: expand the 9 ordered pairs, dedupe, sum explicitly
        pairs = set(map(concat, itertools.product(ambiguous.words, repeat=2)))
        assert len(pairs) == 8
        expanded = sum(Fraction(1, 2 ** len(w)) for w in pairs)
        assert expanded == Fraction(7, 8)
        assert kraft_sum(code_power(ambiguous, 2)) == Fraction(7, 8)
        assert Fraction(7, 8) < kraft_sum(ambiguous) ** 2  # strict at k = 2
        prefix = bcode("0", "10", "11")
        for k in (1, 2, 3):
            assert kraft_sum(code_power(prefix, k)) == Fraction(1)
        assert time.perf_counter() - started < 1


def test_criterion_4_irredundant_refinements():
    with criterion(4, "the seven irredundant refinements of {0011}"):
        started = time.perf_counter()
        refs = irredundant_refinements(bcode("0011"))
        expected = (
            bcode("0", "1"),
            bcode("0", "11"),
            bcode("0", "011"),
            bcode("1", "00"),
            bcode("1", "001"),
            bcode("00", "11"),
            bcode("0011"),
        )
        assert refs == expected
        # brute force: all subsets of the substring closure of 0011
        word = bcode("0011").words[0]
        substrings = {word.indices[i:j] for i in range(4) for j in range(i + 1, 5)}
        from codekraft import Code

        alphabet = word.alphabet
        universe = sorted(
            (key_word(alphabet, t) for t in substrings), key=lambda w: w.sort_key
        )
        refining = []
        for size in range(len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                candidate = Code(alphabet, combo)
                if refines_by_tuples(bcode("0011"), candidate):
                    refining.append(candidate)
        minimal = {
            d
            for d in refining
            if not any(e != d and set(e.words) < set(d.words) for e in refining)
        }
        assert minimal == set(expected)
        assert time.perf_counter() - started < 1


def test_criterion_5_monotonicity_sweep(monotonicity_pairs):
    with criterion(5, "Kraft monotonicity on 200 generated UD refinement pairs"):
        started = time.perf_counter()
        assert len(monotonicity_pairs) == 200
        strict_needed = 0
        for coarse, fine in monotonicity_pairs:
            assert refines_by_tuples(coarse, fine)
            value_coarse, value_fine = kraft_sum(coarse), kraft_sum(fine)
            assert value_coarse <= value_fine
            if not is_irredundant_refinement(coarse, fine):
                strict_needed += 1
                assert value_coarse < value_fine
        assert strict_needed > 0  # the sweep actually exercises strictness
        assert time.perf_counter() - started < 60


def test_criterion_6_cover_inclusion(monotonicity_pairs):
    with criterion(6, "cover inclusion: C^k words factor over D with k..mk factors"):
        for coarse, fine in monotonicity_pairs:
            m = coarse.max_len() // fine.min_len()
            for k in (1, 2):
                for word in code_power(coarse, k, max_words=10**6):
                    factorization = first_factorization(word, fine)
                    assert factorization is not None
                    assert k <= len(factorization.factors) <= m * k


def test_criterion_7_power_chains():
    with criterion(7, "power-chain Kraft values and the equal-Kraft chain check"):
        full = power_chain(bcode("0", "1"), 2)
        assert full.kraft_values == (Fraction(1), Fraction(1), Fraction(1))
        assert full.equal_kraft and full.descending
        report = check_chain(full.members)
        assert report.passed
        suffix = power_chain(bcode("0", "10"), 2)
        assert suffix.kraft_values == (Fraction(3, 4), Fraction(9, 16), Fraction(81, 256))
        assert suffix.descending
        # the chain of powers does NOT keep the Kraft sum when K < 1
        assert not suffix.equal_kraft


def test_criterion_8_cardinality_law():
    with criterion(8, "cardinality law |C^k| = |C|^k iff no collision within k"):
        literal_counterexamples = []
        for code in binary_codes(3, 4):
            verdict = is_ud(code)
            if verdict.is_ud:
                for k in (2, 3):
                    assert len(code_power(code, k)) == len(code) ** k
                continue
            left, right = verdict.witness
            witness_k = len(left.factors) + len(right.factors)
            # the collision-derived exponent always shows the defect ...
            assert len(code_power(code, witness_k, max_words=10**6)) < len(code) ** witness_k
            # ... and within k <= 3 exactly when the witness is short enough
            if witness_k <= 3:
                assert any(
                    len(code_power(code, k)) < len(code) ** k for k in (2, 3)
                )
            elif all(len(code_power(code, k)) == len(code) ** k for k in (2, 3)):
                literal_counterexamples.append(code)
        # short collision *words* do not force a defect at k <= 3: {0,1,001}
        # collides on the length-3 word 001 yet C^2 and C^3 are injective
        sample = bcode("0", "1", "001")
        assert sample in literal_counterexamples
        assert len(is_ud(sample).witness[0].concatenation) == 3
        print(
            f"  note: {len(literal_counterexamples)} non-UD corpus codes have short "
            "collision words but no cardinality defect before the witness exponent"
        )


GOLDEN_CASES = [
    ("kraft_prefix", ["kraft", "fixtures/prefix.code"], 0),
    ("kraft_ambiguous", ["kraft", "fixtures/ambiguous.code"], 0),
    ("kraft_single", ["kraft", "fixtures/single.code"], 0),
    ("ud_prefix", ["ud", "fixtures/prefix.code"], 0),
    ("ud_ambiguous", ["ud", "fixtures/ambiguous.code"], 1),
    ("ud_single", ["ud", "fixtures/single.code"], 0),
    ("refines_prefix_unit", ["refines", "fixtures/prefix.code", "fixtures/unit.code"], 0),
    ("refines_single_prefix", ["refines", "fixtures/single.code", "fixtures/prefix.code"], 0),
    ("refines_unit_single", ["refines", "fixtures/unit.code", "fixtures/single.code"], 1),
    ("irredundant_prefix", ["irredundant", "fixtures/prefix.code"], 0),
    ("irredundant_ambiguous", ["irredundant", "fixtures/ambiguous.code"], 0),
    ("irredundant_single", ["irredundant", "fixtures/single.code"], 0),
    ("power_prefix", ["power", "fixtures/prefix.code", "-k", "2"], 0),
    ("power_ambiguous", ["power", "fixtures/ambiguous.code", "-k", "2"], 0),
    ("power_single", ["power", "fixtures/single.code", "-k", "2"], 0),
    ("chain_prefix", ["chain", "fixtures/prefix.code", "-n", "2"], 0),
    ("chain_ambiguous", ["chain", "fixtures/ambiguous.code", "-n", "2"], 0),
    ("chain_single", ["chain", "fixtures/single.code", "-n", "2"], 0),
    # {0,1}^4: the descent check decides C^4 over C^2 by the batched search
    ("chain_block4", ["chain", "fixtures/block4.code", "-n", "2"], 0),
    ("verify_prefix", ["verify", "fixtures/prefix.code"], 0),
    ("verify_ambiguous", ["verify", "fixtures/ambiguous.code"], 0),
    ("verify_single", ["verify", "fixtures/single.code"], 0),
    (
        "hasse_trio",
        ["hasse", "fixtures/prefix.code", "fixtures/ambiguous.code", "fixtures/single.code"],
        0,
    ),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def test_criterion_9_cli_golden_files(monkeypatch):
    with criterion(9, "byte-identical CLI outputs and the exit-code contract"):
        monkeypatch.chdir(Path(__file__).parent)
        for name, argv, expected_status in GOLDEN_CASES:
            for mode, suffix in ((None, "txt"), ("--json", "json")):
                full_argv = ([mode] if mode else []) + argv
                status1, out1, _ = run_cli(full_argv)
                status2, out2, _ = run_cli(full_argv)
                assert status1 == status2 == expected_status, (name, mode, status1)
                assert out1 == out2, f"{name} ({suffix}) differs across runs"
                golden_path = GOLDEN / f"{name}.{suffix}"
                assert golden_path.exists(), f"missing golden file {golden_path}"
                assert out1 == golden_path.read_text(), f"{name}.{suffix} deviates from golden"
                if mode:
                    payload = json.loads(out1)
                    assert list(payload) == ["command", "inputs", "verdict", "exact_values", "witnesses"]
        # the full exit-code contract: 2 for usage/input errors, 3 for limits
        assert run_cli(["no-such-command"])[0] == 2
        assert run_cli(["ud", "fixtures/missing.code"])[0] == 2
        assert run_cli(["--max-tuples", "10", "power", "fixtures/prefix.code", "-k", "9"])[0] == 3

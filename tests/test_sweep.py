"""The paper's monotonicity law swept over every small code and over real
refinement pairs, against the factoring reference in ``helpers``, and every
check of ``verify`` swept over every small code."""

import itertools
import random
from collections import Counter

from codekraft import Alphabet, Word, check_monotonicity, verify
from codekraft.core import Code, unit_code
from codekraft.power import DEFAULT_MAX_POWER_WORDS

from helpers import (
    BINARY,
    binary_codes,
    binary_words_up_to,
    factors_by_tuples,
    index_tuples,
    monotonicity_report,
    ud_by_tuples,
)

TERNARY = Alphabet("012")


def ud_codes(codes):
    return [code for code in codes if ud_by_tuples(index_tuples(code))]


def ternary_words(max_len: int):
    return [Word(TERNARY, t) for n in range(1, max_len + 1) for t in itertools.product(range(3), repeat=n)]


def ternary_codes(max_words: int, max_len: int):
    words = ternary_words(max_len)
    for size in range(max_words + 1):
        for combo in itertools.combinations(words, size):
            yield Code(TERNARY, combo)


def refinement_pairs(alphabet, fine_codes, words, max_words: int, seed: int):
    """Each UD fine code D other than the unit code, with three sampled
    codes of up to ``max_words`` of ``words`` that D refines, kept if UD."""
    rng = random.Random(seed)
    unit = unit_code(alphabet)
    for fine in ud_codes(fine_codes):
        if fine == unit or not len(fine):
            continue
        fine_tuples = set(index_tuples(fine))
        factorable = [w for w in words if factors_by_tuples(tuple(map(ord, w.indices)), fine_tuples)]
        for _ in range(3):
            coarse = Code(alphabet, rng.sample(factorable, min(len(factorable), rng.randint(1, max_words))))
            if ud_by_tuples(index_tuples(coarse)):
                yield coarse, fine


def test_monotonicity_against_the_unit_code_is_the_factoring_report():
    binary = ud_codes(binary_codes(4, 3))
    ternary = ud_codes(ternary_codes(3, 2))
    for code in binary + ternary:
        unit = unit_code(code.alphabet)
        assert check_monotonicity(code, unit) == monotonicity_report(code, unit), code


def test_monotonicity_over_refinement_pairs():
    # binary fine codes of up to 3 words of length up to 3, coarse codes of
    # up to 4 words of length up to 5
    pairs = irredundant = 0
    for coarse, fine in refinement_pairs(BINARY, binary_codes(3, 3), binary_words_up_to(5), 4, 20261021):
        report = check_monotonicity(coarse, fine)
        assert report.passed and report == monotonicity_report(coarse, fine), (coarse, fine)
        pairs += 1
        irredundant += report.get("irredundant")
    assert pairs > 300 and 0 < irredundant < pairs


def test_monotonicity_over_ternary_pairs_at_kmax_4_and_under_a_cap():
    # ternary fine codes of up to 3 words of length up to 2, coarse codes of
    # up to 3 words of length up to 4, at kmax 4 under the default cap and
    # under a cap of 8 words, which cuts kmax for every coarse code of 2 or
    # more words
    pairs = capped = 0
    for coarse, fine in refinement_pairs(TERNARY, ternary_codes(3, 2), ternary_words(4), 3, 20261022):
        for cap in (DEFAULT_MAX_POWER_WORDS, 8):
            report = check_monotonicity(coarse, fine, 4, cap)
            assert report.passed and report == monotonicity_report(coarse, fine, 4, cap), (coarse, fine, cap)
            capped += report.get("effective_kmax") < 4
        pairs += 1
    assert pairs > 600 and 400 < capped < pairs


def test_verify_passes_on_every_small_code():
    # the 1,471 binary codes of at most 4 words of length at most 3: no report
    # fails, and a check is skipped only for one of three expected reasons
    codes = list(binary_codes(4, 3))
    skipped = Counter()
    for code in codes:
        reports, notes = verify(code)
        assert all(report.passed for report in reports), code
        for note in notes:
            check, reason = note.split(": SKIPPED (", 1)
            skipped[check, reason.partition(":")[0].removesuffix(")")] += 1
    not_ud = "code is not uniquely decipherable"
    assert len(codes) == 1471
    assert skipped == {
        ("monotonicity", "empty code"): 1,
        ("equal-kraft-chain", "empty code"): 1,
        ("equal-kraft-chain", "power-chain Kraft values differ"): 672,
        ("monotonicity", not_ud): 784,
        ("equal-kraft-finiteness", not_ud): 784,
        ("equal-kraft-chain", not_ud): 784,
    }

"""The paper's monotonicity law swept over every small code and over real
refinement pairs, against the factoring reference in ``helpers``, and every
check of ``verify`` swept over every small code."""

import itertools
import random
from collections import Counter

from codekraft import Alphabet, Word, check_monotonicity, verify
from codekraft.core import Code, unit_code

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


def ternary_codes(max_words: int, max_len: int):
    words = [Word(TERNARY, t) for n in range(1, max_len + 1) for t in itertools.product(range(3), repeat=n)]
    for size in range(max_words + 1):
        for combo in itertools.combinations(words, size):
            yield Code(TERNARY, combo)


def test_monotonicity_against_the_unit_code_is_the_factoring_report():
    binary = ud_codes(binary_codes(4, 3))
    ternary = ud_codes(ternary_codes(3, 2))
    for code in binary + ternary:
        unit = unit_code(code.alphabet)
        assert check_monotonicity(code, unit) == monotonicity_report(code, unit), code


def test_monotonicity_over_refinement_pairs():
    # every UD fine code D of up to 3 binary words of length up to 3 other
    # than {0, 1}, each with sampled UD coarse codes of up to 4 words of
    # length up to 5 that D refines
    rng = random.Random(20261021)
    unit = unit_code(BINARY)
    words = binary_words_up_to(5)
    pairs = irredundant = 0
    for fine in ud_codes(binary_codes(3, 3)):
        if fine == unit or not len(fine):
            continue
        fine_tuples = set(index_tuples(fine))
        factorable = [w for w in words if factors_by_tuples(tuple(map(ord, w.indices)), fine_tuples)]
        for _ in range(3):
            coarse = Code(BINARY, rng.sample(factorable, min(len(factorable), rng.randint(1, 4))))
            if not ud_by_tuples(index_tuples(coarse)):
                continue
            report = check_monotonicity(coarse, fine)
            assert report.passed and report == monotonicity_report(coarse, fine), (coarse, fine)
            pairs += 1
            irredundant += report.get("irredundant")
    assert pairs > 300 and 0 < irredundant < pairs


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

"""Proposition checks: reports, assertions, and generated sweeps."""

import contextvars
import io
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from codekraft import (
    ChainViolationError,
    NotRefinementError,
    ResourceLimitError,
    PropositionId,
    check_chain,
    check_equal_kraft_finiteness,
    check_mcmillan,
    check_monotonicity,
    check_power_law,
    code_power,
    equal_kraft_refinements,
    first_factorization,
    irredundant_refinements,
    is_irredundant_refinement,
    is_ud,
    kraft_sum,
    parse_code_file,
    power_chain,
    verify,
)
from codekraft import cli, decipher, props
from codekraft.core import Code, unit_code

from helpers import BINARY, bcode, binary_codes, random_prefix_codes, random_ud_pairs, refines_by_tuples

FIXTURES = Path(__file__).parent / "fixtures"

NOT_UD_NOTES = (
    "monotonicity: SKIPPED (code is not uniquely decipherable)",
    "equal-kraft-finiteness: SKIPPED (code is not uniquely decipherable)",
    "equal-kraft-chain: SKIPPED (code is not uniquely decipherable)",
)


def fixture_code(name):
    return parse_code_file((FIXTURES / name).read_bytes()).code


class TestMcMillan:
    def test_boundary_prefix_code(self):
        report = check_mcmillan(bcode("0", "10", "11"))
        assert report.passed and report.proposition_id is PropositionId.MCMILLAN
        assert report.get("kraft_sum") == Fraction(1)
        assert report.get("is_ud") is True

    def test_strictly_below_one(self):
        report = check_mcmillan(bcode("1", "10", "100"))
        assert report.passed
        assert report.get("is_ud") is True
        assert report.get("kraft_sum") == Fraction(7, 8)

    def test_trailing_zero_mirror_is_not_ud(self):
        # 100 = 10·0, so the mirror image of the suffix code above collides
        report = check_mcmillan(bcode("0", "10", "100"))
        assert report.passed
        assert report.get("status") == "out of hypothesis"
        assert report.get("kraft_sum") == Fraction(7, 8)

    def test_non_ud_out_of_hypothesis(self):
        report = check_mcmillan(bcode("0", "00"))
        assert report.passed
        assert report.get("status") == "out of hypothesis"
        assert report.get("kraft_sum") == Fraction(3, 4)

    def test_linear_bound_details_recorded(self):
        report = check_mcmillan(bcode("0", "10", "11"), kmax=3)
        m = report.get("cover_exponent_m")
        assert m == 2
        for k in (1, 2, 3):
            assert report.get(f"k={k}.kraft_pow") == Fraction(1)
            assert report.get(f"k={k}.linear_bound") == (m - 1) * k + 1

    def test_empty_code(self):
        report = check_mcmillan(bcode())
        assert report.passed and report.get("kraft_sum") == Fraction(0)


class TestPowerLaw:
    def test_strict_for_ambiguous_code(self):
        report = check_power_law(bcode("0", "01", "10"), kmax=2)
        assert report.passed
        assert report.get("kraft_sum") == Fraction(1)
        assert report.get("k=2.kraft_of_power") == Fraction(7, 8)
        assert report.get("k=2.kraft_pow") == Fraction(1)
        k = report.get("witness_k")
        assert k == 4
        assert report.get(f"k={k}.kraft_of_power") < report.get(f"k={k}.kraft_pow")

    def test_equality_for_prefix_code(self):
        report = check_power_law(bcode("0", "10", "11"), kmax=3)
        assert report.passed
        for k in (1, 2, 3):
            assert report.get(f"k={k}.kraft_of_power") == Fraction(1)

    def test_singleton_powers(self):
        report = check_power_law(bcode("00"), kmax=3)
        assert report.passed
        for k in (1, 2, 3):
            assert report.get(f"k={k}.kraft_of_power") == Fraction(1, 4) ** k

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            check_power_law(bcode("0"), kmax=1)

    def test_corpus_sweep(self):
        for code in binary_codes(2, 3):
            assert check_power_law(code, kmax=3).passed

    def test_full_corpus_sweep(self):
        # equality at k <= 3 for every UD member, strictness at the
        # witness-derived k for every non-UD member, McMillan throughout
        for code in binary_codes(3, 4):
            assert check_mcmillan(code).passed
            assert check_power_law(code, kmax=3).passed


class TestMonotonicity:
    def test_prefix_pair(self):
        report = check_monotonicity(bcode("0", "10", "11"), bcode("0", "1"), kmax=2)
        assert report.passed
        assert report.get("kraft_coarse") == Fraction(1)
        assert report.get("kraft_fine") == Fraction(1)
        assert report.get("irredundant") is True
        assert report.get("cover_exponent_m") == 2
        assert report.get("k=2.words_checked") == 9

    def test_strict_value_gap(self):
        report = check_monotonicity(bcode("0011"), bcode("0", "011"), kmax=2)
        assert report.passed
        assert report.get("kraft_coarse") == Fraction(1, 16)
        assert report.get("kraft_fine") == Fraction(5, 8)

    def test_reflexive_pair(self):
        code = bcode("0", "10", "11")
        report = check_monotonicity(code, code)
        assert report.passed
        assert report.get("irredundant") is True
        assert report.get("kraft_coarse") == report.get("kraft_fine")

    def test_not_refinement_rejected(self):
        # the message names the first coarse word, in shortlex order, that does not factor
        for coarse, failing in ((bcode("0011"), "0011"), (bcode("1", "000", "0011"), "000")):
            message = f"{{1, 01}} does not refine {coarse}: no factorization of {failing!r}"
            with pytest.raises(NotRefinementError, match=f"^{re.escape(message)}$"):
                check_monotonicity(coarse, bcode("01", "1"))

    def test_non_ud_rejected(self):
        with pytest.raises(ValueError):
            check_monotonicity(bcode("0", "00"), bcode("0"))
        with pytest.raises(ValueError):
            check_monotonicity(bcode("0000"), bcode("0", "00"))

    def test_generated_pairs(self):
        for coarse, fine in random_ud_pairs(30, seed=99):
            report = check_monotonicity(coarse, fine, kmax=2)
            assert report.passed

    def test_only_the_fine_code_builds_its_words(self, monkeypatch):
        # the powers of the coarse code are factored as keys
        indexed = []
        factor_index = Code.factor_index

        def recording(self):
            indexed.append(self)
            return factor_index(self)

        monkeypatch.setattr(Code, "factor_index", recording)
        fine = bcode("0", "10", "11")
        assert check_monotonicity(bcode("00", "011", "1110"), fine).passed
        assert indexed and all(code is fine for code in indexed)
        # against the unit code the report is a closed form: nothing is factored
        indexed.clear()
        assert check_monotonicity(fine, unit_code(BINARY)).passed
        assert not indexed


class TestEqualKraftRefinements:
    def test_prefix_code(self):
        result = equal_kraft_refinements(bcode("0", "10", "11"))
        assert result == (bcode("0", "1"), bcode("0", "10", "11"))

    def test_single_word_00(self):
        # {0} refines {00} but halves nothing: K({0}) = 1/2 != 1/4
        assert equal_kraft_refinements(bcode("00")) == (bcode("00"),)

    def test_unit_code(self):
        assert equal_kraft_refinements(bcode("0", "1")) == (bcode("0", "1"),)

    def test_requires_ud(self):
        with pytest.raises(ValueError):
            equal_kraft_refinements(bcode("0", "00"))

    def test_members_verified(self):
        code = bcode("0", "10", "11")
        value = kraft_sum(code)
        for member in equal_kraft_refinements(code):
            assert is_ud(member).is_ud
            assert refines_by_tuples(code, member)
            assert kraft_sum(member) == value

    def test_finiteness_report(self):
        report = check_equal_kraft_finiteness(bcode("0", "10", "11"))
        assert report.passed
        assert report.get("count") == 2
        assert report.get("member_0") == "{0, 1}"

    def test_pruned_enumeration_matches_unpruned_reference(self):
        codes = [code_power(bcode("0", "10", "11"), 2), code_power(bcode("0", "1"), 2)]
        codes += random_prefix_codes(40, seed=31)
        codes += [fine for _coarse, fine in random_ud_pairs(20, seed=32)]
        for code in codes:
            value = kraft_sum(code)
            reference = tuple(
                d for d in irredundant_refinements(code) if kraft_sum(d) == value and is_ud(d).is_ud
            )
            assert equal_kraft_refinements(code) == reference, code

    def test_verdict_readers_build_no_witness(self, monkeypatch, tmp_path):
        def no_witness(*args):
            raise AssertionError("a witness was built where only the verdict is read")

        monkeypatch.setattr(decipher, "_reconstruct", no_witness)
        square = code_power(bcode("00", "01", "10", "11"), 2)
        assert square in equal_kraft_refinements(square)
        # {00, 000} is an irredundant refinement of {00000}, and not UD
        path = tmp_path / "word.code"
        path.write_text("alphabet 01\n00000\n", encoding="utf-8")
        out = io.StringIO()
        assert cli.run_command(["irredundant", "--ud-only", str(path)], out, io.StringIO()) == 0
        assert out.getvalue() == "{0}\n{00000}\n"

    def test_cap_counts_only_admissible_unions(self):
        # C^2 of {0, 10, 11} needs 111 live unions unpruned, 8 pruned
        square = code_power(bcode("0", "10", "11"), 2)
        with pytest.raises(ResourceLimitError):
            irredundant_refinements(square, max_candidates=8)
        assert len(equal_kraft_refinements(square, max_candidates=8)) == 3


class TestChain:
    def test_full_binary_powers_pass(self):
        base = bcode("0", "1")
        chain = [base, code_power(base, 2), code_power(base, 4)]
        report = check_chain(chain)
        assert report.passed
        assert report.get("kraft_sum") == Fraction(1)
        assert report.get("length") == 3
        assert report.get("member_2.cardinality") == 16

    def test_kraft_mismatch_raises(self):
        base = bcode("0", "10")
        with pytest.raises(ChainViolationError) as exc:
            check_chain([base, code_power(base, 2)])
        assert "3/4" in str(exc.value) and "9/16" in str(exc.value)
        assert exc.value.index == 0

    def test_single_member_vacuous(self):
        assert check_chain([bcode("0", "10")]).passed

    def test_empty_chain_vacuous(self):
        assert check_chain([]).passed

    def test_repeat_raises(self):
        code = bcode("0", "1")
        with pytest.raises(ChainViolationError):
            check_chain([code, code])

    def test_order_violation_raises(self):
        # {00,01,10,11} cannot build the length-1 words of {0,1}
        with pytest.raises(ChainViolationError):
            check_chain([bcode("00", "01", "10", "11"), bcode("0", "1")])

    def test_non_ud_member_rejected(self):
        with pytest.raises(ValueError):
            check_chain([bcode("0", "00")])


class TestVerify:
    def test_ud_code_gets_the_five_direct_reports(self):
        code = fixture_code("prefix.code")
        direct = (
            check_mcmillan(code),
            check_power_law(code),
            check_monotonicity(code, unit_code(code.alphabet)),
            check_equal_kraft_finiteness(code),
            check_chain(power_chain(code, 1).members),
        )
        assert verify(code) == (direct, ())

    def test_non_ud_code_gets_two_reports_and_three_notes(self):
        reports, notes = verify(fixture_code("ambiguous.code"))
        assert [r.proposition_id for r in reports] == [PropositionId.MCMILLAN, PropositionId.POWER_LAW]
        assert notes == NOT_UD_NOTES

    def test_capped_check_becomes_a_note(self):
        code = fixture_code("ambiguous.code")
        # the collision exponent is 4 and 3^4 = 81 power words exceed the cap
        assert verify(code, max_power_words=10) == (
            (check_mcmillan(code),),
            ("power-law: SKIPPED (resource limit: |code|^k = 81 exceeds the cap of 10)", *NOT_UD_NOTES),
        )

    def test_ud_gate_cap_raises(self):
        with pytest.raises(ResourceLimitError):
            verify(fixture_code("fine.code"), max_states=0)

    def test_kmax_below_two_raises_before_any_check(self, monkeypatch):
        def refuse(code, kmax):
            raise AssertionError("a check ran before kmax was checked")

        monkeypatch.setattr(props, "check_mcmillan", refuse)
        with pytest.raises(ValueError, match="kmax must be at least 2, got 1"):
            verify(fixture_code("prefix.code"), kmax=1)

    def test_each_fact_is_decided_once_per_call(self, monkeypatch):
        code = bcode("0", "10", "110", "111")
        calls = Counter()

        def counting(name):
            function = getattr(props, name)

            def counted(subject, *args):
                if subject == code:
                    calls[name, *args[:1]] += 1
                return function(subject, *args)

            monkeypatch.setattr(props, name, counted)

        for name in ("is_ud", "_is_ud", "equal_kraft_refinements", "code_power"):
            counting(name)
        reports, notes = verify(code)
        assert all(report.passed for report in reports) and notes == ()
        # no gate saturates C again; the enumerations of C and of C^2 each
        # test C's keys once, as one of their partial unions
        assert calls == {("is_ud", 1_000_000): 1, ("_is_ud", 1_000_000): 2, ("equal_kraft_refinements", 1_000_000): 1,
                         ("code_power", 1): 1, ("code_power", 2): 1, ("code_power", 3): 1}
        calls.clear()
        assert verify(code) == (reports, notes)
        assert calls["is_ud", 1_000_000] == calls["code_power", 2] == 1

    def test_no_memo_outlives_a_call(self, monkeypatch):
        def unset():
            return props._run not in contextvars.copy_context()

        assert unset()
        verify(fixture_code("prefix.code"))
        assert unset()
        with pytest.raises(ResourceLimitError):
            verify(fixture_code("fine.code"), max_states=0)
        assert unset()

        def refuse(code, kmax):
            raise ValueError("refused")

        monkeypatch.setattr(props, "check_mcmillan", refuse)
        with pytest.raises(ValueError, match="refused"):
            verify(fixture_code("prefix.code"))
        assert unset()

    def test_max_states_reaches_every_saturation(self):
        # {0, 10, 11} and its square are prefix codes, without a dangling
        # suffix, but partial unions that the square's enumeration tests
        # have some
        code = fixture_code("prefix.code")
        assert verify(code)[1] == ()
        note = "equal-kraft-chain: SKIPPED (resource limit: dangling-suffix iteration exceeded 0 states)"
        reports, notes = verify(code, max_states=0)
        assert reports == verify(code)[0][:4] and notes == (note,)
        out = io.StringIO()
        status = cli.run_command(["--max-states", "0", "verify", str(FIXTURES / "prefix.code")], out, io.StringIO())
        assert status == 0 and note in out.getvalue().splitlines()


class TestCoverInclusionOnPairs:
    def test_factor_counts_within_cover_window(self):
        for coarse, fine in random_ud_pairs(20, seed=5):
            m = coarse.max_len() // fine.min_len()
            for k in (1, 2):
                for word in code_power(coarse, k, max_words=10**6):
                    factorization = first_factorization(word, fine)
                    assert factorization is not None
                    assert k <= len(factorization.factors) <= m * k

    def test_strictness_for_redundant_refinements(self):
        seen_redundant = 0
        for coarse, fine in random_ud_pairs(40, seed=11):
            if not is_irredundant_refinement(coarse, fine):
                seen_redundant += 1
                assert kraft_sum(coarse) < kraft_sum(fine)
        assert seen_redundant > 0

"""Expression grammar: parsing, printing, and the round-trip fixpoint."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from diffalg import DiffPoly, jet, parse_function
from diffalg.grammar import format_poly
from diffalg.errors import ParseError
from diffalg.jets import monomial

from helpers import from_terms, rand_poly

u, u1, u2, u3 = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)


class TestParsing:
    def test_kdv_right_hand_side(self):
        assert parse_function("u''' + 3*u*u'") == u3 + 3 * u * u1

    def test_jet_call_form(self):
        assert parse_function("u(5)") == jet("u", 5)
        assert parse_function("u(0)") == u

    def test_laurent_term(self):
        p = parse_function("u^-1*u'")
        assert p == from_terms({monomial([((1, "u"), 1), ((0, "u"), -1)]): 1})

    def test_rationals(self):
        assert parse_function("3/2") == DiffPoly.const(Fraction(3, 2))
        assert parse_function("-5") == DiffPoly.const(-5)
        assert parse_function("15/2*u^2*u'") == Fraction(15, 2) * u * u * u1

    def test_parentheses_and_powers(self):
        assert parse_function("(u + u')^2") == (u + u1) ** 2
        assert parse_function("2*(u - 1)") == 2 * u - 2
        assert parse_function("(" * 100 + "u" + ")" * 100) == u

    def test_leading_minus(self):
        assert parse_function("-u + 1") == -u + 1

    def test_whitespace_ignored(self):
        assert parse_function(" u''' +  3 * u * u' ") == u3 + 3 * u * u1

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_function("u +")
        assert err.value.position == 3
        with pytest.raises(ParseError):
            parse_function("v")
        with pytest.raises(ParseError):
            parse_function("u'' extra")
        with pytest.raises(ParseError):
            parse_function("(" * 101 + "u" + ")" * 101)

    def test_exponent_overflow(self):
        for text in ("u^99999999", "u(10001)"):
            with pytest.raises(OverflowError):
                parse_function(text)

    def test_expansion_bounded(self):
        # (u+u'+u''+u''')^10000 has about 1.7e11 terms; it is refused up front
        start = time.perf_counter()
        for text in ("(u+u'+u''+u''')^10000", "(u+u')^10000",
                     "(u+u'+u'')^200 * (u+u'+u'')^200"):
            with pytest.raises(OverflowError, match="past 10000 terms"):
                parse_function(text)
        assert time.perf_counter() - start < 1.0
        assert len(parse_function("(u+u'+u'')^10 * (u+u'+u'')^10").nums) == 231

    def test_computed_exponents_bounded(self):
        # the bound holds for the exponent a product or a power lands on,
        # not only for the integers written in the text
        assert parse_function("u^5000*u^5000") == DiffPoly.jet("u", 0, 10000)
        assert parse_function("u^-5000*u^-5000") == DiffPoly.jet("u", 0, -10000)
        assert parse_function("(u^-2)^5000*u'^10000") == \
            DiffPoly.jet("u", 0, -10000) * DiffPoly.jet("u", 1, 10000)
        for text in ("u^5000*u^5001", "u^-5000*u^-5001", "((u^10000)^10000)^10000",
                     "(u^-2)^5001", "(u*u'^2)^5001", "u^2*(u + u^9999)"):
            with pytest.raises(OverflowError, match="past the bound 10000"):
                parse_function(text)

    def test_power_work_bounded(self):
        # (u+u')^9999 has 10000 terms, but binary powering would multiply
        # bases of thousands of terms; it is refused before any of that work
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="term pairs"):
            parse_function("(u+u')^9999")
        assert time.perf_counter() - start < 1.0
        expected = DiffPoly.zero()
        for k in range(501):
            expected = expected + comb(500, k) * DiffPoly.jet("u", 0, k) \
                * DiffPoly.jet("u", 1, 500 - k)
        assert repr(parse_function("(u+u')^500")) == repr(expected)

    def test_constant_power_bounded(self):
        # a constant has no exponent to bound, so the bits of its power are
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="bits"):
            parse_function("((9^9999)^9999)^9999")
        assert time.perf_counter() - start < 1.0
        assert parse_function("(2^64)^100") == DiffPoly.const(2 ** 6400)

    def test_power_bits_read_coefficients_in_lowest_terms(self):
        # 1/p and 1/q have 61 bits each and their common denominator p*q has
        # 122: 61 * 9000 is under the bits bound and 122 * 9000 is past it, so
        # the refusal is the term pairs one
        p, q = 1152921504606847009, 1152921504606847067
        with pytest.raises(OverflowError, match="term pairs"):
            parse_function(f"(1/{p}*u + 1/{q})^9000")

    def test_negative_powers_of_jet_monomials(self):
        assert parse_function("(u*u')^-2") == parse_function("u^-2*u'^-2")
        assert parse_function("((u))^-1") == DiffPoly.jet("u", 0, -1)
        for text in ("(2*u)^-1", "(1/2*u)^-1", "(u + u')^-1"):
            with pytest.raises(ParseError, match="negative powers only apply to jet monomials"):
                parse_function(text)

    def test_formal_names_opt_in(self):
        assert parse_function("F'*u", names=("u", "F")) == jet("F", 1) * u
        with pytest.raises(ParseError):
            parse_function("F'")


class TestPrinting:
    def test_canonical_examples(self):
        assert format_poly(parse_function("3*u*u' + u'''")) == "u''' + 3*u*u'"
        assert format_poly(DiffPoly.zero()) == "0"
        assert format_poly(-u) == "-u"
        assert format_poly(u1 - u) == "u' - u"

    def test_high_orders_use_call_form(self):
        assert format_poly(jet("u", 4)) == "u(4)"
        assert format_poly(jet("u", 3)) == "u'''"

    def test_kdv_chain_round_trips(self):
        # chain coefficients grow past the exponent bound, which only
        # exponents and jet orders obey
        from diffalg import Hierarchy
        from diffalg.corpus import ENTRIES
        kdv, grading = ENTRIES["kdv"].load()
        chain = Hierarchy.from_operator(kdv, grading=grading).extend(7).chain
        assert len(chain) == 8
        for s in chain:
            assert parse_function(format_poly(s)) == s

    def test_round_trip_fixpoint_1000(self):
        rng = random.Random(1234)
        for _ in range(1000):
            p = rand_poly(rng, max_order=5, max_degree=3, terms=4)
            text = format_poly(p)
            reparsed = parse_function(text)
            assert reparsed == p
            assert format_poly(reparsed) == text

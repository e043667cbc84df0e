import pytest

from gotzmann.core import poly_ring, sqf_ring
from gotzmann.counting import enumerate_gotzmann
from gotzmann.textio import (
    format_ideal,
    format_monomial,
    infer_variable_count,
    parse_ideal_inline,
    parse_monomial,
    parse_order,
    write_ideal_stanzas,
)
from support import parse_ideal_lines, read_ideal_stanzas

R4 = sqf_ring(4)
S4 = poly_ring(4)


class TestMonomials:
    def test_concatenated_letters(self):
        assert parse_monomial("abd", R4) == (1, 1, 0, 1)

    def test_star_separated_positional_names(self):
        assert parse_monomial("x1*x2*x4", R4) == (1, 1, 0, 1)

    def test_unit(self):
        assert parse_monomial("1", R4) == (0, 0, 0, 0)
        assert format_monomial((0, 0, 0, 0), R4) == "1"

    def test_exponents_accumulate(self):
        assert parse_monomial("a*a*b", S4) == (2, 1, 0, 0)
        assert format_monomial((2, 1, 0, 0), S4) == "a*a*b"

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_monomial("z", R4)
        with pytest.raises(ValueError):
            parse_monomial("x9", R4)

    def test_round_trip(self):
        for text in ("a", "abd", "abcd"):
            m = parse_monomial(text, R4)
            assert parse_monomial(format_monomial(m, R4), R4) == m


class TestIdeals:
    def test_inline_forms(self):
        I = parse_ideal_inline("ab, ac ,bd,cd", R4)
        assert len(I.gens) == 4
        assert parse_ideal_inline("(ab,ac)", R4) == parse_ideal_inline("ab,ac", R4)

    def test_zero_and_unit(self):
        assert parse_ideal_inline("0", R4).is_zero
        assert parse_ideal_inline("1", R4).is_unit
        assert format_ideal(parse_ideal_inline("0", R4)) == "0"
        assert format_ideal(parse_ideal_inline("1", R4)) == "1"
        assert parse_ideal_inline("(0)", R4).is_zero
        for text in ("", " ", "()", "( )"):
            with pytest.raises(ValueError, match="write 0 for the zero ideal"):
                parse_ideal_inline(text, R4)

    def test_format_orders_generators_deterministically(self):
        I = parse_ideal_inline("cd,ab,bd,ac", R4)
        assert format_ideal(I) == "ab, ac, bd, cd"

    def test_lines_with_comments(self):
        I = parse_ideal_lines(["# the four cycle", "ab", "ac  # one more", "", "bd", "cd"], R4)
        assert I == parse_ideal_inline("ab,ac,bd,cd", R4)

    def test_lines_without_monomial_rejected(self):
        for lines in ([], [""], ["# only a comment", ""], ["  # x", "   "]):
            with pytest.raises(ValueError, match="^empty ideal: write 0 for the zero ideal$"):
                parse_ideal_lines(lines, R4)
        assert parse_ideal_lines(["# the zero ideal", "0"], R4).is_zero
        assert parse_ideal_lines(["0", "ab"], R4) == parse_ideal_inline("ab", R4)

    def test_inline_round_trip(self):
        for text in ("0", "1", "a", "ab,ac,bd,cd", "a,bc"):
            I = parse_ideal_inline(text, R4)
            assert parse_ideal_inline(format_ideal(I), R4) == I


class TestStanzas:
    def test_round_trip_whole_enumeration(self):
        ideals = enumerate_gotzmann(3)
        text = write_ideal_stanzas(ideals)
        back = read_ideal_stanzas(text, poly_ring(3))
        assert back == ideals

    def test_zero_ideal_survives(self):
        ideals = enumerate_gotzmann(2)
        text = write_ideal_stanzas(ideals)
        back = read_ideal_stanzas(text, poly_ring(2))
        assert sum(1 for I in back if I.is_zero) == 1


class TestOrders:
    def test_parse_letter_string(self):
        assert parse_order("acbd", R4) == (0, 2, 1, 3)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            parse_order("ab", R4)


class TestInference:
    def test_largest_letter_wins(self):
        assert infer_variable_count("ab,ce") == 5

    def test_positional_tokens(self):
        assert infer_variable_count("x1*x4") == 4

    def test_trivial_ideals_need_no_variables(self):
        assert infer_variable_count("0") == 0
        assert infer_variable_count("1") == 0

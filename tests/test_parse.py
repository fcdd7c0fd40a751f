"""The polynomial I/O grammar and its canonical rendering."""

import pytest

from genus2chow.parse import ParseError, parse_polynomial, render_polynomial
from genus2chow.ring import Ring

import random

from helpers import random_homogeneous


@pytest.fixture
def ring():
    return Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))


class TestParse:
    def test_basic(self, ring):
        p = parse_polynomial(ring, "24*lambda1^2 - 48*lambda2")
        assert p.term_map().get((2, 0, 0)) == 24
        assert p.term_map().get((0, 1, 0)) == -48

    def test_whitespace_insensitive(self, ring):
        assert parse_polynomial(ring, " 2*t -  lambda1 ") == parse_polynomial(
            ring, "2*t-lambda1"
        )

    def test_parentheses_and_powers(self, ring):
        p = parse_polynomial(ring, "(t - 2*lambda1)^2")
        assert p == parse_polynomial(ring, "t^2 - 4*lambda1*t + 4*lambda1^2")

    def test_unary_minus(self, ring):
        assert parse_polynomial(ring, "-t + - 2*lambda1") == parse_polynomial(
            ring, "-(t + 2*lambda1)"
        )

    def test_unknown_variable_position(self, ring):
        with pytest.raises(ParseError) as err:
            parse_polynomial(ring, "2*t + bogus")
        assert err.value.position == 6

    def test_bad_character_position(self, ring):
        with pytest.raises(ParseError) as err:
            parse_polynomial(ring, "t + @")
        assert err.value.position == 4

    def test_unbalanced_parenthesis(self, ring):
        with pytest.raises(ParseError):
            parse_polynomial(ring, "(t + lambda1")

    def test_trailing_garbage(self, ring):
        with pytest.raises(ParseError):
            parse_polynomial(ring, "t t")

    def test_missing_exponent(self, ring):
        with pytest.raises(ParseError):
            parse_polynomial(ring, "t^")


class TestRender:
    def test_zero(self, ring):
        assert render_polynomial(ring.zero()) == "0"

    def test_signs_and_powers(self, ring):
        p = parse_polynomial(ring, "-t^2 + lambda1*t - 3*lambda2")
        text = render_polynomial(p)
        assert text == "-t^2 + lambda1*t - 3*lambda2" or "lambda1*t" in text

    def test_round_trip_random(self, ring):
        rng = random.Random(5)
        for _ in range(40):
            p = random_homogeneous(ring, rng.randint(0, 5), rng, max_terms=6)
            assert parse_polynomial(ring, render_polynomial(p)) == p

    def test_constant_rendering(self, ring):
        assert render_polynomial(ring.const(-7)) == "-7"
        assert render_polynomial(ring.one()) == "1"

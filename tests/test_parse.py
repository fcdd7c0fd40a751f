"""The polynomial I/O grammar and its canonical rendering."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from genus2chow.parse import ParseError, parse_polynomial, render_polynomial
from genus2chow.ring import IntPolynomial, Ring

from helpers import random_homogeneous, reference_parse


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

    def test_name_extending_a_known_name_is_unknown(self, ring):
        with pytest.raises(ParseError, match="unknown variable 'lambda12'") as err:
            parse_polynomial(ring, "2*t + lambda12")
        assert err.value.position == 6

    @pytest.mark.parametrize(
        "text, position",
        [
            ("\u0663*t", 0),  # an Arabic-Indic digit three
            ("t\u00a0+ lambda1", 1),  # a no-break space
            ("t\u2003*t", 1),  # an em space
        ],
    )
    def test_non_ascii_rejected(self, ring, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_polynomial(ring, text)
        assert err.value.position == position

    def test_no_polynomial_arithmetic(self, ring, monkeypatch):
        calls = []
        for op in ("__add__", "__sub__", "__mul__", "__neg__", "__pow__"):
            original = getattr(IntPolynomial, op)

            def counted(*args, _op=op, _original=original):
                calls.append(_op)
                return _original(*args)

            monkeypatch.setattr(IntPolynomial, op, counted)
        p = parse_polynomial(ring, "-(t - 2*lambda1)^3 * (lambda2 + 007) - --t*t^0")
        assert calls == []
        assert p == reference_parse(ring, "-(t - 2*lambda1)^3 * (lambda2 + 007) - --t*t^0")


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


# -- the parser against the reference evaluator in helpers -------------------------

_RING = Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))
_ATOMS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.integers(0, 99).map(lambda n: f"00{n}"),
    st.sampled_from(_RING.names),
    st.tuples(st.sampled_from(_RING.names), st.integers(0, 3)).map(lambda a: f"{a[0]}^{a[1]}"),
).map(lambda atom: [atom])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda a: [*a[0], a[1], *a[2]]),
        inner.map(lambda a: ["(", *a, ")"]),
        inner.map(lambda a: ["-", *a]),
        st.tuples(inner, st.integers(0, 3)).map(lambda a: ["(", *a[0], ")", "^", str(a[1])]),
    )


@st.composite
def expression_texts(draw):
    """Grammatical texts, with ASCII spaces, tabs and newlines between tokens."""
    tokens = draw(st.recursive(_ATOMS, _compound, max_leaves=8))
    space = st.text(" \t\n", max_size=2)
    return "".join(draw(space) + token for token in tokens) + draw(space)


def _outcome(parse, text, ring=_RING):
    try:
        return parse(ring, text)
    except ParseError as err:
        return ("ParseError", str(err), err.position)


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(expression_texts())
    def test_same_polynomial(self, text):
        assert parse_polynomial(_RING, text) == reference_parse(_RING, text)

    @settings(max_examples=100, deadline=None)
    @given(
        expression_texts(),
        st.data(),
        # No digit or '^': a corruption never makes a huge exponent.
        st.sampled_from(list("@#()*+- \tx\u0663\u00a0\u2003\u00e9")),
        st.booleans(),
    )
    def test_same_error_position(self, text, data, char, replace):
        """A corrupted text fails with the reference's message at its position."""
        at = data.draw(st.integers(0, len(text) - replace))
        corrupted = text[:at] + char + text[at + replace :]
        assert _outcome(parse_polynomial, corrupted) == _outcome(reference_parse, corrupted)


def test_round_trip_on_pipeline_rings(pipeline):
    rng = random.Random(16)
    for name, spec in pipeline.presentations.items():
        for degree in range(9):
            for _ in range(3):
                p = random_homogeneous(spec.ring, degree, rng, max_terms=6)
                assert parse_polynomial(spec.ring, render_polynomial(p)) == p, (name, degree)


def _membership_text(ring, rng) -> str:
    """A sum of up to 30 signed monomials with coefficients up to 10**30, with
    spaces around every + and -, like the texts of membership queries."""
    pieces = []
    for _ in range(rng.randint(1, 30)):
        factors = [str(rng.randint(1, 10**30))]
        for name in ring.names:
            e = rng.choice((0, 0, 1, 2, 3))
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        pieces.append(f"{rng.choice('+-')} {'*'.join(factors)}")
    return " ".join(pieces).lstrip("+ ")


def _near_end_errors(ring, text: str, rng) -> dict:
    """One text per error kind, each with the error placed in the last term."""
    sign = max(text.rfind(" + "), text.rfind(" - "))
    last = sign + 3 if sign >= 0 else 0  # where the last term's monomial starts
    at = rng.randint(last, len(text))
    return {
        "unexpected character": text[:at] + "@" + text[at:],
        "unknown variable": text + "*nosuch",
        "expected ')'": text[:last] + "(" + text[last:],
        "expected integer exponent": text[:last] + f"{ring.names[-1]}^ * " + text[last:],
        "unexpected 'y0'": text + " y0",
    }


def test_membership_shaped_texts_on_pipeline_rings(pipeline):
    rng = random.Random(7)
    for name, spec in pipeline.presentations.items():
        ring = spec.ring
        for _ in range(12):
            text = _membership_text(ring, rng)
            assert parse_polynomial(ring, text) == reference_parse(ring, text), (name, text)
            for kind, bad in _near_end_errors(ring, text, rng).items():
                outcome = _outcome(parse_polynomial, bad, ring)
                assert outcome == _outcome(reference_parse, bad, ring), (name, bad)
                assert outcome[0] == "ParseError" and kind in outcome[1], (name, bad)

"""``parse_scalar``'s direct Gaussian-rational reader against the grammar.

The oracle is ``parse_scalar`` as it was before the direct reader: every
text through the polynomial grammar.  The reader must give the same value
on every plain Gaussian rational and the same ``ParseError`` on everything
it hands back to the grammar.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticanon.errors import ParseError
from anticanon.exact import ExactScalar, format_scalar
from anticanon.polyparse import parse_poly, parse_scalar


def _oracle_scalar(text: str) -> ExactScalar:
    return parse_poly(text, variables=set()).constant_value()


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.col)


def _assert_same(text):
    assert _outcome(parse_scalar, text) == _outcome(_oracle_scalar, text), text


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(ExactScalar, rationals, rationals)
spaces = st.sampled_from(["", " ", "  ", "\t"])


@given(scalars)
@settings(max_examples=200, deadline=None)
def test_format_scalar_text(c):
    text = format_scalar(c)
    assert parse_scalar(text) == c
    _assert_same(text)


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_workload_text(real, im):
    # perfbench's lattice generator writes every entry as ``a±b*i``.
    text = f"{real}{'-' if im < 0 else '+'}{abs(im)}*i"
    assert parse_scalar(text) == ExactScalar(real, im)
    _assert_same(text)


def _rational_text(q: Fraction, pad: str) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}{pad}/{pad}{q.denominator}"


@st.composite
def spaced_texts(draw):
    """Gaussian rationals with spaces, optional signs, ``bi``, ``+i`` and
    parentheses; some are not plain and must go to the grammar."""
    pad = draw(spaces)
    real = draw(rationals)
    im = draw(st.fractions(min_value=0, max_value=50, max_denominator=12))
    sign = draw(st.sampled_from(["", "+", "-"]))
    im_sign = draw(st.sampled_from(["+", "-"]))
    times = draw(st.sampled_from(["*", " * ", "", " "]))
    im_text = "i" if im == 1 and draw(st.booleans()) else \
        f"{_rational_text(im, pad)}{times}i"
    shape = draw(st.sampled_from(["re", "im", "both", "paren", "imfirst"]))
    re_text = f"{sign}{pad}{_rational_text(abs(real), pad)}"
    if shape == "re":
        text = re_text
    elif shape == "im":
        text = f"{sign}{pad}{im_text}"
    elif shape == "both":
        text = f"{re_text}{pad}{im_sign}{pad}{im_text}"
    elif shape == "paren":
        text = f"({re_text}{pad}{im_sign}{pad}{im_text}){pad}/{pad}2"
    else:
        text = f"{sign}{im_text}{pad}{im_sign}{pad}{_rational_text(abs(real), pad)}"
    return f"{draw(spaces)}{text}{draw(spaces)}"


@given(spaced_texts())
@settings(max_examples=300, deadline=None)
def test_spaced_and_signed_text(text):
    _assert_same(text)


@pytest.mark.parametrize("text", [
    "i", "+i", "-i", "2i", "- 2 i", "2 3i", "1 2", "3 - i", "1/2i", "7/07",
    "1/00", "3+1/0*i", "", "3 +", "1/-2", "3 - -2i", "2ii", "i2", "*i", "3+*i",
])
def test_edge_texts_match_the_grammar(text):
    _assert_same(text)


@pytest.mark.parametrize("text, message", [
    ("1/0", "can only divide by a nonzero constant"),
    ("1.5", "unexpected character '.'"),
    ("x", "unknown variable 'x'"),
    ("()", "unexpected token ')'"),
    ("\u00b2", "unexpected character '\u00b2'"),        # superscript two
    ("2\u00b2", "unexpected character '\u00b2'"),
    ("\u0661", "unexpected character '\u0661'"),        # Arabic-Indic one
])
def test_rejected_texts_raise_the_grammar_error(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scalar(text)
    _assert_same(text)

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzycover.exact import (
    CANONICAL_DEGREE_RE,
    MICRO,
    DecimalFormatError,
    format_each,
    format_ratio,
    format_scaled,
    parse_degree,
    parse_scaled,
    ratio_ge,
)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0),
        ("1", MICRO),
        ("0.5", 500_000),
        ("0.75", 750_000),
        ("0.123456", 123_456),
        ("0.900000", 900_000),
        ("1.000000", MICRO),
    ],
)
def test_parse_degree(text, value):
    assert parse_degree(text) == value


@pytest.mark.parametrize("text", ["1.1", "-0.1", "0.1234567", "abc", "1e-3", "", "0..5"])
def test_parse_degree_rejects(text):
    with pytest.raises(DecimalFormatError):
        parse_degree(text)


@pytest.mark.parametrize("text", ["\u0660.\u0665", "\uff11", "0.\uff15", "\u0967"])
def test_parse_scaled_accepts_ascii_digits_only(text):
    # Arabic-Indic 0.5, fullwidth 1, 0.fullwidth 5, Devanagari 1
    with pytest.raises(DecimalFormatError):
        parse_scaled(text)


@pytest.mark.parametrize("text", [" 0.5", "0.5 ", "\u3000 0.5 ", "0.5\n", "\t1", "- 1"])
def test_parse_scaled_refuses_padding(text):
    with pytest.raises(DecimalFormatError):
        parse_scaled(text)


def test_parse_degree_rejects_numbers():
    with pytest.raises(DecimalFormatError):
        parse_degree(0.5)  # type: ignore[arg-type]


@pytest.mark.parametrize("value", [0.5, 1, True, None, ["0.5"]])
def test_non_string_refused_with_a_hint(value):
    with pytest.raises(DecimalFormatError, match="quote it"):
        parse_scaled(value)  # type: ignore[arg-type]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no digit limit"
)
@pytest.mark.parametrize("limit", [None, 640])
def test_integer_part_past_the_digit_limit(limit):
    """More integer digits than int() converts is a format error, at any set limit."""
    default = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        digits = sys.get_int_max_str_digits()
        assert parse_scaled("9" * digits) == (10**digits - 1) * MICRO
        with pytest.raises(DecimalFormatError, match=f"{digits + 1} digits"):
            parse_scaled("9" * (digits + 1) + ".5")
    finally:
        sys.set_int_max_str_digits(default)


def test_parse_scaled_signs_and_range():
    assert parse_scaled("2") == 2 * MICRO
    assert parse_scaled("-1.5") == -1_500_000
    assert parse_scaled("6.25") == 6_250_000


@pytest.mark.parametrize(
    "value,text",
    [(0, "0"), (MICRO, "1"), (500_000, "0.5"), (123_456, "0.123456"), (-2_500_000, "-2.5")],
)
def test_format_scaled(value, text):
    assert format_scaled(value) == text


@given(st.integers(min_value=0, max_value=MICRO))
def test_degree_round_trip(value):
    assert parse_degree(format_scaled(value)) == value
    assert CANONICAL_DEGREE_RE.fullmatch(format_scaled(value))


# spellings of degrees and near-degrees: signs, leading zeros, trailing zeros
spellings = st.builds(
    lambda sign, whole, frac: sign + whole + (f".{frac}" if frac else ""),
    st.sampled_from(["", "-"]),
    st.sampled_from(["0", "1", "00", "01"]),
    st.text("0123456789", max_size=6) | st.sampled_from(["0", "5", "50", "000000"]),
)


@given(spellings)
def test_canonical_degree_re_accepts_only_what_format_scaled_writes(text):
    try:
        value = parse_degree(text)
    except DecimalFormatError:
        return
    assert bool(CANONICAL_DEGREE_RE.fullmatch(text)) == (format_scaled(value) == text)


@given(st.integers(min_value=-(10**9), max_value=10**9))
def test_scaled_round_trip(value):
    assert parse_scaled(format_scaled(value)) == value


def test_ratio_exact_boundaries():
    # 2.6 / 5.2 is exactly 0.5
    assert ratio_ge(2_600_000, 5_200_000, 500_000)


@given(
    st.integers(min_value=0, max_value=10**8),
    st.integers(min_value=1, max_value=10**8),
    st.integers(min_value=0, max_value=MICRO),
)
def test_ratio_agrees_with_fractions(num, den, threshold):
    from fractions import Fraction

    p = Fraction(num, den)
    t = Fraction(threshold, MICRO)
    assert ratio_ge(num, den, threshold) == (p >= t)



@given(st.integers(min_value=-(10**12), max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_format_ratio_is_str_of_fraction(num, den):
    from fractions import Fraction

    assert format_ratio(num, den) == str(Fraction(num, den))


@given(st.lists(st.integers(min_value=-2 * MICRO, max_value=2 * MICRO)
                | st.sampled_from([0, 500_000, MICRO])))
def test_format_each_is_format_scaled_of_each(values):
    assert format_each(values) == list(map(format_scaled, values))

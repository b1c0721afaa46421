"""Config parsing and casts: round trips and every rejection message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdyn.config import (
    ConfigError,
    RunConfig,
    as_choice,
    as_float,
    as_float_list,
    as_int,
    parse_config_text,
)

_LOWER = "abcdefghijklmnopqrstuvwxyz"
# lowercase dotted identifiers, the keys parse_config_text accepts
_KEYS = st.lists(st.tuples(st.sampled_from(_LOWER),
                           st.text(_LOWER + "0123456789_", max_size=6)).map("".join),
                 min_size=1, max_size=4).map(".".join)
# one line's worth of text: str.splitlines breaks on control characters and on
# the line and paragraph separators
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=12)
_PAD = st.sampled_from(["", " ", "  ", "\t"])
# no 'n' and no 'e': never "inf", "nan" or an exponent, so never a number
_WORDS = st.text(_LOWER.replace("e", "").replace("n", ""), min_size=1, max_size=8)


def _message(call, *args) -> str:
    with pytest.raises(ConfigError) as exc:
        call(*args)
    return str(exc.value)


@st.composite
def _config_texts(draw, min_pairs=0):
    """(text, pairs): the pairs rendered one a line with padding around the
    key, the '=' and the value, between blank and comment lines."""
    keys = draw(st.lists(_KEYS, min_size=min_pairs, max_size=6, unique=True))
    pairs = {key: draw(_LINE_TEXT).strip() for key in keys}
    lines = []
    for key, value in pairs.items():
        lines += draw(st.lists(st.one_of(_PAD, _PAD.map(lambda p: p + "#"),
                                         _LINE_TEXT.map(lambda t: "#" + t)),
                               max_size=2))
        lines.append(draw(_PAD) + key + draw(_PAD) + "=" + draw(_PAD) + value
                     + draw(_PAD))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), pairs


@settings(max_examples=60)
@given(_config_texts())
def test_parse_round_trips_rendered_pairs(case):
    text, pairs = case
    out = parse_config_text(text)
    assert out == pairs
    assert list(out) == list(pairs)


@settings(max_examples=60)
@given(_config_texts(min_pairs=1), st.data())
def test_a_repeated_key_is_rejected_at_its_line(case, data):
    text, pairs = case
    key = data.draw(st.sampled_from(sorted(pairs)))
    lines = text.splitlines() + [f"{key} = {data.draw(_LINE_TEXT).strip()}"]
    assert (_message(parse_config_text, "\n".join(lines))
            == f"line {len(lines)}: duplicate config key: {key}")


@settings(max_examples=60)
@given(_config_texts(), _LINE_TEXT)
def test_a_line_without_equals_is_rejected_at_its_line(case, junk):
    text, _ = case
    line = "x" + junk.replace("=", "")  # not blank, not a comment, no '='
    lines = text.splitlines() + [line]
    assert (_message(parse_config_text, "\n".join(lines))
            == f"line {len(lines)}: expected key=value, got {line.strip()!r}")


_BAD_KEYS = st.one_of(
    st.just(""),
    _KEYS.map(str.upper).filter(lambda k: k != k.lower()),
    _KEYS.map(lambda k: "9" + k),
    _KEYS.map(lambda k: "_" + k),
    st.tuples(_KEYS, _KEYS).map(lambda ab: ab[0] + ".." + ab[1]),
    _KEYS.map(lambda k: k + "."),
    st.tuples(_KEYS, st.sampled_from("-+ /:"), _KEYS).map("".join),
)


@settings(max_examples=60)
@given(_config_texts(), _BAD_KEYS)
def test_a_malformed_key_is_rejected_at_its_line(case, key):
    text, _ = case
    lines = text.splitlines() + [f"{key} = 1"]
    assert (_message(parse_config_text, "\n".join(lines))
            == f"line {len(lines)}: malformed key {key!r}")


@settings(max_examples=60)
@given(st.dictionaries(_KEYS, _LINE_TEXT, min_size=1, max_size=6), st.data())
def test_finish_names_the_first_unread_key(raw, data):
    cfg = RunConfig(raw)
    read = data.draw(st.sets(st.sampled_from(sorted(raw))))
    for key in sorted(read):
        cfg.get(key, str)
    unread = sorted(set(raw) - read)
    if unread:
        assert _message(cfg.finish) == f"unknown config key: {unread[0]}"
    else:
        cfg.finish()
    assert cfg.resolved == {key: raw[key] for key in read}


@given(st.floats(allow_nan=False), _PAD, _PAD)
def test_as_float_reads_back_every_float(x, left, right):
    assert as_float(left + repr(x) + right) == x


@given(st.integers(), _PAD, _PAD)
def test_as_int_reads_back_every_integer(i, left, right):
    assert as_int(left + str(i) + right) == i


@given(st.one_of(st.just(""), _WORDS))
def test_numeric_casts_name_the_rejected_text(raw):
    assert _message(as_float, raw) == f"expected a number, got {raw!r}"
    assert _message(as_int, raw) == f"expected an integer, got {raw!r}"
    cfg = RunConfig({"run.steps": raw})
    assert (_message(cfg.get, "run.steps", as_int)
            == f"invalid value for run.steps: expected an integer, got {raw!r}")


@given(st.floats(allow_nan=False).filter(lambda x: not x.is_integer()))
def test_as_int_rejects_a_fraction(x):
    assert _message(as_int, repr(x)) == f"expected an integer, got {repr(x)!r}"


@given(st.lists(_KEYS, min_size=1, max_size=4, unique=True), _LINE_TEXT)
def test_as_choice_accepts_exactly_its_options(options, raw):
    cast = as_choice(*options)
    for option in options:
        assert cast(option) == option
    if raw not in options:
        assert _message(cast, raw) == f"expected one of {tuple(options)}, got {raw!r}"


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6),
       st.lists(st.tuples(_PAD, _PAD, st.sampled_from(["", ","])), min_size=6,
                max_size=6))
def test_as_float_list_reads_back_every_list(values, pads):
    # each item may carry padding and an empty item (",,") after it
    raw = ",".join(left + repr(x) + right + extra
                   for x, (left, right, extra) in zip(values, pads))
    assert as_float_list(raw) == tuple(values)


@given(st.lists(_PAD, max_size=4), _WORDS)
def test_as_float_list_rejects_empty_lists_and_bad_items(pads, word):
    assert (_message(as_float_list, ",".join(pads))
            == "expected a comma-separated list of numbers")
    assert _message(as_float_list, f"1.5, {word}") == f"expected a number, got {word!r}"


def test_get_holds_read_and_default_values_to_its_rule():
    """A rule (test, text) applies to a read and a defaulted value alike; the
    rejected value stays in resolved for the error manifest, and NaN fails."""
    positive = (lambda v: v > 0.0, "> 0")
    cfg = RunConfig({"a.read": "2.5", "a.bad": "-1", "a.nan": "nan"})
    assert cfg.get("a.read", as_float, 1.0, positive) == 2.5
    assert cfg.get("a.default", as_float, 3.0, positive) == 3.0
    assert _message(cfg.get, "a.bad", as_float, 1.0, positive) == "a.bad must be > 0"
    assert _message(cfg.get, "a.zero", as_float, 0.0, positive) == "a.zero must be > 0"
    assert _message(cfg.get, "a.nan", as_float, 1.0, positive) == "a.nan must be > 0"
    nan = cfg.resolved.pop("a.nan")
    assert nan != nan
    assert cfg.resolved == {"a.read": 2.5, "a.default": 3.0, "a.bad": -1.0, "a.zero": 0.0}
    cfg.finish()

"""`canonical_json` is `json.dumps` with sorted keys, `,`/`:` separators and
`ensure_ascii=False`: the same text for every value, and the same error for
every value it cannot encode."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from btagents.journal import canonical_json


def dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# characters an escaper treats specially: quotes, backslashes, control
# characters, DEL, line separators, non-ASCII text and lone surrogates
TRICKY = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600\ud800\U0010fc00\udfff'
texts = st.text() | st.text(alphabet=st.sampled_from(TRICKY) | st.characters())


@st.composite
def json_values(draw):
    """A nested value whose strings come from a small pool holding one long
    string, so the same strings recur, as they do in a journal."""
    long_text = draw(st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), min_size=5)) * 40
    pool = st.sampled_from([long_text, *draw(st.lists(texts, min_size=1, max_size=4))])
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | pool
    # one kind of key per dict, since None and a number cannot be sorted together
    key_kinds = st.sampled_from([pool, st.integers() | st.floats() | st.booleans(), st.none()])
    return draw(
        st.recursive(
            scalars,
            lambda children: st.lists(children, max_size=5)
            | key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
            max_leaves=25,
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=json_values())
@example(value=["\ud800" * 300] * 4)
@example(value={1.5: float("nan"), 2: float("inf"), True: -float("inf")})
@example(value={None: ['"\\\x00\u2028']})
@example(value={"b": "\xe9", "a": ["\xe9", {"\xe9": "\xe9"}]})
# ASCII text takes the ASCII escaper, which differs only in escaping DEL: every
# ASCII code point, DEL in a key and in a value, and a repeat served by the memo
@example(value="".join(map(chr, range(128))))
@example(value={"k\x7f": "a\x7fb"})
@example(value=["plain ASCII, \"quoted\"\n"] * 3)
def test_equals_json_dumps(value):
    assert canonical_json(value) == dumps(value)


def raised(encode, value):
    with pytest.raises(Exception) as info:
        encode(value)
    return type(info.value), str(info.value)


def test_set_raises_as_json_dumps_does():
    assert raised(canonical_json, {"a": [{1, 2}]}) == raised(dumps, {"a": [{1, 2}]}) == (
        TypeError,
        "Object of type set is not JSON serializable",
    )


def test_self_containing_list_raises_as_json_dumps_does():
    loop = ["x"]
    loop.append(loop)
    assert raised(canonical_json, loop) == raised(dumps, loop) == (ValueError, "Circular reference detected")


def test_a_failed_call_leaves_no_trace():
    """A value left half-encoded by a failed call is no circular reference the
    next time it is encoded."""
    inner = ["deep", {"k": "v"}]
    value = [inner, {"key": inner}, {1, 2}]
    for _ in range(2):
        with pytest.raises(TypeError):
            canonical_json(value)
    value.pop()
    assert canonical_json(value) == dumps(value) == '[["deep",{"k":"v"}],{"key":["deep",{"k":"v"}]}]'
    loop = [inner]
    loop.append(loop)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        canonical_json(loop)
    loop.pop()
    assert canonical_json(loop) == '[["deep",{"k":"v"}]]'

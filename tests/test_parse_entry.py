"""`parse_agent_output` on any prose-wrapped reply either raises one of
`PARSE_ERRORS` or returns exactly the role's four journal fields, and it
returns them whenever the object's values are valid."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from btagents.agents import PARSE_ERRORS, STATE_VALUES, fallback_decision, parse_agent_output

ENTRY_KEYS = {"state", "allocation", "reasoning", "confidence"}

# prose holds no "{", so the object drawn is the first one a reply carries
prose = st.text(st.characters(blacklist_characters="{"), max_size=40)
# numbers of every JSON kind, the edges of floats among them
numbers = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -0.0, 1e-300]),
)
other = st.one_of(st.none(), st.booleans(), st.text(max_size=10), st.lists(st.integers(), max_size=2))
# each field is valid about half the time, so every check is reached often
states = st.one_of(
    st.sampled_from(sorted(STATE_VALUES)).flatmap(
        lambda s: st.lists(st.booleans(), min_size=len(s), max_size=len(s)).map(
            lambda upper: "".join(c.upper() if u else c for c, u in zip(s, upper))
        )
    ),
    st.one_of(numbers, other),
)
percents = st.one_of(st.integers(0, 100), st.floats(0.0, 100.0), numbers, other)
reasonings = st.one_of(st.text(min_size=1, max_size=30), st.one_of(st.just(" \n"), numbers, other))
confidences = st.one_of(st.just("absent"), numbers, other)


def valid(obj):
    state, pct, reasoning = obj["state"], obj["allocation_btc_pct"], obj["reasoning"]
    return (
        isinstance(state, str)
        and state.lower() in STATE_VALUES
        and type(pct) in (int, float)
        and 0 <= pct <= 100
        and isinstance(reasoning, str)
        and reasoning.strip() != ""
    )


@settings(max_examples=1000, deadline=None)
@given(
    state=states,
    pct=percents,
    reasoning=reasonings,
    confidence=confidences,
    before=prose,
    after=prose,
)
def test_parse_returns_the_four_fields_or_raises_a_parse_error(
    state, pct, reasoning, confidence, before, after
):
    obj = {"state": state, "allocation_btc_pct": pct, "reasoning": reasoning}
    if confidence != "absent":
        obj["confidence"] = confidence
    try:
        entry = parse_agent_output(before + json.dumps(obj) + after)
    except PARSE_ERRORS:
        assert not valid(obj)
        return
    assert valid(obj)
    assert set(entry) == ENTRY_KEYS
    assert entry["state"] in STATE_VALUES and entry["state"] == state.lower()
    assert type(entry["allocation"]) is float and 0 <= entry["allocation"] <= 1
    assert entry["allocation"] == pct / 100
    assert isinstance(entry["reasoning"], str) and entry["reasoning"].strip()
    assert entry["confidence"] is None or (
        type(entry["confidence"]) is float and math.isfinite(entry["confidence"])
    )


@given(st.floats(0.0, 1.0))
def test_fallback_has_the_same_fields(btc_fraction):
    entry = fallback_decision(btc_fraction)
    assert set(entry) == ENTRY_KEYS
    assert entry["state"] in STATE_VALUES and entry["allocation"] == btc_fraction

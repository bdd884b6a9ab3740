"""The precompiled term alternations that gate prompt lint and the reflect
scope filter give exactly the per-term oracle's violations and messages."""

from datetime import date

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from btagents.agents import INDICATOR_TERMS, NEWS_SENTIMENT_TERMS, PromptBundle, Role, lint_bundle
from btagents.reflection import (
    ALLOCATION_NOUNS,
    ALLOCATION_VERBS,
    SIGNALS_BANNED_TERMS,
    scope_filter,
)

from oracles import oracle_lint, oracle_scope_filter

FRACTIONS = (0.0, 0.35, 0.5, 0.125, 1.0)
TOKENS = ("35%", "35.0%", "0.35", "0.350", "12.5 %", "50%", "100.00%", "0.125", "ks", "sk")
# U+017F (long s) and U+212A (Kelvin sign) match "s" and "k" under IGNORECASE
# but str.lower() leaves them alone
LOOKALIKES = {"s": "\u017f", "k": "\u212a"}
SEPARATORS = (" ", "", "_", "-", ".", "!", "?", "\n", ",", "%", "1", "9", "a", "Z", "\u017f", "\u212a")


@st.composite
def spelled(draw, words):
    """One of `words`, each character kept, upper-cased or swapped for a look-alike."""
    chars = []
    for c in draw(st.sampled_from(words)):
        way = draw(st.sampled_from(("keep", "upper", "alike")))
        chars.append(c.upper() if way == "upper" else LOOKALIKES.get(c, c) if way == "alike" else c)
    return "".join(chars)


# one pool per term list, so a sentence often holds a verb, a noun and a percentage
texts = st.lists(
    st.one_of(
        [spelled(words) for words in (INDICATOR_TERMS, NEWS_SENTIMENT_TERMS, SIGNALS_BANNED_TERMS)]
        + [spelled(words) for words in (ALLOCATION_VERBS, ALLOCATION_NOUNS, TOKENS)]
        + [st.sampled_from(SEPARATORS)]
    ),
    max_size=10,
).map("".join)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@SETTINGS
@given(role=st.sampled_from(list(Role)), text=texts, upstream=st.lists(st.sampled_from(FRACTIONS), max_size=2))
@example(role=Role.SIGNALS, text="\u017fma", upstream=[])
@example(role=Role.QUANTS, text="\u212aNEWS fear_greed", upstream=[])
@example(role=Role.QUANTS, text="the pre\u017f\u017f", upstream=[])
@example(role=Role.DECISION, text="held 35% and 0.350 of 135%", upstream=[0.35])
def test_lint_equals_per_term_oracle(role, text, upstream):
    bundle = PromptBundle(role=role, date=date(2024, 11, 4), system_text="", user_text=text)
    assert lint_bundle(bundle, upstream) == oracle_lint(role.value, "\n" + text, upstream)


@SETTINGS
@given(quants=texts, signals=texts, decision=texts)
@example(quants="", signals="watch the \u017fMA", decision="")
@example(quants="raise your exposure to 60%", signals="", decision="cut the split by 5 %")
@example(quants="raise your allocation to 12.5% tomorrow", signals="", decision="trim the split. 12.5%")
@example(quants="set the position to 12.5. 1%", signals="raise 3.5% exposure", decision="")
def test_scope_filter_equals_per_term_oracle(quants, signals, decision):
    feedback = {"quants": quants, "signals": signals, "decision": decision}
    got = [(v["role"], v["reason"]) for v in scope_filter(feedback)]
    assert got == oracle_scope_filter(feedback)


def spellings(word):
    alike = "".join(LOOKALIKES.get(c, c) for c in word)
    return (word, word.upper(), alike, f"x{word}", f"{word}_", f"({word}).", f"1{word}")


def test_each_term_alone_in_every_spelling():
    for role, words in ((Role.SIGNALS, INDICATOR_TERMS), (Role.QUANTS, NEWS_SENTIMENT_TERMS)):
        for word in words:
            for text in spellings(word):
                bundle = PromptBundle(role=role, date=date(2024, 11, 4), system_text="", user_text=text)
                assert lint_bundle(bundle) == oracle_lint(role.value, "\n" + text), text
    for word in SIGNALS_BANNED_TERMS:
        for text in spellings(word):
            feedback = {"signals": text}
            assert [(v["role"], v["reason"]) for v in scope_filter(feedback)] == oracle_scope_filter(feedback)
    for verb in ALLOCATION_VERBS:
        for noun in ALLOCATION_NOUNS:
            for v in spellings(verb):
                for n in (noun, noun.upper(), f"{noun}s"):
                    feedback = {"decision": f"{v} the {n} by 5%"}
                    got = [(x["role"], x["reason"]) for x in scope_filter(feedback)]
                    assert got == oracle_scope_filter(feedback), feedback

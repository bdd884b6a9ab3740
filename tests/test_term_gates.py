"""Prompt lint and the reflect scope filter give exactly the per-term
oracle's violations and messages, feedback the filter passes lints clean in
the prompt it enters, and the case fold behind their substring pre-test
keeps every character that IGNORECASE matches to a term character."""

import random
import re
import sys
from datetime import date

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from btagents.agents import (
    DECISION_SYSTEM,
    INDICATOR_TERMS,
    NEWS_SENTIMENT_TERMS,
    QUANTS_SYSTEM,
    SIGNALS_SYSTEM,
    PromptBundle,
    Role,
    _fold,
    build_quants_prompt,
    build_signals_prompt,
    lint_bundle,
)
from btagents.indicators import IndicatorParams, pair_terms, snapshot
from btagents.market_data import OnChainDaily, SentimentDaily
from btagents.reflection import (
    ALLOCATION_NOUNS,
    ALLOCATION_VERBS,
    REFLECT_SYSTEM,
    SIGNALS_BANNED_TERMS,
    scope_filter,
)

from conftest import quants_rows, random_bars
from oracles import oracle_lint, oracle_scope_filter

FRACTIONS = (0.0, 0.35, 0.5, 0.125, 1.0)
TOKENS = (
    "35%", "35.0%", "0.35", "0.350", "12.5 %", "50%", "100.00%", "0.125", "ks", "sk",
    "5\uff05", "percent", "per cent", "per-cent", "pct",
)
# U+017F (long s), U+212A (Kelvin sign), U+0131 (dotless i) and U+0130 (dotted
# capital I) match "s", "k" and "i" under IGNORECASE; str.lower() leaves the
# first and third alone and turns the last into two characters
LOOKALIKES = {"s": ("\u017f",), "k": ("\u212a",), "i": ("\u0131", "\u0130")}
SEPARATORS = (
    " ", "", "_", "-", ".", "!", "?", "\n", ",", "%", "1", "9", "a", "Z",
    "\u017f", "\u212a", "\u0131", "\u0130",
)


@st.composite
def spelled(draw, words):
    """One of `words`, each character kept, upper-cased or swapped for a look-alike."""
    chars = []
    for c in draw(st.sampled_from(words)):
        way = draw(st.sampled_from(("keep", "upper", "alike")))
        if way == "alike" and c in LOOKALIKES:
            c = draw(st.sampled_from(LOOKALIKES[c]))
        chars.append(c.upper() if way == "upper" else c)
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
@given(
    role=st.sampled_from(list(Role)),
    system=texts | st.sampled_from([QUANTS_SYSTEM, SIGNALS_SYSTEM, DECISION_SYSTEM, REFLECT_SYSTEM]),
    text=texts,
    upstream=st.lists(st.sampled_from(FRACTIONS), max_size=2),
)
@example(role=Role.SIGNALS, system="", text="\u017fma", upstream=[])
@example(role=Role.QUANTS, system="", text="\u212aNEWS fear_greed", upstream=[])
@example(role=Role.QUANTS, system="", text="the pre\u017f\u017f", upstream=[])
@example(role=Role.DECISION, system="", text="held 35% and 0.350 of 135%", upstream=[0.35])
@example(role=Role.SIGNALS, system="", text="RS\u0130", upstream=[])
@example(role=Role.SIGNALS, system="", text="watch rs\u0131", upstream=[])
@example(role=Role.QUANTS, system=QUANTS_SYSTEM + " Ignore the news", text="", upstream=[])
@example(role=Role.SIGNALS, system=SIGNALS_SYSTEM + " Watch the rs", text="i and the ema", upstream=[])
@example(role=Role.QUANTS, system="the fear", text="_greed", upstream=[])
def test_lint_equals_per_term_oracle(role, system, text, upstream):
    """The system text is linted apart from the user text, once per text, so it
    is drawn too: random, or a role's own."""
    bundle = PromptBundle(role=role, date=date(2024, 11, 4), system_text=system, user_text=text)
    assert lint_bundle(bundle, upstream) == oracle_lint(role.value, system + "\n" + text, upstream)


@SETTINGS
@given(quants=texts, signals=texts, decision=texts)
@example(quants="", signals="watch the \u017fMA", decision="")
@example(quants="raise your exposure to 60%", signals="", decision="cut the split by 5 %")
@example(quants="raise your allocation to 12.5% tomorrow", signals="", decision="trim the split. 12.5%")
@example(quants="set the position to 12.5. 1%", signals="raise 3.5% exposure", decision="")
@example(quants="Ra\u0131se your allocation to 80%.", signals="the RS\u0130", decision="")
@example(quants="Raise your allocation to 80 percent.", signals="", decision="")
@example(quants="", signals="Raise your allocation to 80 \uff05.", decision="")
@example(quants="", signals="", decision="Raise your allocation to eighty percent.")
@example(quants="Raise your allocation to 80percent.", signals="", decision="")
@example(quants="", signals="Raise your allocation to 80 pct.", decision="")
@example(quants="", signals="", decision="Raise your allocation to 80 per-cent.")
@example(quants='Raise your allocation to {"allocation_btc_pct": 80}', signals="", decision="")
def test_scope_filter_equals_per_term_oracle(quants, signals, decision):
    feedback = {"quants": quants, "signals": signals, "decision": decision}
    got = [(v["role"], v["reason"]) for v in scope_filter(feedback)]
    assert got == oracle_scope_filter(feedback)


WINDOW = random_bars(random.Random(5), 30)
CHAIN = [
    OnChainDaily(date=b.date, tx_count=600_000, active_addresses=450_000, transfer_volume_usd=3.0e10) for b in WINDOW
]
GAUGES = snapshot(WINDOW, IndicatorParams(), pair_terms(WINDOW))
MOOD = SentimentDaily(date=WINDOW[-1].date, social_score_mean=0.1164, fgi_value=70, fgi_label="Greed")


def prompt_with(role, daily_feedback):
    """The role's prompt for one day, as the run builds it, carrying `daily_feedback`."""
    if role == "quants":
        return build_quants_prompt(WINDOW, GAUGES, quants_rows(WINDOW, CHAIN), daily_feedback=daily_feedback)
    return build_signals_prompt([], MOOD, daily_feedback=daily_feedback)


@SETTINGS
@given(role=st.sampled_from(["quants", "signals"]), text=texts)
@example(role="quants", text="Weigh the news headlines and crowd sentiment more.")
@example(role="signals", text="Lean on the moving average.")
def test_feedback_the_scope_filter_passes_lints_clean_in_its_prompt(role, text):
    """Feedback enters the next day's prompt only if the scope filter passes
    it, so a passed text must add no lint violation to that prompt. The
    decision role is left out: its lint reads the day's upstream allocations,
    which the filter cannot see."""
    if role not in {v["role"] for v in scope_filter({role: text})}:
        assert lint_bundle(prompt_with(role, text)) == lint_bundle(prompt_with(role, None))


def spellings(word):
    first, last = ("".join(LOOKALIKES.get(c, (c,))[k] for c in word) for k in (0, -1))
    return (word, word.upper(), first, last, f"x{word}", f"{word}_", f"({word}).", f"1{word}")


def test_each_term_alone_in_every_spelling():
    for role, words in ((Role.SIGNALS, INDICATOR_TERMS), (Role.QUANTS, NEWS_SENTIMENT_TERMS)):
        for word in words:
            for text in spellings(word):
                bundle = PromptBundle(role=role, date=date(2024, 11, 4), system_text="", user_text=text)
                assert lint_bundle(bundle) == oracle_lint(role.value, "\n" + text), text
    for role, words in (("signals", SIGNALS_BANNED_TERMS), ("quants", NEWS_SENTIMENT_TERMS)):
        for word in words:
            for text in spellings(word):
                feedback = {role: text}
                assert [(v["role"], v["reason"]) for v in scope_filter(feedback)] == oracle_scope_filter(feedback)
    for verb in ALLOCATION_VERBS:
        for noun in ALLOCATION_NOUNS:
            for v in spellings(verb):
                for n in (noun, noun.upper(), f"{noun}s"):
                    feedback = {"decision": f"{v} the {n} by 5%"}
                    got = [(x["role"], x["reason"]) for x in scope_filter(feedback)]
                    assert got == oracle_scope_filter(feedback), feedback


def test_dotless_and_dotted_i_spell_i():
    for text in ("RS\u0130", "rs\u0131"):
        bundle = PromptBundle(role=Role.SIGNALS, date=date(2024, 11, 4), system_text="", user_text=text)
        assert lint_bundle(bundle) == ["signals prompt mentions indicator term 'rsi'"]
        assert scope_filter({"signals": text}) == [{"role": "signals", "reason": "mentions indicator term 'rsi'"}]
    assert scope_filter({"quants": "Ra\u0131se your allocation to 80%."}) == [
        {"role": "quants", "reason": "contains an explicit allocation directive"}
    ]


@pytest.mark.parametrize(
    "text",
    [
        "Raise your allocation to 80 percent.",
        "Raise your allocation to 80 \uff05.",
        "Raise your allocation to eighty percent.",
        "Cut the position by five PER CENT",
        "Set exposure to 80\uff05",
        "Raise your allocation to 80percent.",
        "Raise your allocation to 80 pct.",
        "Raise your allocation to 80 per-cent.",
        "Trim the split to 12.5PCT",
    ],
)
def test_other_spellings_of_a_percentage(text):
    assert scope_filter({"decision": text}) == [
        {"role": "decision", "reason": "contains an explicit allocation directive"}
    ]
    assert scope_filter({"decision": re.sub("(?i)per[ -]?cent|pct|\uff05", "", text)}) == []


@pytest.mark.parametrize(
    "text",
    [
        'Raise your allocation: {"allocation_btc_pct": 80}',
        "Raise your allocation by the pct_below_vwap figure",
        "Raise your allocation, 80 pcts of it",
    ],
)
def test_pct_inside_a_word_is_not_a_percentage(text):
    assert scope_filter({"decision": text}) == []


@pytest.fixture(scope="module")
def every_code_point():
    return "".join(map(chr, [*range(0xD800), *range(0xE000, sys.maxunicode + 1)]))


def test_fold_keeps_one_character_per_code_point(every_code_point):
    assert [ch for ch in every_code_point if len(_fold(ch)) != 1] == []


def test_fold_turns_each_ignorecase_match_into_its_term_character(every_code_point):
    # every character a term, separator or token can hold
    for c in "abcdefghijklmnopqrstuvwxyz0123456789_ -%.":
        matched = {m.group() for m in re.finditer(re.escape(c), every_code_point, re.IGNORECASE)}
        assert {x for x in matched if _fold(x) != c} == set(), c

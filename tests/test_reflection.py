import json
import random
from datetime import date, timedelta

import pytest

from btagents.agents import InvokeResult
from btagents.errors import (
    IncompleteWeek,
    MissingAgentRecord,
    NetworkError,
    ParseError,
    SchemaError,
)
from btagents.metrics import prediction_correct
from btagents.orchestrator import Ledger, RunConfig, run_backtest
from btagents.reflection import (
    AGENT_ROLES,
    CORRECTIVE_QUANTS_PHRASE,
    NEUTRAL_PHRASE,
    NO_ALLOCATION_ADVICE,
    PRAISE_PHRASE,
    build_reflect_prompt,
    evaluate_day,
    load_weekly_templates,
    parse_reflect_output,
    run_daily_reflection,
    scope_filter,
    select_template_kind,
    weekly_feedback,
)

from conftest import synth_dataset

D = date(2024, 11, 4)


def decision_for(state, pct, reasoning="view"):
    return {"state": state, "allocation": pct / 100.0, "reasoning": reasoning, "confidence": None}


def settled_day(day, btc_return, decisions, returns, baseline_return):
    """A run's first day as `Ledger.settle` returns it, less each role's portfolio."""
    roles = evaluate_day(decisions, returns, btc_return, 0.005)
    for outcome in roles.values():
        outcome["running_accuracy"] = outcome["correct"] / 1
    return {
        "date": day.isoformat(),
        "btc_return": btc_return,
        "baseline": {"day_return_5050": baseline_return},
        "roles": roles,
    }


def day_for(
    day=D,
    btc_return=0.0224,
    states=("bullish", "bullish", "bullish"),
    allocations=(35, 70, 40),
    returns=(0.00784, 0.01568, 0.00896),
    baseline_return=0.0112,
):
    decisions = {
        role: decision_for(state, pct, f"{role} reasoning text")
        for role, state, pct in zip(AGENT_ROLES, states, allocations)
    }
    return settled_day(day, btc_return, decisions, dict(zip(AGENT_ROLES, returns)), baseline_return)


class TestEvaluateDay:
    def test_bullish_calls_on_a_rally_are_correct(self):
        roles = day_for()["roles"]
        assert all(roles[r]["correct"] for r in AGENT_ROLES)

    def test_neutral_on_flat_day_is_correct(self):
        roles = day_for(btc_return=0.0, states=("neutral", "neutral", "neutral"))["roles"]
        assert all(roles[r]["correct"] for r in AGENT_ROLES)

    def test_flags_match_metrics_rule(self):
        rng = random.Random(61)
        for _ in range(50):
            states = tuple(rng.choice(["bullish", "bearish", "neutral"]) for _ in range(3))
            r = rng.uniform(-0.03, 0.03)
            roles = day_for(btc_return=r, states=states)["roles"]
            for role, state in zip(AGENT_ROLES, states):
                assert roles[role]["correct"] == prediction_correct(state, r, 0.005)

    def test_missing_role_raises(self):
        with pytest.raises(MissingAgentRecord):
            evaluate_day(
                decisions={"quants": decision_for("neutral", 50)},
                portfolio_returns={"quants": 0.0},
                btc_return=0.0,
                neutral_band=0.005,
            )


class TestRunningAccuracy:
    def test_settle_accumulates_each_roles_score(self):
        # bullish each day: right on the two rallies, wrong on the two falls
        start = date(2024, 1, 1)
        ledger = Ledger(RunConfig(start=start, end=start), 100.0)
        entries = {r: decision_for("bullish", 50) for r in AGENT_ROLES}
        closes = [100.0, 102.0, 100.0, 98.0, 100.0]
        accuracies = []
        for i, (close_t, close_next) in enumerate(zip(closes, closes[1:])):
            day = ledger.settle(start + timedelta(days=i), entries, close_t, close_next)
            assert len({day["roles"][r]["running_accuracy"] for r in AGENT_ROLES}) == 1
            accuracies.append(day["roles"]["quants"]["running_accuracy"])
        # prior counts (1, 3) and a correct day give 2/4
        assert accuracies == [1 / 1, 1 / 2, 1 / 3, 2 / 4]
        assert ledger.counts == dict.fromkeys(AGENT_ROLES, (2, 4))


class TestReflectPrompt:
    def test_includes_outcomes_and_reasonings(self):
        bundle = build_reflect_prompt(day_for(states=("bearish", "bullish", "neutral")))
        assert "quants reasoning text" in bundle.user_text
        assert "signals reasoning text" in bundle.user_text
        assert "bearish" in bundle.user_text
        assert "bullish" in bundle.user_text

    def test_no_allocation_advice_instruction_always_present(self):
        bundle = build_reflect_prompt(day_for())
        assert NO_ALLOCATION_ADVICE in bundle.system_text

    def test_baseline_comparison_always_present(self):
        bundle = build_reflect_prompt(day_for())
        assert "baseline" in bundle.user_text.lower()

    def test_requires_json_output_contract(self):
        bundle = build_reflect_prompt(day_for())
        assert '"quants"' in bundle.system_text
        assert '"signals"' in bundle.system_text
        assert '"decision"' in bundle.system_text


class TestParseReflectOutput:
    def test_valid_three_keys(self):
        texts = parse_reflect_output(
            '{"quants": "a", "signals": "b", "decision": "c"}'
        )
        assert texts == {"quants": "a", "signals": "b", "decision": "c"}

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            parse_reflect_output('{"quants": "a", "decision": "c"}')

    def test_no_json(self):
        with pytest.raises(ParseError):
            parse_reflect_output("nothing structured")

    def test_empty_value(self):
        with pytest.raises(SchemaError):
            parse_reflect_output('{"quants": "", "signals": "b", "decision": "c"}')


class TestScopeFilter:
    def test_indicator_advice_to_signals_rejected(self):
        violations = scope_filter(
            {"quants": "ok", "signals": "consider RSI next time", "decision": "ok"}
        )
        assert [v["role"] for v in violations] == ["signals"]

    def test_technical_indicator_phrase_rejected(self):
        violations = scope_filter(
            {
                "quants": "ok",
                "signals": "you should incorporate technical indicators into your view",
                "decision": "ok",
            }
        )
        assert [v["role"] for v in violations] == ["signals"]

    def test_allocation_directive_rejected_any_role(self):
        violations = scope_filter(
            {
                "quants": "ok",
                "signals": "ok",
                "decision": "you should increase its Bitcoin allocation by 10%",
            }
        )
        assert [v["role"] for v in violations] == ["decision"]

    def test_decimal_percentage_directive_rejected(self):
        # the decimal point does not end the sentence
        violations = scope_filter({"decision": "raise your allocation to 12.5% tomorrow"})
        assert [v["role"] for v in violations] == ["decision"]
        # a full stop after a number does
        assert scope_filter({"decision": "raise your allocation to 12. 5% was the move"}) == []

    def test_indicator_words_fine_for_quants(self):
        violations = scope_filter(
            {"quants": "your MACD read ignored the RSI divergence", "signals": "ok", "decision": "ok"}
        )
        assert violations == []

    def test_percentages_without_directives_pass(self):
        violations = scope_filter(
            {
                "quants": "the move was 2.24% against your call",
                "signals": "the index gained 3% while you stayed cautious",
                "decision": "ok",
            }
        )
        assert violations == []

    def test_idempotent_on_accepted_feedback(self):
        feedback = {"quants": "solid sizing", "signals": "good reads", "decision": "balanced"}
        assert scope_filter(feedback) == []
        assert scope_filter(feedback) == []


class SeqClient:
    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.bundles = []

    def complete(self, bundle):
        self.bundles.append(bundle)
        item = self.outputs.pop(0)
        if isinstance(item, Exception):
            raise item
        return InvokeResult(text=item, attempts=1)


def reflect_json(quants="fine sizing", signals="good reads", decision="balanced"):
    return json.dumps({"quants": quants, "signals": signals, "decision": decision})


class TestRunDailyReflection:
    def test_clean_path(self):
        client = SeqClient([reflect_json()])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["quants"] == "fine sizing"
        assert outcome["flags"] == []

    def test_malformed_then_valid_with_reminder(self):
        client = SeqClient(["garbage", reflect_json()])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["signals"] == "good reads"
        assert "could not be parsed" in client.bundles[1].user_text

    def test_scope_violation_reinvoked_once(self):
        client = SeqClient(
            [reflect_json(signals="use the MACD crossover"), reflect_json(signals="clean note")]
        )
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["signals"] == "clean note"
        assert "reflect_scope_retry" in outcome["flags"]
        assert "crossed role boundaries" in client.bundles[1].user_text

    def test_persistent_violation_drops_role(self):
        client = SeqClient(
            [reflect_json(signals="use the MACD"), reflect_json(signals="still watch RSI")]
        )
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["signals"] == ""
        assert outcome["feedback"]["quants"] != ""
        assert "reflect_scope_dropped_signals" in outcome["flags"]

    def test_failed_rewrite_flags_each_dropped_role_once(self):
        dirty = reflect_json(
            quants="trim the exposure to 20% next time",
            signals="check the RSI and raise your allocation to 80%",
        )
        client = SeqClient([dirty, NetworkError("connection reset", 3)])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert [v["role"] for v in outcome["violations"]] == ["signals", "quants", "signals"]
        assert outcome["flags"] == [
            "reflect_scope_retry",
            "reflect_scope_dropped_quants",
            "reflect_scope_dropped_signals",
        ]
        assert (outcome["feedback"]["quants"], outcome["feedback"]["signals"]) == ("", "")
        assert outcome["feedback"]["decision"] == "balanced"

    def test_total_parse_failure_gives_empty_feedback(self):
        client = SeqClient(["junk", "junk"])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["quants"] == ""
        assert outcome["feedback"]["signals"] == ""
        assert outcome["feedback"]["decision"] == ""
        assert "reflect_fallback_empty" in outcome["flags"]

    def test_reply_nested_too_deeply_is_re_asked(self):
        deep = '{"a":' * 50_000 + reflect_json() + "}" * 50_000
        client = SeqClient([deep, reflect_json()])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"]["signals"] == "good reads"
        assert outcome["attempts"][0] == {
            "raw": deep,
            "error": "ParseError: reflect: JSON nested too deeply to decode",
        }
        assert "could not be parsed" in client.bundles[1].user_text

    def test_reply_with_lone_surrogate_gives_empty_feedback(self):
        client = SeqClient([reflect_json() + "\ud800", reflect_json()])
        outcome = run_daily_reflection(client, day_for(), retry_limit=1)
        assert outcome["feedback"] == dict.fromkeys(AGENT_ROLES, "")
        assert outcome["flags"] == ["reflect_fallback_empty"]
        assert [a["raw"] for a in outcome["attempts"]] == [None]
        assert outcome["attempts"][0]["error"].startswith(
            "SchemaError: reply is not valid Unicode text"
        )
        assert len(client.bundles) == 1


def week_of_days(agent_daily, baseline_daily, start=date(2024, 11, 4)):
    return [
        settled_day(
            start + timedelta(days=i),
            agent_daily,
            {r: decision_for("bullish", 60) for r in AGENT_ROLES},
            {r: agent_daily for r in AGENT_ROLES},
            baseline_daily,
        )
        for i in range(7)
    ]


def review(days):
    """`weekly_feedback` at the paper's thresholds, which are RunConfig's defaults."""
    return weekly_feedback(days, praise_threshold=0.0, regret_threshold=0.01)


class TestWeeklyFeedback:
    def setup_method(self):
        self.templates = load_weekly_templates()

    def text(self, wf, role):
        return self.templates[role][wf["kinds"][role]]

    def test_outperformance_selects_praise(self):
        days = week_of_days(agent_daily=0.02, baseline_daily=0.01)
        wf = review(days)
        for role in AGENT_ROLES:
            assert wf["kinds"][role] == "praise"
            assert PRAISE_PHRASE in self.text(wf, role)

    def test_underperformance_with_regret_selects_corrective(self):
        days = week_of_days(agent_daily=0.0, baseline_daily=0.01)
        wf = review(days)
        assert wf["kinds"]["quants"] == "corrective"
        assert CORRECTIVE_QUANTS_PHRASE in self.text(wf, "quants")
        assert wf["stats"]["quants"]["regret"] > 0.01

    def test_near_baseline_selects_neutral(self):
        days = week_of_days(agent_daily=0.01, baseline_daily=0.01)
        wf = review(days)
        for role in AGENT_ROLES:
            assert wf["kinds"][role] == "neutral"
            assert NEUTRAL_PHRASE in self.text(wf, role)

    def test_requires_exactly_seven_days(self):
        days = week_of_days(0.01, 0.01)
        with pytest.raises(IncompleteWeek):
            review(days[:6])
        with pytest.raises(IncompleteWeek):
            review(days + [days[-1]])

    def test_deterministic_selection(self):
        days = week_of_days(0.016, 0.01)
        a = review(days)
        b = review(days)
        assert a == b

    def test_weekly_stats_compound_returns(self):
        days = week_of_days(agent_daily=0.01, baseline_daily=0.005)
        wf = review(days)
        assert wf["stats"]["quants"]["week_return"] == pytest.approx(1.01 ** 7 - 1.0, abs=1e-12)
        assert wf["stats"]["quants"]["baseline_return"] == pytest.approx(1.005 ** 7 - 1.0, abs=1e-12)

    def test_window_dates(self):
        days = week_of_days(0.01, 0.01)
        wf = review(days)
        assert wf["week_start"] == days[0]["date"]
        assert wf["week_end"] == days[-1]["date"]

    def test_selection_rule_edges(self):
        assert select_template_kind(0.001, 0.0, 0.0, 0.01) == "praise"
        assert select_template_kind(0.0, 0.0, 0.0, 0.01) == "neutral"
        assert select_template_kind(-0.05, 0.05, 0.0, 0.01) == "corrective"
        assert select_template_kind(-0.005, 0.005, 0.0, 0.01) == "neutral"


class TestTemplatePool:
    def test_defaults_carry_required_phrases(self):
        pool = load_weekly_templates()
        for role in AGENT_ROLES:
            assert PRAISE_PHRASE in pool[role]["praise"]
            assert NEUTRAL_PHRASE in pool[role]["neutral"]
        assert CORRECTIVE_QUANTS_PHRASE in pool["quants"]["corrective"]

    def test_override_file(self, tmp_path):
        pool = load_weekly_templates()
        pool["quants"]["praise"] = "custom praise line"
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(pool), encoding="utf-8")
        loaded = load_weekly_templates(str(path))
        assert loaded["quants"]["praise"] == "custom praise line"

    def test_missing_role_rejected(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps({"quants": {}}), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_weekly_templates(str(path))

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"{not json", "weekly templates are not UTF-8 JSON: "),
            (b'{"quants": {"praise": "\xff"}}', "weekly templates are not UTF-8 JSON: "),
            (b'["quants"]', "weekly templates need an object for role 'quants'"),
            (b'{"quants": ["praise"]}', "weekly templates need an object for role 'quants'"),
            (b'{"quants": {"praise": "good \\ud800", "corrective": "x", "neutral": "x"}}',
             "weekly template quants/praise must be a non-empty UTF-8 string"),
            (b"[" * 100_000 + b"]" * 100_000, "weekly templates are not UTF-8 JSON: "),
        ],
        ids=["json", "utf8", "list", "role-list", "surrogate", "deep"],
    )
    def test_unusable_file_names_it(self, tmp_path, content, reason):
        path = tmp_path / "templates.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as exc:
            load_weekly_templates(str(path))
        assert str(exc.value).startswith(f"{path}: {reason}")

    def test_unusable_file_fails_before_any_call(self, tmp_path):
        pool = load_weekly_templates()
        pool["decision"]["praise"] = "SURROGATE"
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(pool).replace("SURROGATE", "\\ud800"), encoding="utf-8")
        calls = []

        class CountingClient:
            def complete(self, bundle):
                calls.append(bundle)
                raise AssertionError("no call expected")

        dataset = synth_dataset(32 + 10 + 2)
        days = dataset.dates[32 : 32 + 10]
        config = RunConfig(start=days[0], end=days[-1], weekly_template_path=str(path))
        with pytest.raises(SchemaError, match="decision/praise"):
            run_backtest(config, dataset, CountingClient())
        assert calls == []

    def test_templates_pass_scope_filter(self):
        pool = load_weekly_templates()
        for kind in ("praise", "corrective", "neutral"):
            feedback = {role: pool[role][kind] for role in AGENT_ROLES}
            assert scope_filter(feedback) == []

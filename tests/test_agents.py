import json
import random
from datetime import date

import pytest
import requests

from btagents.agents import (
    ChatClient,
    ChatClientConfig,
    DAILY_FEEDBACK_HEADER,
    FORMAT_REMINDER,
    InvokeResult,
    MarketState,
    ScriptedResponder,
    WEEKLY_FEEDBACK_HEADER,
    allocation_tokens,
    build_decision_prompt,
    build_quants_prompt,
    build_signals_prompt,
    decide_with_retry,
    fallback_decision,
    lint_bundle,
    parse_agent_output,
)
from btagents.errors import BtAgentsError, NetworkError, ParseError, RangeError, SchemaError
from btagents.indicators import IndicatorSnapshot
from btagents.market_data import NewsItem, OnChainDaily, SentimentDaily

from conftest import random_bars

D = date(2024, 11, 4)

SNAPSHOT_FIELD_NAMES = (
    "sma", "ema", "macd_line", "macd_signal_line", "macd_hist", "rsi",
    "bb_upper", "bb_mid", "bb_lower", "vwap", "pct_below_vwap", "adx",
)


def mk_snapshot(**overrides):
    line, signal = -76.84, -70.0
    fields = dict(
        date=D,
        sma=61_000.0,
        ema=61_200.0,
        macd_line=line,
        macd_signal_line=signal,
        macd_hist=line - signal,
        rsi=47.3,
        bb_upper=64_000.0,
        bb_mid=61_500.0,
        bb_lower=59_000.0,
        vwap=62_000.0,
        pct_below_vwap=0.7,
        adx=27.33,
    )
    fields.update(overrides)
    return IndicatorSnapshot(**fields)


def mk_onchain_rows(n=5):
    return [
        OnChainDaily(
            date=D,
            tx_count=700_000 + i,
            active_addresses=528_000,
            transfer_volume_usd=50.58e9,
        )
        for i in range(n)
    ]


def mk_sentiment():
    return SentimentDaily(date=D, social_score_mean=0.1164, fgi_value=70, fgi_label="Greed")


def quants_window(rng=None):
    # 30 bars ending exactly on the snapshot date
    rng = rng or random.Random(51)
    return random_bars(rng, 30, start_price=60_000.0, start_date=date(2024, 10, 6))


class TestQuantsPrompt:
    def test_no_feedback_sections_when_absent(self):
        bundle = build_quants_prompt(quants_window(), mk_snapshot(), mk_onchain_rows())
        assert DAILY_FEEDBACK_HEADER not in bundle.user_text
        assert WEEKLY_FEEDBACK_HEADER not in bundle.user_text

    def test_snapshot_values_embedded(self):
        bundle = build_quants_prompt(quants_window(), mk_snapshot(), mk_onchain_rows())
        assert "27.33" in bundle.user_text
        assert "-76.84" in bundle.user_text
        assert "70%" in bundle.user_text  # share of closes below the volume-weighted level

    def test_scoping_no_news_or_sentiment_terms(self):
        bundle = build_quants_prompt(quants_window(), mk_snapshot(), mk_onchain_rows())
        assert lint_bundle(bundle) == []

    def test_feedback_embedded_verbatim(self):
        bundle = build_quants_prompt(
            quants_window(),
            mk_snapshot(),
            mk_onchain_rows(),
            daily_feedback="critique alpha",
            weekly_feedback="guidance beta",
        )
        assert "critique alpha" in bundle.user_text
        assert "guidance beta" in bundle.user_text
        assert bundle.user_text.index(DAILY_FEEDBACK_HEADER) < bundle.user_text.index(
            WEEKLY_FEEDBACK_HEADER
        )

    def test_deterministic(self):
        a = build_quants_prompt(quants_window(), mk_snapshot(), mk_onchain_rows())
        b = build_quants_prompt(quants_window(), mk_snapshot(), mk_onchain_rows())
        assert a == b

    def test_degenerate_adx_noted(self):
        bundle = build_quants_prompt(
            quants_window(), mk_snapshot(adx=0.0, adx_degenerate=True), mk_onchain_rows()
        )
        assert "not defined" in bundle.user_text


class TestSignalsPrompt:
    def test_fgi_value_embedded(self):
        bundle = build_signals_prompt([], mk_sentiment())
        assert "70" in bundle.user_text
        assert "Greed" in bundle.user_text
        assert "+0.1164" in bundle.user_text

    def test_empty_news_marker(self):
        bundle = build_signals_prompt([], mk_sentiment())
        assert "No news available" in bundle.user_text

    def test_headlines_listed(self):
        news = [
            NewsItem(date=D, source="CNBC", headline="Miners add AI compute", summary="x"),
            NewsItem(date=D, source="Forbes", headline="Six-figure targets float", summary=""),
        ]
        bundle = build_signals_prompt(news, mk_sentiment())
        assert "Miners add AI compute" in bundle.user_text
        assert "[Forbes]" in bundle.user_text

    def test_no_indicator_field_names_anywhere(self):
        bundle = build_signals_prompt([], mk_sentiment())
        text = (bundle.system_text + " " + bundle.user_text).lower()
        for name in SNAPSHOT_FIELD_NAMES:
            assert f" {name} " not in text
        assert lint_bundle(bundle) == []

    def test_feedback_leak_is_caught_by_lint(self):
        bundle = build_signals_prompt(
            [], mk_sentiment(), daily_feedback="watch the RSI next time"
        )
        assert any("rsi" in v for v in lint_bundle(bundle))


class TestDecisionPrompt:
    def quants_pred(self):
        return {"state": "bearish", "allocation": 0.35, "reasoning": "momentum soft into the close"}

    def signals_pred(self):
        return {"state": "bullish", "allocation": 0.70, "reasoning": "coverage flow strongly positive"}

    def test_embeds_views_and_value(self):
        bundle = build_decision_prompt(D, self.quants_pred(), self.signals_pred(), 10_000.0)
        assert "bearish" in bundle.user_text
        assert "bullish" in bundle.user_text
        assert "momentum soft into the close" in bundle.user_text
        assert "10,000.00" in bundle.user_text

    def test_upstream_allocations_never_present(self):
        # the upstream entries carry allocations 0.35 and 0.70; only state and reasoning flow in
        bundle = build_decision_prompt(D, self.quants_pred(), self.signals_pred(), 10_000.0)
        assert lint_bundle(bundle, upstream_allocations=[0.35, 0.70]) == []
        for token in allocation_tokens(0.35) + allocation_tokens(0.70):
            assert token not in bundle.user_text

    def test_leaked_allocation_in_reasoning_flagged(self):
        leaky = {"state": "bearish", "reasoning": "I would cut to 35% here"}
        bundle = build_decision_prompt(D, leaky, self.signals_pred(), 10_000.0)
        assert any("35%" in v for v in lint_bundle(bundle, upstream_allocations=[0.35]))

    def test_both_feedbacks_fixed_order(self):
        bundle = build_decision_prompt(
            D,
            self.quants_pred(),
            self.signals_pred(),
            10_000.0,
            daily_feedback="daily note",
            weekly_feedback="weekly note",
        )
        assert bundle.user_text.index("daily note") < bundle.user_text.index("weekly note")


class TestParseAgentOutput:
    def test_plain_object(self):
        decision = parse_agent_output(
            '{"state":"bullish","allocation_btc_pct":70,"reasoning":"strong news"}'
        )
        assert decision["state"] == "bullish"
        assert decision["allocation"] == 0.70
        assert decision["reasoning"] == "strong news"

    def test_prose_then_object(self):
        raw = "Let me think.\nThe tape looks soft.\n" + json.dumps(
            {"state": "bearish", "allocation_btc_pct": 20, "reasoning": "weak bid"}
        )
        decision = parse_agent_output(raw)
        assert decision["state"] == "bearish"
        assert decision["allocation"] == 0.20

    def test_skips_objects_without_fields(self):
        raw = '{"thought": "warmup"} {"state":"neutral","allocation_btc_pct":50,"reasoning":"mixed"}'
        decision = parse_agent_output(raw)
        assert decision["state"] == "neutral"

    def test_out_of_range_allocation(self):
        with pytest.raises(RangeError):
            parse_agent_output('{"state":"bullish","allocation_btc_pct":140,"reasoning":"x"}')

    @pytest.mark.parametrize("pct", ["1" + "0" * 400, "-" + "1" + "0" * 400, "1e400"], ids=["10**400", "-10**400", "1e400"])
    def test_allocation_beyond_floats_is_out_of_range(self, pct):
        with pytest.raises(RangeError):
            parse_agent_output('{"state":"bullish","allocation_btc_pct":%s,"reasoning":"x"}' % pct)

    def test_no_json(self):
        with pytest.raises(ParseError):
            parse_agent_output("no structure here at all")

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            parse_agent_output('{"state":"bullish","reasoning":"x"}')

    def test_bad_state(self):
        with pytest.raises(SchemaError):
            parse_agent_output('{"state":"sideways","allocation_btc_pct":50,"reasoning":"x"}')

    def test_case_insensitive_state(self):
        decision = parse_agent_output(
            '{"state":"BULLISH","allocation_btc_pct":55,"reasoning":"x"}'
        )
        assert decision["state"] == "bullish"

    def test_confidence_preserved(self):
        decision = parse_agent_output(
            '{"state":"bullish","allocation_btc_pct":55,"reasoning":"x","confidence":0.8}'
        )
        assert decision["confidence"] == 0.8

    @pytest.mark.parametrize(
        "confidence",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"],
    )
    def test_confidence_beyond_floats_dropped(self, confidence):
        decision = parse_agent_output(
            '{"state":"bullish","allocation_btc_pct":55,"reasoning":"x","confidence":%s}' % confidence
        )
        assert decision["confidence"] is None

    def test_round_trip_full_grid(self):
        for state in MarketState:
            for pct in range(0, 101):
                raw = json.dumps(
                    {"state": state.value, "allocation_btc_pct": pct, "reasoning": "grid"}
                )
                decision = parse_agent_output(raw)
                assert decision["state"] == state.value
                assert decision["allocation"] == pct / 100.0


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    """Plays back a plan of responses/exceptions and records requests."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        action = self.plan.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def ok_response(text):
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


def client_config(**kw):
    defaults = dict(base_url="http://fake/v1", max_retries=3, backoff_seconds=0.0)
    defaults.update(kw)
    return ChatClientConfig(**defaults)


def any_bundle():
    return build_signals_prompt([], mk_sentiment())


class TestChatClient:
    def test_success_payload_and_wire_format(self):
        session = FakeSession([ok_response("hello")])
        client = ChatClient(client_config(), session=session)
        result = client.complete(any_bundle())
        assert result.text == "hello"
        assert result.attempts == 1
        sent = session.requests[0]
        assert sent["url"] == "http://fake/v1/chat/completions"
        assert sent["json"]["model"] == "deepseek-r1"
        assert [m["role"] for m in sent["json"]["messages"]] == ["system", "user"]
        assert sent["json"]["temperature"] == 0.0

    def test_retries_5xx_then_succeeds(self):
        session = FakeSession([FakeResponse(500), FakeResponse(500), ok_response("ok")])
        client = ChatClient(client_config(max_retries=3), session=session)
        result = client.complete(any_bundle())
        assert result.text == "ok"
        assert result.attempts == 3

    def test_network_error_carries_attempts(self):
        session = FakeSession([requests.ConnectionError("unreachable")])
        client = ChatClient(client_config(max_retries=1), session=session)
        with pytest.raises(NetworkError) as exc:
            client.complete(any_bundle())
        assert exc.value.attempts == 1

    def test_timeout_surfaces_as_timeout(self):
        session = FakeSession([requests.Timeout("slow"), requests.Timeout("slow")])
        client = ChatClient(client_config(max_retries=2), session=session)
        with pytest.raises(TimeoutError):
            client.complete(any_bundle())

    def test_4xx_fails_immediately(self):
        session = FakeSession([FakeResponse(401)])
        client = ChatClient(client_config(max_retries=3), session=session)
        with pytest.raises(NetworkError):
            client.complete(any_bundle())
        assert session.plan == []  # no retry consumed

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv("BTAGENTS_API_KEY", "secret-key")
        session = FakeSession([ok_response("x")])
        ChatClient(client_config(), session=session).complete(any_bundle())
        assert session.requests[0]["headers"]["Authorization"] == "Bearer secret-key"

    def test_wire_request_through_a_requests_session(self, monkeypatch):
        """What a real `requests.Session` puts on the wire, caught by an adapter
        before any socket is opened: a JSON body with its content type, and the key."""
        monkeypatch.setenv("BTAGENTS_API_KEY", "secret-key")
        sent = []

        class RecordingAdapter(requests.adapters.BaseAdapter):
            def send(self, request, **kwargs):
                sent.append(request)
                resp = requests.Response()
                resp.status_code = 200
                resp._content = json.dumps({"choices": [{"message": {"content": "hi"}}]}).encode()
                return resp

            def close(self):
                pass

        session = requests.Session()
        session.mount("http://", RecordingAdapter())
        assert ChatClient(client_config(), session=session).complete(any_bundle()).text == "hi"
        assert (sent[0].method, sent[0].url) == ("POST", "http://fake/v1/chat/completions")
        assert sent[0].headers["Content-Type"] == "application/json"
        assert sent[0].headers["Authorization"] == "Bearer secret-key"
        assert json.loads(sent[0].body)["model"] == "deepseek-r1"


class TestScriptedResponder:
    def test_keyed_lookup(self):
        responder = ScriptedResponder({"signals:2024-11-04": "fixture text"})
        assert responder.complete(any_bundle()).text == "fixture text"

    def test_missing_key_raises(self):
        responder = ScriptedResponder({})
        with pytest.raises(BtAgentsError):
            responder.complete(any_bundle())

    def test_from_file(self, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text(json.dumps({"signals:2024-11-04": "loaded"}), encoding="utf-8")
        responder = ScriptedResponder.from_file(str(path))
        assert responder.complete(any_bundle()).text == "loaded"

    def test_from_file_rejects_non_string_map(self, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text(json.dumps({"a": 1}), encoding="utf-8")
        with pytest.raises(SchemaError):
            ScriptedResponder.from_file(str(path))

    @pytest.mark.parametrize("content", [b"{not json", b'{"signals:2024-11-04": "\xff"}'], ids=["json", "utf8"])
    def test_from_file_rejects_unreadable_file(self, tmp_path, content):
        path = tmp_path / "fx.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match=f"^{path}: fixture is not UTF-8 JSON: "):
            ScriptedResponder.from_file(str(path))


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


GOOD = '{"state":"bullish","allocation_btc_pct":60,"reasoning":"fine"}'


class TestDecideWithRetry:
    def test_malformed_then_valid(self):
        client = SeqClient(["not json at all", GOOD])
        fields = decide_with_retry(client, any_bundle(), 1, 0.5)
        assert not fields["fallback"]
        assert fields["allocation"] == 0.60
        assert len(fields["attempts"]) == 2
        assert fields["attempts"][0]["error"] is not None
        # the re-ask carried a format reminder
        assert FORMAT_REMINDER in client.bundles[1].user_text

    def test_all_malformed_falls_back(self):
        client = SeqClient(["junk", "junk", "junk"])
        fields = decide_with_retry(client, any_bundle(), 2, 0.5)
        assert fields["fallback"]
        assert fields["allocation"] == 0.5
        assert fields["state"] == "neutral"
        assert len(fields["attempts"]) == 3

    def test_carries_previous_allocation(self):
        client = SeqClient(["junk", "junk"])
        fields = decide_with_retry(client, any_bundle(), 1, 0.35)
        assert fields["fallback"]
        assert fields["allocation"] == 0.35

    def test_transport_failure_falls_back(self):
        client = SeqClient([NetworkError("down", 3)])
        fields = decide_with_retry(client, any_bundle(), 2, 0.5)
        assert fields["fallback"]
        assert fields["attempts"][0]["raw"] is None

    def test_reply_with_lone_surrogate_is_a_failed_call(self):
        # a JSON body's "\ud800" escape decodes to a str no journal line can encode
        client = SeqClient([GOOD + " \ud800", GOOD])
        fields = decide_with_retry(client, any_bundle(), 1, 0.5)
        assert fields == {
            **fallback_decision(0.5),
            "raw": None,
            "attempts": [
                {
                    "raw": None,
                    "error": "SchemaError: reply is not valid Unicode text: "
                    "surrogates not allowed at position 63",
                }
            ],
            "fallback": True,
        }
        assert fields["allocation"] == 0.5
        assert len(client.bundles) == 1


class TestAllocationTokens:
    def test_grid_tokens(self):
        tokens = allocation_tokens(0.35)
        assert "35%" in tokens
        assert "0.35" in tokens

    def test_lint_does_not_flag_digit_embedded_values(self):
        # "10,089.60" must not read as the 0.60 allocation token
        bundle = build_decision_prompt(
            D,
            {"state": "neutral", "reasoning": "steady"},
            {"state": "neutral", "reasoning": "steady too"},
            10_089.60,
        )
        assert lint_bundle(bundle, upstream_allocations=[0.60]) == []

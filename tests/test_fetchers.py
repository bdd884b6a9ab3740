import json
import re
from datetime import date, datetime, timezone

import pytest
import requests

from btagents.errors import ConfigError, NetworkError, SchemaError
from btagents.fetchers import (
    EndpointConfig,
    FgiDaily,
    SocialDaily,
    fetch_fgi,
    fetch_news,
    fetch_social,
    merge_sentiment,
)

D1 = date(2024, 11, 4)
D2 = date(2024, 11, 5)


def utc_ts(d):
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())


class StubResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text


class StubSession:
    """Answers GETs from a plan of (status, body) pairs or exceptions; records every request."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params), "headers": headers})
        if not self.plan:
            raise AssertionError("session called more often than planned")
        action = self.plan.pop(0)
        if isinstance(action, Exception):
            raise action
        return StubResponse(*action)


def fgi_body(entries):
    return json.dumps({"name": "Fear and Greed Index", "data": entries})


def fgi_entry(d, value="70", label="Greed"):
    return {"value": value, "value_classification": label, "timestamp": str(utc_ts(d))}


def config(tmp_path=None, **kw):
    defaults = dict(base_url="http://fgi.test", max_retries=3, backoff_seconds=0.0)
    if tmp_path is not None:
        defaults["cache_dir"] = str(tmp_path / "cache")
    defaults.update(kw)
    return EndpointConfig(**defaults)


class TestFetchFgi:
    def test_parses_value_and_label(self, tmp_path):
        session = StubSession([(200, fgi_body([fgi_entry(D1)]))])
        rows = fetch_fgi(config(tmp_path), D1, D1, session=session)
        assert rows == [FgiDaily(date=D1, fgi_value=70, fgi_label="Greed")]

    def test_empty_data_array(self, tmp_path):
        session = StubSession([(200, fgi_body([]))])
        assert fetch_fgi(config(tmp_path), D1, D1, session=session) == []

    def test_non_numeric_value_is_schema_error(self, tmp_path):
        session = StubSession([(200, fgi_body([fgi_entry(D1, value="high")]))])
        with pytest.raises(SchemaError):
            fetch_fgi(config(tmp_path), D1, D1, session=session)

    def test_cache_then_offline_replay_identical(self, tmp_path):
        cfg = config(tmp_path)
        session = StubSession([(200, fgi_body([fgi_entry(D1), fgi_entry(D2, "55", "Neutral")]))])
        first = fetch_fgi(cfg, D1, D2, session=session)
        # network disabled: any further call would blow up
        offline = StubSession([])
        second = fetch_fgi(cfg, D1, D2, session=offline)
        assert second == first
        assert offline.calls == []
        assert (tmp_path / "cache" / "fgi" / "2024-11-04.json").exists()

    def test_retries_5xx_then_succeeds(self, tmp_path):
        session = StubSession([(500, "boom"), (200, fgi_body([fgi_entry(D1)]))])
        rows = fetch_fgi(config(tmp_path), D1, D1, session=session)
        assert rows[0].fgi_value == 70
        assert len(session.calls) == 2

    def test_network_error_after_retries(self, tmp_path):
        session = StubSession(
            [requests.ConnectionError("x")] * 3
        )
        with pytest.raises(NetworkError) as exc:
            fetch_fgi(config(tmp_path), D1, D1, session=session)
        assert exc.value.attempts == 3

    def test_not_json_is_schema_error(self, tmp_path):
        session = StubSession([(200, "<html>oops</html>")])
        with pytest.raises(SchemaError):
            fetch_fgi(config(tmp_path), D1, D1, session=session)

    def test_reversed_dates_are_config_error_before_any_request(self, tmp_path):
        session = StubSession([(200, fgi_body([fgi_entry(D1)]))])
        with pytest.raises(ConfigError, match="before start date"):
            fetch_fgi(config(tmp_path), D2, D1, session=session)
        assert session.calls == []


def news_body(articles):
    return json.dumps({"totalArticles": len(articles), "articles": articles})


def article(source, title, desc="d"):
    return {"source": {"name": source}, "title": title, "description": desc}


class TestFetchNews:
    def test_single_page(self, tmp_path):
        session = StubSession(
            [(200, news_body([article("CNBC", "h1"), article("Forbes", "h2")]))]
        )
        items = fetch_news(config(tmp_path), "bitcoin", D1, D1, session=session)
        assert [n.headline for n in items] == ["h1", "h2"]
        assert items[0].date == D1

    def test_source_whitelist(self, tmp_path):
        session = StubSession(
            [(200, news_body([article("CNBC", "keep"), article("Blog", "drop")]))]
        )
        items = fetch_news(
            config(tmp_path), "bitcoin", D1, D1, source_whitelist=["CNBC"], session=session
        )
        assert [n.headline for n in items] == ["keep"]

    def test_two_pages_concatenate_and_dedupe(self, tmp_path):
        page1 = [article("CNBC", f"h{i}") for i in range(3)]
        page2 = [article("CNBC", "h2"), article("Forbes", "h9")]  # h2 overlaps page 1
        session = StubSession([(200, news_body(page1)), (200, news_body(page2))])
        items = fetch_news(
            config(tmp_path), "bitcoin", D1, D1, page_size=3, session=session
        )
        # oracle: parse each page independently and take the ordered union
        union = []
        for page in (page1, page2):
            for a in page:
                key = (a["source"]["name"], a["title"])
                if key not in union:
                    union.append(key)
        assert [(n.source, n.headline) for n in items] == union
        assert session.calls[0]["params"]["page"] == 1
        assert session.calls[1]["params"]["page"] == 2

    def test_cache_replay_identical(self, tmp_path):
        cfg = config(tmp_path)
        session = StubSession([(200, news_body([article("CNBC", "h1")]))])
        first = fetch_news(cfg, "bitcoin", D1, D1, session=session)
        second = fetch_news(cfg, "bitcoin", D1, D1, session=StubSession([]))
        assert second == first

    def test_missing_articles_key_is_schema_error(self, tmp_path):
        session = StubSession([(200, json.dumps({"unexpected": []}))])
        with pytest.raises(SchemaError):
            fetch_news(config(tmp_path), "bitcoin", D1, D1, session=session)

    @pytest.mark.parametrize(
        "cached",
        [
            {"pages": [5]},
            {"pages": 3},
            {"pages": [json.dumps({"articles": 4})]},
            {"pages": [news_body([article("CNBC", 5)])]},
            {"pages": [news_body([article("CNBC", "h1", desc=7)])]},
            {"pages": [news_body([article(9, "h1")])]},
        ],
        ids=["page-int", "pages-int", "articles-int", "title-int", "description-int", "source-name-int"],
    )
    def test_cached_value_of_a_wrong_type_is_schema_error_naming_the_date(self, tmp_path, cached):
        path = tmp_path / "cache" / "gnews" / f"{D1.isoformat()}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(cached), encoding="utf-8")
        session = StubSession([])
        with pytest.raises(SchemaError, match=f"^gnews {D1.isoformat()}"):
            fetch_news(config(tmp_path), "bitcoin", D1, D1, session=session)
        assert session.calls == []

    def test_fetched_title_that_is_a_number_is_schema_error(self, tmp_path):
        session = StubSession([(200, news_body([article("CNBC", 5)]))])
        with pytest.raises(SchemaError, match=f"^gnews {D1.isoformat()}: article title 5 is not a string"):
            fetch_news(config(tmp_path), "bitcoin", D1, D1, session=session)


class TestFetchSocial:
    def test_parses_mean(self, tmp_path):
        session = StubSession([(200, json.dumps({"mean": 0.1164, "count": 1812}))])
        rows = fetch_social(config(tmp_path), D1, D1, session=session)
        assert rows == [SocialDaily(date=D1, social_score_mean=0.1164)]

    def test_bad_mean_is_schema_error(self, tmp_path):
        session = StubSession([(200, json.dumps({"mean": "positive"}))])
        with pytest.raises(SchemaError):
            fetch_social(config(tmp_path), D1, D1, session=session)

    def test_cache_replay(self, tmp_path):
        cfg = config(tmp_path)
        first = fetch_social(
            cfg, D1, D1, session=StubSession([(200, json.dumps({"mean": -0.2}))])
        )
        second = fetch_social(cfg, D1, D1, session=StubSession([]))
        assert second == first

    def test_cache_not_utf8_is_schema_error_naming_the_file(self, tmp_path):
        cached = tmp_path / "cache" / "senticrypt" / f"{D1.isoformat()}.json"
        cached.parent.mkdir(parents=True)
        cached.write_bytes(b'{"mean": 0.1\xff}')
        session = StubSession([])
        with pytest.raises(SchemaError, match=f"{re.escape(str(cached))}: cached body is not UTF-8"):
            fetch_social(config(tmp_path), D1, D1, session=session)
        assert session.calls == []


FETCHES = {
    "senticrypt": lambda cfg, session: fetch_social(cfg, D1, D1, session=session),
    "fgi": lambda cfg, session: fetch_fgi(cfg, D1, D1, session=session),
    "gnews": lambda cfg, session: fetch_news(cfg, "bitcoin", D1, D1, session=session),
}


@pytest.mark.parametrize(
    "source, body",
    [
        ("senticrypt", [1]),
        ("fgi", []),
        ("fgi", {"data": [5]}),
        ("gnews", []),
        ("gnews", {"articles": [3]}),
    ],
    ids=["social-list", "fgi-list", "fgi-entry-int", "news-list", "news-article-int"],
)
def test_json_that_is_not_an_object_is_schema_error_naming_source_and_date(tmp_path, source, body):
    session = StubSession([(200, json.dumps(body))])
    with pytest.raises(SchemaError, match=f"^{source} {D1.isoformat()}"):
        FETCHES[source](config(tmp_path), session)


class TestMergeSentiment:
    def test_joins_on_date(self):
        merged = merge_sentiment(
            [FgiDaily(D1, 70, "Greed"), FgiDaily(D2, 55, "Neutral")],
            [SocialDaily(D1, 0.1164)],
        )
        assert len(merged) == 1
        assert merged[0].fgi_value == 70
        assert merged[0].social_score_mean == 0.1164
        assert merged[0].date == D1

    def test_empty_inputs(self):
        assert merge_sentiment([], []) == []

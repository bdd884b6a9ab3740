"""Optional HTTP adapters for the sentiment and news feeds.

The backtest core never touches the network: these fetchers exist to build
the CSV inputs. Every raw response body is written to
``cache/<source>/<date>.json`` and the cache, when present, is preferred
over the wire, so a completed fetch replays offline byte-for-byte.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import date as Date, datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, InvariantViolation, SchemaError
from .market_data import NewsItem, SentimentDaily, dedupe_news
from .transport import default_session, request

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    api_key_env_var: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    backoff_seconds: float = 0.5
    cache_dir: str | None = None

    def __post_init__(self):
        if not self.timeout > 0:
            raise InvariantViolation("timeout must be > 0")


@dataclass(frozen=True)
class FgiDaily:
    """Fear/greed fields only; merged with social scores by date."""

    date: Date
    fgi_value: int
    fgi_label: str


@dataclass(frozen=True)
class SocialDaily:
    """Social score fields only; merged with fear/greed values by date."""

    date: Date
    social_score_mean: float


def _date_range(start: Date, end: Date) -> list[Date]:
    if end < start:
        raise ConfigError(f"end date {end} before start date {start}")
    out = []
    d = start
    while d <= end:
        out.append(d)
        d += timedelta(days=1)
    return out


def _cache_path(config: EndpointConfig, source: str, date: Date) -> Path | None:
    if config.cache_dir is None:
        return None
    return Path(config.cache_dir) / source / f"{date.isoformat()}.json"


def _cache_read(config: EndpointConfig, source: str, date: Date) -> str | None:
    path = _cache_path(config, source, date)
    if path is None or not path.exists():
        return None
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: cached body is not UTF-8: {exc}") from None


def _cache_write(config: EndpointConfig, source: str, date: Date, body: str) -> None:
    path = _cache_path(config, source, date)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body, encoding="utf-8")


def _get(config: EndpointConfig, url: str, params: dict, session) -> str:
    """GET through `transport.request`; only a cache miss makes the default session."""
    send = (session if session is not None else default_session()).get
    return request(send, url, config, f"GET {url}", params=params)[0].text


def _parse_json(body: str, context: str) -> dict:
    """The JSON object a body holds; SchemaError naming `context` otherwise."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        logger.error("unparseable body from %s: %.500s", context, body)
        raise SchemaError(f"{context}: response is not JSON") from exc
    if not isinstance(payload, dict):
        logger.error("body from %s is not an object: %.500s", context, body)
        raise SchemaError(f"{context}: response is not a JSON object")
    return payload


# ---------------------------------------------------------------------------
# fear & greed index (alternative.me style)

def _parse_fgi_entry(entry: dict, date: Date) -> FgiDaily:
    try:
        value = int(str(entry["value"]).strip())
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"fgi entry for {date}: bad value field {entry!r}") from exc
    label = entry.get("value_classification")
    if not isinstance(label, str) or not label.strip():
        raise SchemaError(f"fgi entry for {date}: missing value_classification")
    return FgiDaily(date=date, fgi_value=value, fgi_label=label.strip())


def fetch_fgi(
    config: EndpointConfig,
    start: Date,
    end: Date,
    session=None,
) -> list[FgiDaily]:
    """Daily fear/greed values for a date range.

    The endpoint returns a window of per-day entries in one response; each
    day's raw entry is cached individually so later runs need no network.
    """
    dates = _date_range(start, end)
    cached: dict[Date, dict] = {}
    missing = []
    for d in dates:
        body = _cache_read(config, "fgi", d)
        if body is None:
            missing.append(d)
        else:
            cached[d] = _parse_json(body, f"fgi cache {d}")

    if missing:
        span_days = (end - Date.today()).days if end > Date.today() else 0
        limit = (Date.today() - start).days + 1 + span_days
        body = _get(
            config,
            config.base_url.rstrip("/") + "/fng/",
            {"limit": max(limit, len(dates)), "format": "json"},
            session,
        )
        context = f"fgi {start}..{end}"
        entries = _parse_json(body, context).get("data")
        if not isinstance(entries, list):
            logger.error("fgi body missing data array: %.500s", body)
            raise SchemaError(f"{context}: response has no data array")
        by_date = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise SchemaError(f"{context}: data entry {entry!r} is not an object")
            ts = entry.get("timestamp")
            try:
                entry_date = datetime.fromtimestamp(int(ts), tz=timezone.utc).date()
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{context}: bad timestamp {ts!r}") from exc
            by_date[entry_date] = entry
        for d in missing:
            if d in by_date:
                raw_entry = json.dumps(by_date[d], sort_keys=True)
                _cache_write(config, "fgi", d, raw_entry)
                cached[d] = by_date[d]

    return [_parse_fgi_entry(cached[d], d) for d in dates if d in cached]


# ---------------------------------------------------------------------------
# news (gnews style)

def _news_articles(page_body: str, context: str) -> list:
    """The articles array of one page body; SchemaError naming `context` otherwise."""
    articles = _parse_json(page_body, context).get("articles")
    if not isinstance(articles, list):
        logger.error("gnews body missing articles: %.500s", page_body)
        raise SchemaError(f"{context}: response has no articles array")
    return articles


def fetch_news(
    config: EndpointConfig,
    query: str,
    start: Date,
    end: Date,
    source_whitelist: Sequence[str] = (),
    page_size: int = 25,
    session=None,
) -> list[NewsItem]:
    """Headlines per day, paginated, deduped on (date, source, headline).

    Each day's raw pages are cached together under the day's cache file.
    An optional whitelist keeps only the named outlets.
    """
    items: list[NewsItem] = []
    for d in _date_range(start, end):
        body = _cache_read(config, "gnews", d)
        if body is None:
            pages = []
            page = 1
            while True:
                page_body = _get(
                    config,
                    config.base_url.rstrip("/") + "/search",
                    {
                        "q": query,
                        "from": d.isoformat(),
                        "to": d.isoformat(),
                        "page": page,
                        "max": page_size,
                    },
                    session,
                )
                pages.append(page_body)
                if len(_news_articles(page_body, f"gnews {d} page {page}")) < page_size:
                    break
                page += 1
            body = json.dumps({"pages": pages})
            _cache_write(config, "gnews", d, body)
        pages = _parse_json(body, f"gnews cache {d}").get("pages", [])
        if not isinstance(pages, list) or not all(isinstance(p, str) for p in pages):
            raise SchemaError(f"gnews {d}: cached pages are not a list of response bodies")
        for page_body in pages:
            for article in _news_articles(page_body, f"gnews {d}"):
                if not isinstance(article, dict):
                    raise SchemaError(f"gnews {d}: article {article!r} is not an object")
                source = article.get("source", {})
                texts = {
                    "source name": source.get("name") if isinstance(source, dict) else source,
                    "title": article.get("title"),
                    "description": article.get("description"),
                }
                for name, text in texts.items():
                    if not isinstance(text, (str, type(None))):
                        raise SchemaError(f"gnews {d}: article {name} {text!r} is not a string")
                if not texts["title"]:
                    continue
                items.append(
                    NewsItem(
                        date=d,
                        source=texts["source name"] or "",
                        headline=texts["title"],
                        summary=texts["description"] or "",
                    )
                )
    if source_whitelist:
        allowed = {s.lower() for s in source_whitelist}
        items = [n for n in items if n.source.lower() in allowed]
    return dedupe_news(items)


# ---------------------------------------------------------------------------
# social scores (senticrypt style)

def fetch_social(
    config: EndpointConfig,
    start: Date,
    end: Date,
    session=None,
) -> list[SocialDaily]:
    """Pre-scored daily social sentiment means, one request per day."""
    out = []
    for d in _date_range(start, end):
        body = _cache_read(config, "senticrypt", d)
        if body is None:
            body = _get(
                config,
                config.base_url.rstrip("/") + f"/daily/{d.isoformat()}.json",
                {},
                session,
            )
            _cache_write(config, "senticrypt", d, body)
        payload = _parse_json(body, f"senticrypt {d}")
        mean = payload.get("mean")
        if isinstance(mean, bool) or not isinstance(mean, (int, float)):
            raise SchemaError(f"senticrypt {d}: mean is not a number")
        out.append(SocialDaily(date=d, social_score_mean=float(mean)))
    return out


def merge_sentiment(
    fgi: Sequence[FgiDaily], social: Sequence[SocialDaily]
) -> list[SentimentDaily]:
    """Join the two partial feeds on date; days present in both survive."""
    social_by_date = {s.date: s for s in social}
    merged = []
    for f in sorted(fgi, key=lambda x: x.date):
        s = social_by_date.get(f.date)
        if s is None:
            continue
        merged.append(
            SentimentDaily(
                date=f.date,
                social_score_mean=s.social_score_mean,
                fgi_value=f.fgi_value,
                fgi_label=f.fgi_label,
            )
        )
    return merged

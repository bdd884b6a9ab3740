"""Append-only run journal: JSON lines, one sealed record per line.

The first line is a header with the config snapshot and dataset digest;
day and weekly records follow in simulation order. Every record carries a
sha256 digest of its canonical form, so any edit is detectable and a
journal alone is enough to replay a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import JournalCorrupt
from .market_data import MarketDataset, MarketRecord

JOURNAL_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _sha256(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def record_digest(record: dict) -> str:
    return _sha256({k: v for k, v in record.items() if k != "digest"})


def seal(record: dict) -> dict:
    sealed = dict(record)
    sealed["digest"] = record_digest(record)
    return sealed


def verify_record(record: dict) -> None:
    if "digest" not in record:
        raise JournalCorrupt("record has no digest")
    if record_digest(record) != record["digest"]:
        raise JournalCorrupt(
            f"digest mismatch on {record.get('type', '?')} record "
            f"({record.get('date', record.get('week_start', '?'))})"
        )


def inputs_payload(rec: MarketRecord) -> dict:
    """Every input value of one dataset record, in the form the digests hash."""
    return {
        "bar": [rec.bar.open, rec.bar.high, rec.bar.low, rec.bar.close, rec.bar.volume],
        "onchain": None
        if rec.onchain is None
        else [rec.onchain.tx_count, rec.onchain.active_addresses, rec.onchain.transfer_volume_usd],
        "sentiment": None
        if rec.sentiment is None
        else [rec.sentiment.social_score_mean, rec.sentiment.fgi_value, rec.sentiment.fgi_label],
        "news": [[n.source, n.headline, n.summary] for n in rec.news],
    }


def inputs_digest(rec: MarketRecord) -> str:
    """Digest of one day's inputs, as a day record carries it."""
    return _sha256(inputs_payload(rec))


def dataset_digest(dataset: MarketDataset) -> str:
    """Stable digest of every input value the run can see."""
    return _sha256(
        [{"date": rec.date.isoformat(), **inputs_payload(rec)} for rec in dataset.records]
    )


@dataclass
class RunJournal:
    """Header plus day/weekly records in simulation order."""

    header: dict
    entries: list[dict] = field(default_factory=list)

    @property
    def days(self) -> list[dict]:
        return [e for e in self.entries if e.get("type") == "day"]

    def verify(self) -> None:
        verify_record(self.header)
        if self.header.get("version") != JOURNAL_VERSION:
            raise JournalCorrupt(f"journal version {self.header.get('version')!r} is not {JOURNAL_VERSION}")
        for entry in self.entries:
            verify_record(entry)


def write_journal(journal: RunJournal, path: str) -> None:
    """Write to a temp file beside `path`, then rename it onto `path`, so a
    failed write leaves no partial journal and any earlier file untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(journal.header) + "\n")
            for entry in journal.entries:
                fh.write(canonical_json(entry) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_journal(path: str, verify: bool = True) -> RunJournal:
    header = None
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise JournalCorrupt(f"{path}:{line_no}: not valid JSON") from exc
            if not isinstance(record, dict):
                raise JournalCorrupt(f"{path}:{line_no}: not a JSON object")
            if line_no == 1:
                if record.get("type") != "header":
                    raise JournalCorrupt(f"{path}: first record is not a header")
                header = record
            else:
                entries.append(record)
    if header is None:
        raise JournalCorrupt(f"{path}: empty journal")
    journal = RunJournal(header=header, entries=entries)
    if verify:
        journal.verify()
    return journal

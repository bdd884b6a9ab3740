"""Append-only run journal: JSON lines, one sealed record per line.

The first line is a header with the config snapshot and dataset digest;
day and weekly records follow in simulation order. Every record carries a
sha256 digest of its canonical form, so any edit is detectable and a
journal alone is enough to replay a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
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
        """Check every digest by re-encoding each record in memory, so an
        edit made after the journal was read is caught."""
        _verify([self.header, *self.entries], itertools.repeat(False))


def _verify(records: list[dict], sealed_lines) -> None:
    """Check the header's digest, then its version, then each entry's digest.
    `records` is the header and then the entries; a record whose flag in
    `sealed_lines` is true was read from the very text its digest seals, and
    its digest is not checked again."""
    for line, (record, sealed) in enumerate(zip(records, sealed_lines), start=1):
        if not sealed:
            try:
                verify_record(record)
            except UnicodeEncodeError:
                raise JournalCorrupt(f"journal line {line}: not valid UTF-8") from None
        if line == 1 and record.get("version") != JOURNAL_VERSION:
            raise JournalCorrupt(f"journal version {record.get('version')!r} is not {JOURNAL_VERSION}")


def _seals_own_line(line: bytes, record: dict) -> bool:
    """Whether `record`'s digest is the sha256 of `line` with its
    `"digest":"<hex>"` member and one comma beside it cut out. A canonical
    line, as `write_journal` writes it, passes without being re-encoded."""
    digest = record.get("digest")
    if not isinstance(digest, str):
        return False
    member = b'"digest":"' + digest.encode("utf-8") + b'"'
    start = line.find(member)
    if start < 0:
        return False
    end = start + len(member)
    if line[end : end + 1] == b",":
        end += 1
    elif line[start - 1 : start] == b",":
        start -= 1
    return hashlib.sha256(line[:start] + line[end:]).hexdigest() == digest


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


# a JSON escape of a UTF-16 surrogate, which may decode to a lone one
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
# a lone surrogate in decoded text: no UTF-8 encodes it, so no journal line can hold it
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def read_journal(path: str, verify: bool = True) -> RunJournal:
    """Read a journal, failing with JournalCorrupt on a line that is not UTF-8
    (or escapes a lone surrogate), not JSON or not an object. With `verify`,
    then run `RunJournal.verify`'s checks in its order; a record whose line is
    the text its digest seals skips the re-encode."""
    header = None
    entries = []
    sealed_lines = []  # per record read, whether its line is the text its digest seals
    # bytes that are not UTF-8 decode to lone surrogates, which `encode` rejects
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = line.encode("utf-8")
                record = json.loads(line)
                if _SURROGATE_ESCAPE.search(raw):
                    canonical_json(record).encode("utf-8")
            except UnicodeEncodeError:  # a ValueError too, so caught first
                raise JournalCorrupt(f"{path}:{line_no}: not valid UTF-8") from None
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
            sealed_lines.append(verify and _seals_own_line(raw, record))
    if header is None:
        raise JournalCorrupt(f"{path}: empty journal")
    if verify:
        _verify([header, *entries], sealed_lines)
    return RunJournal(header=header, entries=entries)

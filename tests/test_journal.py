"""Reading a journal back: digests checked against the lines they were read
from, the fallback to re-encoding, one copy of each repeated text, blank
lines before the header, error precedence, the UTF-8 rule, lines nested too
deeply, and a header's `n_days` bounded by the records present."""

import hashlib
import json
import tracemalloc

import pytest

from btagents import journal as journal_module
from btagents.cli import main
from btagents.errors import JournalCorrupt
from btagents.journal import RunJournal, canonical_json, read_journal, seal, write_journal
from btagents.orchestrator import outputs_from_journal, replay

from conftest import run_synth


@pytest.fixture(scope="module")
def written():
    """A 14-day scripted journal with daily and weekly feedback."""
    return run_synth(14)[0]


@pytest.fixture()
def path(tmp_path, written):
    path = tmp_path / "run.jsonl"
    write_journal(written, str(path))
    return path


def rewrite_line(path, index, make_line):
    """Replace line `index` (0-based) with `make_line(record)`."""
    lines = path.read_bytes().split(b"\n")
    lines[index] = make_line(json.loads(lines[index]))
    path.write_bytes(b"\n".join(lines))


def resealed(record):
    """A line that `seal` seals, in json.dumps's default (non-canonical) form."""
    record.pop("digest")
    return json.dumps(seal(record)).encode()


def sealed_over_own_text(record):
    """A non-canonical line whose digest is the sha256 of its text with the
    digest member cut out: a reseal, which no digest can tell from a write."""
    record.pop("digest")
    text = json.dumps(record).encode("utf-8")
    digest = hashlib.sha256(text).hexdigest()
    return text[:-1] + b',"digest":"' + digest.encode() + b'"}'


def count_re_encodes(monkeypatch):
    calls = []
    digest = journal_module.record_digest

    def counted(record):
        calls.append(record)
        return digest(record)

    monkeypatch.setattr(journal_module, "record_digest", counted)
    return calls


class TestDigestOfTheLine:
    def test_canonical_lines_are_not_re_encoded(self, path, written, monkeypatch):
        def refuse(record):
            raise AssertionError("a canonical line was re-encoded")

        monkeypatch.setattr(journal_module, "record_digest", refuse)
        back = read_journal(str(path))
        assert back.header == written.header and back.entries == written.entries

    def test_validly_sealed_non_canonical_line_reads(self, path, written, monkeypatch):
        rewrite_line(path, 2, lambda record: json.dumps(record, indent=None).encode())
        calls = count_re_encodes(monkeypatch)
        back = read_journal(str(path))
        assert back.entries == written.entries
        assert calls == [written.entries[1]]  # only that line fell back to re-encoding

    def test_non_canonical_line_sealed_over_its_own_text_reads(self, path):
        rewrite_line(path, 2, sealed_over_own_text)
        back = read_journal(str(path))
        # the in-memory verify re-encodes, so report and replay still reject it
        with pytest.raises(JournalCorrupt, match="digest mismatch"):
            back.verify()

    @pytest.mark.parametrize("read", [outputs_from_journal, replay], ids=["outputs", "replay"])
    def test_edit_in_memory_after_read_fails(self, path, read):
        back = read_journal(str(path))
        back.days[3]["close"] += 1.0
        with pytest.raises(JournalCorrupt, match="digest mismatch"):
            read(back)

    def test_tampered_line_fails(self, path):
        rewrite_line(path, 2, lambda r: canonical_json({**r, "close": 1.0}).encode())
        with pytest.raises(JournalCorrupt, match="digest mismatch on day record"):
            read_journal(str(path))


@pytest.mark.parametrize("verify", [True, False])
class TestSharedTexts:
    """A journal read back holds one `str` for each text its records repeat, and
    never one dict or list in two places."""

    def test_system_prompts_are_one_object_across_days(self, path, verify):
        days = read_journal(str(path), verify=verify).days
        for role in ("quants", "signals", "decision"):
            assert len({id(day["roles"][role]["system"]) for day in days}) == 1
        assert len({id(day["reflect"]["system"]) for day in days}) == 1

    def test_raw_is_the_last_attempts_reply(self, path, verify):
        entries = [entry for day in read_journal(str(path), verify=verify).days for entry in day["roles"].values()]
        assert all(entry["raw"] is entry["attempts"][-1]["raw"] for entry in entries)
        assert all(isinstance(entry["raw"], str) for entry in entries)

    def test_feedback_in_is_the_text_it_repeats(self, path, verify):
        last_day = last_weekly = None
        carried = 0
        for record in read_journal(str(path), verify=verify).entries:
            if record["type"] == "weekly":
                last_weekly = record
                continue
            for texts, source in (
                (record["daily_feedback_in"], last_day and last_day["reflect"]["feedback"]),
                (record["weekly_feedback_in"], last_weekly and last_weekly["texts"]),
            ):
                assert bool(texts) == bool(source)
                for role, text in texts.items():
                    assert text is source[role]
                    carried += 1
            last_day = record
        assert carried == 13 * 3 + 7 * 3  # daily feedback from day 1, weekly from day 7

    def test_no_dict_or_list_appears_twice(self, path, verify):
        back = read_journal(str(path), verify=verify)
        seen = set()
        stack = [back.header, *back.entries]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                assert id(node) not in seen
                seen.add(id(node))
                stack.extend(node.values() if isinstance(node, dict) else node)


def test_n_days_beyond_the_records_is_rejected_without_per_day_work(written):
    header = {k: v for k, v in written.header.items() if k != "digest"}
    journal = RunJournal(header=seal({**header, "n_days": 10**6}), entries=written.entries)
    tracemalloc.start()
    try:
        with pytest.raises(JournalCorrupt, match="^records are not those of a 1000000-day run: "):
            outputs_from_journal(journal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_blank_lines_before_the_header_are_skipped(path, written, capsys):
    assert main(["report", "--journal", str(path)]) == 0
    report = capsys.readouterr().out
    path.write_bytes(b"\n \n" + path.read_bytes())
    back = read_journal(str(path))
    assert back.header == written.header and back.entries == written.entries
    assert main(["report", "--journal", str(path)]) == 0
    assert capsys.readouterr().out == report
    rewrite_line(path, 2, lambda r: b"")  # the header's line, now blank
    with pytest.raises(JournalCorrupt, match="first record is not a header$"):
        read_journal(str(path))


class TestErrorPrecedence:
    def test_invalid_json_before_any_digest(self, path):
        rewrite_line(path, 1, lambda r: json.dumps({**r, "close": 1.0}).encode())
        rewrite_line(path, 4, lambda r: b"{" + json.dumps(r).encode())
        with pytest.raises(JournalCorrupt, match=r":5: not valid JSON$"):
            read_journal(str(path))

    def test_header_digest_before_version(self, path):
        rewrite_line(path, 0, lambda r: json.dumps({**r, "version": 99}).encode())
        with pytest.raises(JournalCorrupt, match="digest mismatch on header record"):
            read_journal(str(path))

    def test_version_before_entry_digests(self, path):
        rewrite_line(path, 0, lambda r: resealed({**r, "version": 99}))
        rewrite_line(path, 1, lambda r: json.dumps({**r, "close": 1.0}).encode())
        with pytest.raises(JournalCorrupt, match="journal version 99 is not 1"):
            read_journal(str(path))

    def test_first_bad_entry_is_named(self, path, written):
        for index in (3, 2):
            rewrite_line(path, index, lambda r: json.dumps({**r, "close": 1.0}).encode())
        with pytest.raises(JournalCorrupt, match=f"\\({written.entries[1]['date']}\\)"):
            read_journal(str(path))


def with_invalid_byte(record):
    """The canonical line with one byte that no UTF-8 text holds."""
    return canonical_json(record).encode().replace(b'"raw":"', b'"raw":"\xff', 1)


def with_lone_surrogate(record):
    """A line sealed over its own text whose reply escapes a lone surrogate."""
    record["roles"]["quants"]["raw"] += "\ud800"
    return sealed_over_own_text(record)


def nested_too_deeply(record):
    """An array deeper than any interpreter's stack, so decoding it always fails."""
    return b"[" * 200_000 + b"]" * 200_000


# lines no read can decode, and how the read names them
UNREADABLE = [
    (with_invalid_byte, "not valid UTF-8"),
    (with_lone_surrogate, "not valid UTF-8"),
    (nested_too_deeply, "not valid JSON"),
]


@pytest.mark.parametrize("make_line, reason", UNREADABLE, ids=["0xff", "ud800", "deep"])
class TestNotUtf8:
    """Lines that are not UTF-8, or that no decoder can take, named by their number."""

    @pytest.mark.parametrize("verify", [True, False])
    def test_read_names_the_line(self, path, make_line, reason, verify):
        rewrite_line(path, 3, make_line)
        with pytest.raises(JournalCorrupt, match=f"run\\.jsonl:4: {reason}$"):
            read_journal(str(path), verify=verify)

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_cli_exits_1(self, path, make_line, reason, command, capsys):
        rewrite_line(path, 3, make_line)
        assert main([command, "--journal", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f":4: {reason}" in captured.err


@pytest.mark.parametrize("line", [1, 3])
def test_verify_in_memory_names_the_line(written, line):
    records = json.loads(json.dumps([written.header, *written.entries]))
    records[line - 1]["note"] = "\udcff"
    journal = RunJournal(header=records[0], entries=records[1:])
    with pytest.raises(JournalCorrupt, match=f"^journal line {line}: not valid UTF-8$"):
        journal.verify()


def test_verify_in_memory_names_a_line_nested_too_deeply(written):
    deep = 1
    for _ in range(200_000):
        deep = [deep]
    entries = json.loads(json.dumps(written.entries))
    entries[1]["note"] = deep
    with pytest.raises(JournalCorrupt, match="^journal line 3: nested too deeply to verify$"):
        RunJournal(header=written.header, entries=entries).verify()

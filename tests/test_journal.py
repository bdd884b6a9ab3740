"""Reading a journal back: digests checked against the lines they were read
from, the fallback to re-encoding, error precedence and the UTF-8 rule."""

import hashlib
import json

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


NOT_UTF8 = [with_invalid_byte, with_lone_surrogate]


@pytest.mark.parametrize("make_line", NOT_UTF8, ids=["0xff", "ud800"])
class TestNotUtf8:
    @pytest.mark.parametrize("verify", [True, False])
    def test_read_names_the_line(self, path, make_line, verify):
        rewrite_line(path, 3, make_line)
        with pytest.raises(JournalCorrupt, match=r"run\.jsonl:4: not valid UTF-8$"):
            read_journal(str(path), verify=verify)

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_cli_exits_1(self, path, make_line, command, capsys):
        rewrite_line(path, 3, make_line)
        assert main([command, "--journal", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and ":4: not valid UTF-8" in captured.err


@pytest.mark.parametrize("line", [1, 3])
def test_verify_in_memory_names_the_line(written, line):
    records = json.loads(json.dumps([written.header, *written.entries]))
    records[line - 1]["note"] = "\udcff"
    journal = RunJournal(header=records[0], entries=records[1:])
    with pytest.raises(JournalCorrupt, match=f"^journal line {line}: not valid UTF-8$"):
        journal.verify()

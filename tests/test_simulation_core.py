"""Guards for the shared simulation core: pinned journal bytes and replay checks.

The sha256 pins hold the exact journal bytes of two runs. The run and replay
paths may change only in ways that leave them unchanged.
"""

import hashlib
import json
import re

import pytest

from btagents.agents import (
    DECISION_SYSTEM,
    QUANTS_SYSTEM,
    SIGNALS_SYSTEM,
    ChatClient,
    ChatClientConfig,
    ScriptedResponder,
)
from btagents.errors import JournalCorrupt
from btagents.journal import read_journal, seal, write_journal
from btagents.orchestrator import RunConfig, outputs_from_journal, replay, run_backtest
from btagents.reflection import REFLECT_SYSTEM

from conftest import run_synth, scripted_plan, synth_dataset
from test_agents import FakeResponse

CASE_STUDY_SHA256 = "993ebe83fe28d1d365c1edd5f0d96c32296c0f8b11e8c1175f87932cf819fbdf"
FEES_FALLBACK_SHA256 = "c00b38fb001fe224e462730dbc568d58023d6840002f462e8bdcde0fedab226e"


def journal_sha256(journal, tmp_path) -> str:
    path = tmp_path / "run.jsonl"
    write_journal(journal, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fees_fallback_run():
    """21 scripted days at 25 bps with the decision reply of day 9 unusable."""
    dataset = synth_dataset(32 + 21 + 2)
    days = dataset.dates[32 : 32 + 21]
    plan = scripted_plan(days)
    plan[f"decision:{days[9].isoformat()}"] = "no structure in this reply"
    config = RunConfig(start=days[0], end=days[-1], fee_bps=25.0)
    return run_backtest(config, dataset, ScriptedResponder(plan))


class TestPinnedJournalBytes:
    def test_case_study_journal(
        self, tmp_path, case_study_dataset, case_study_responder, case_study_config
    ):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        assert journal_sha256(journal, tmp_path) == CASE_STUDY_SHA256

    def test_fees_and_fallback_journal(self, tmp_path):
        journal = fees_fallback_run()
        assert journal.days[9]["roles"]["decision"]["fallback"] is True
        assert len(journal.weeklies) == 3
        assert journal_sha256(journal, tmp_path) == FEES_FALLBACK_SHA256
        replay(journal)


def reseal_day(journal, index, edit):
    record = json.loads(json.dumps(journal.days[index]))
    edit(record)
    record.pop("digest")
    journal.entries[journal.entries.index(journal.days[index])] = seal(record)


class TestResealedTamper:
    @pytest.fixture()
    def journal(self):
        return fees_fallback_run()

    def test_cash(self, journal):
        def edit(rec):
            rec["roles"]["quants"]["portfolio"]["cash_usd"] += 0.01

        reseal_day(journal, 3, edit)
        with pytest.raises(JournalCorrupt):
            replay(journal)

    def test_portfolio_return(self, journal):
        def edit(rec):
            rec["roles"]["decision"]["portfolio_return"] += 1e-9

        reseal_day(journal, 3, edit)
        with pytest.raises(JournalCorrupt):
            replay(journal)

    def test_buyhold_value(self, journal):
        def edit(rec):
            rec["baseline"]["buyhold_value"] *= 1.0001

        reseal_day(journal, 3, edit)
        with pytest.raises(JournalCorrupt):
            replay(journal)

    def test_day_return_5050(self, journal):
        def edit(rec):
            rec["baseline"]["day_return_5050"] += 1e-9

        reseal_day(journal, 3, edit)
        with pytest.raises(JournalCorrupt):
            replay(journal)


@pytest.fixture(scope="module")
def written_lines(tmp_path_factory):
    """The lines of a 10-day journal as written, with weekly feedback on and off."""
    out = {}
    for weekly in (True, False):
        journal, _, _, _ = run_synth(10, weekly=weekly)
        path = tmp_path_factory.mktemp("journal") / "run.jsonl"
        write_journal(journal, str(path))
        out[weekly] = path.read_text(encoding="utf-8").splitlines()
    return out


# each edit keeps every line's digest valid; line 0 is the header and, with
# weekly feedback on, line 8 is the weekly record after the seventh day
STRUCTURE_EDITS = {
    "dropped last day": lambda on, off: on[:-1],
    "dropped weekly record": lambda on, off: on[:8] + on[9:],
    "duplicated day": lambda on, off: on[:3] + on[2:],
    "swapped days": lambda on, off: on[:1] + [on[2], on[1]] + on[3:],
    "weekly record with weekly feedback off": lambda on, off: off[:8] + [on[8]] + off[8:],
}


class TestJournalStructure:
    @pytest.mark.parametrize("read", [outputs_from_journal, replay], ids=["outputs", "replay"])
    @pytest.mark.parametrize("edit", STRUCTURE_EDITS)
    def test_edit_is_corrupt(self, written_lines, tmp_path, edit, read):
        lines = STRUCTURE_EDITS[edit](written_lines[True], written_lines[False])
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = read_journal(str(path))  # every digest still holds
        with pytest.raises(JournalCorrupt):
            read(journal)

    @pytest.mark.parametrize("weekly", [True, False])
    def test_unedited_journal_replays(self, written_lines, tmp_path, weekly):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(written_lines[weekly]) + "\n", encoding="utf-8")
        assert len(replay(read_journal(str(path))).value_dates) == 11

    def test_day_not_starting_where_the_last_ended(self):
        journal, _, _, _ = run_synth(10)
        reseal_day(journal, 5, lambda rec: rec.update(date=rec["next_date"]))
        with pytest.raises(JournalCorrupt, match="out of sequence"):
            outputs_from_journal(journal)


ROLE_BY_SYSTEM = {
    QUANTS_SYSTEM: "quants",
    SIGNALS_SYSTEM: "signals",
    DECISION_SYSTEM: "decision",
    REFLECT_SYSTEM: "reflect",
}


class PlanSession:
    """A requests-like session answering chat posts from a scripted plan.

    Keys listed in `broken` get a 200 reply whose body has no choices.
    """

    def __init__(self, plan, broken):
        self.plan = plan
        self.broken = set(broken)

    def post(self, url, json=None, headers=None, timeout=None):
        system, user = (m["content"] for m in json["messages"])
        day = re.search(r"Date: (\d{4}-\d{2}-\d{2})", user).group(1)
        key = f"{ROLE_BY_SYSTEM[system]}:{day}"
        if key in self.broken:
            return FakeResponse(200, {"choices": []})
        return FakeResponse(200, {"choices": [{"message": {"content": self.plan[key]}}]})


class TestMalformedCompletionBody:
    def test_run_takes_fallbacks_and_replays(self):
        dataset = synth_dataset(32 + 5 + 2)
        days = [d.isoformat() for d in dataset.dates[32 : 32 + 5]]
        plan = scripted_plan(dataset.dates[32 : 32 + 5])
        session = PlanSession(plan, broken=[f"quants:{days[2]}", f"reflect:{days[3]}"])
        client = ChatClient(
            ChatClientConfig(base_url="http://fake/v1", backoff_seconds=0.0), session=session
        )
        config = RunConfig(start=dataset.dates[32], end=dataset.dates[36], weekly_feedback=False)
        journal = run_backtest(config, dataset, client)

        quants = journal.days[2]["roles"]["quants"]
        assert quants["fallback"] is True
        assert quants["allocation"] == journal.days[1]["roles"]["quants"]["allocation"]
        assert [a["raw"] for a in quants["attempts"]] == [None]
        assert quants["attempts"][0]["error"].startswith("SchemaError: ")
        reflect = journal.days[3]["reflect"]
        assert reflect["flags"] == ["reflect_fallback_empty"]
        assert reflect["attempts"][0]["error"].startswith("SchemaError: ")
        assert journal.days[4]["daily_feedback_in"] == {}
        assert replay(journal).values == outputs_from_journal(journal).values

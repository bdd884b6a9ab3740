"""Guards for the shared simulation core: pinned journal bytes and replay checks.

The sha256 pins hold the exact journal bytes of two runs. The run and replay
paths may change only in ways that leave them unchanged.
"""

import fnmatch
import hashlib
import json
import re
from datetime import date

import pytest

from btagents.agents import (
    DECISION_SYSTEM,
    QUANTS_SYSTEM,
    SIGNALS_SYSTEM,
    InvokeResult,
    ScriptedResponder,
)
from btagents.errors import JournalCorrupt
from btagents.indicators import IndicatorParams
from btagents.journal import RunJournal, read_journal, seal, write_journal
from btagents.orchestrator import RunConfig, outputs_from_journal, replay, run_backtest
from btagents.reflection import (
    AGENT_ROLES,
    REFLECT_SYSTEM,
    build_reflect_prompt,
    load_weekly_templates,
    weekly_feedback,
)
from btagents.regime import RegimeParams
from btagents.transport import ChatClient, ChatClientConfig

from conftest import run_synth, scripted_plan, synth_dataset, weeklies
from test_agents import FakeResponse

CASE_STUDY_SHA256 = "993ebe83fe28d1d365c1edd5f0d96c32296c0f8b11e8c1175f87932cf819fbdf"
FEES_FALLBACK_SHA256 = "a15cf567e83ed912ebdc863bda19494968827ba58ea060273c315b6eed7f3358"


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

    def test_float_settings_given_as_ints_seal_as_floats(self, tmp_path, case_study_dataset, case_study_responder):
        """An int where a float setting belongs, in the config or any of its
        parts, seals as the float the run computes with."""
        config = RunConfig(
            start=date(2024, 11, 4),
            end=date(2024, 11, 5),
            initial_value_usd=10000,
            fee_bps=0,
            praise_threshold=0,
            indicator_params=IndicatorParams(bb_k=2),
            client=ChatClientConfig(timeout=120, temperature=0),
        )
        journal = run_backtest(config, case_study_dataset, case_study_responder)
        assert journal_sha256(journal, tmp_path) == CASE_STUDY_SHA256
        replay(read_journal(str(tmp_path / "run.jsonl")))
        regime = RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), regime_params=RegimeParams(slope_threshold=0))
        assert repr(regime.to_dict()["regime_params"]["slope_threshold"]) == "0.0"

    def test_fees_and_fallback_journal(self, tmp_path):
        journal = fees_fallback_run()
        assert journal.days[9]["roles"]["decision"]["fallback"] is True
        assert len(weeklies(journal)) == 3
        assert journal_sha256(journal, tmp_path) == FEES_FALLBACK_SHA256
        replay(journal)


def reseal_day(journal, index, edit):
    record = json.loads(json.dumps(journal.days[index]))
    edit(record)
    record.pop("digest")
    journal.entries[journal.entries.index(journal.days[index])] = seal(record)


def leaves(value, path=()):
    """The key path of every scalar under a record; list items are keyed by index."""
    if isinstance(value, dict):
        for key, sub in value.items():
            if path or key != "digest":
                yield from leaves(sub, (*path, key))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from leaves(sub, (*path, i))
    else:
        yield path


def leaf_value(record, path):
    for key in path:
        record = record[key]
    return record


def edited(value):
    """A different value for a leaf: bools flip, numbers move, the rest becomes text."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1e-9
    return "edited"


def retyped(value):
    """The same value under `==` as another JSON type, or None: a bool becomes
    a number and a number equal to 0 or 1 becomes a bool."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    return None


# the leaves replay checks by digest only, as patterns over the swept leaf
# names; an edit of any other leaf of a day or weekly record, resealed so its
# digest holds, must fail replay. A role's last attempt must be its recorded
# reply with no error, so only a fallback's attempts, here day 9's decision,
# are digest only: its last attempt need only carry an error
DIGEST_ONLY = (
    "*.inputs_digest",
    "*.lint.*",
    "*.roles.*.system",
    "*.roles.*.user",
    "day9.roles.decision.attempts.*",
    "*.reflect.system",
    "*.reflect.user",
    "*.reflect.violations.*",
    "*.reflect.flags.*",
)

FEES_FALLBACK = fees_fallback_run()
# day 3, the decision fallback of day 9 and the first weekly record
SWEPT = {
    "day3": FEES_FALLBACK.days[3],
    "day9": FEES_FALLBACK.days[9],
    "weekly0": weeklies(FEES_FALLBACK)[0],
}
LEAVES = {
    f"{name}.{'.'.join(map(str, path))}": (name, path)
    for name, record in SWEPT.items()
    for path in leaves(record)
}


# the leaves whose value another JSON type can equal: bools, and numbers equal to 0 or 1
RETYPED_LEAVES = [
    leaf
    for leaf, (name, path) in LEAVES.items()
    if retyped(leaf_value(SWEPT[name], path)) is not None
]

# the number leaves, and the nullable number `confidence` where it is null
NUMBER_LEAVES = [
    leaf
    for leaf, (name, path) in LEAVES.items()
    if type(leaf_value(SWEPT[name], path)) in (int, float) or path[-1] == "confidence"
]
# numbers json.loads reads and canonical_json seals, but that no run writes
OUT_OF_RANGE = (float("nan"), float("inf"), float("-inf"), 10**400)


def resealed_leaf_edit(name, path, edit=edited):
    """A copy of the fees/fallback journal with one leaf edited and its record resealed."""
    entries = json.loads(json.dumps(FEES_FALLBACK.entries))
    journal = RunJournal(header=FEES_FALLBACK.header, entries=entries)
    index = FEES_FALLBACK.entries.index(SWEPT[name])
    record = journal.entries[index]
    owner = record
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = edit(owner[path[-1]])
    record.pop("digest")
    journal.entries[index] = seal(record)
    return journal


class TestResealedLeaves:
    def test_sweep_covers_the_derived_fields(self):
        for leaf in (
            "day3.btc_return",
            "day3.roles.quants.correct",
            "day3.roles.decision.running_accuracy",
            "day3.daily_feedback_in.signals",
            "day3.roles.quants.portfolio.cash_usd",
            "day3.baseline.day_return_5050",
            "day9.roles.decision.raw",
            "day9.roles.decision.fallback",
            "day9.weekly_feedback_in.quants",
            "weekly0.kinds.quants",
            "weekly0.stats.signals.regret",
            "weekly0.texts.decision",
        ):
            assert leaf in LEAVES

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_edit_fails_replay_unless_digest_only(self, leaf):
        self.check(leaf, edited)

    def test_retype_sweep_covers_bools_and_numbers(self):
        for leaf in (
            "day3.roles.quants.correct",
            "day9.roles.decision.fallback",
            "weekly0.stats.signals.regret",
        ):
            assert leaf in RETYPED_LEAVES

    @pytest.mark.parametrize("leaf", RETYPED_LEAVES)
    def test_retype_fails_replay_unless_digest_only(self, leaf):
        self.check(leaf, retyped)

    def test_number_sweep_covers_every_kind_of_number(self):
        for leaf in (
            "day3.seq",
            "day3.next_close",
            "day3.baseline.static5050_value",
            "day3.roles.quants.confidence",
            "day9.roles.decision.portfolio.value_usd",
            "weekly0.stats.signals.sharpe",
        ):
            assert leaf in NUMBER_LEAVES

    @pytest.mark.parametrize("leaf", NUMBER_LEAVES)
    def test_number_out_of_float_range_names_its_line_and_field(self, leaf):
        name, path = LEAVES[leaf]
        line = FEES_FALLBACK.entries.index(SWEPT[name]) + 2
        message = f"journal line {line}: field {'.'.join(map(str, path))} is missing, of the wrong type or out of range"
        for number in OUT_OF_RANGE:
            journal = resealed_leaf_edit(name, path, lambda _: number)
            journal.verify()
            with pytest.raises(JournalCorrupt) as exc:
                outputs_from_journal(journal)
            assert str(exc.value) == message

    def test_raw_edit_that_parses_alike_fails_replay(self):
        def add_prose(raw):
            return raw + " and some added prose"

        journal = resealed_leaf_edit("day3", ("roles", "quants", "raw"), add_prose)
        with pytest.raises(JournalCorrupt, match="not the last attempt's"):
            replay(journal)

    def test_fallback_without_an_error_fails_replay(self):
        journal = resealed_leaf_edit("day9", ("roles", "decision", "attempts", 1, "error"), lambda e: None)
        with pytest.raises(JournalCorrupt, match="has no error"):
            replay(journal)

    @pytest.mark.parametrize(
        "attempts",
        ["text", [], [3], [["raw", None]], [{"raw": 3, "error": "ParseError: x"}], lambda a: [3, *a]],
        ids=["text", "empty", "number", "list", "raw-number", "number-before-last"],
    )
    @pytest.mark.parametrize("name", ["day3", "day9"])
    def test_malformed_attempts_fail_replay(self, name, attempts):
        edit = attempts if callable(attempts) else lambda _: attempts
        journal = resealed_leaf_edit(name, ("roles", "decision", "attempts"), edit)
        with pytest.raises(JournalCorrupt):
            replay(journal)

    @pytest.mark.parametrize(
        "attempts",
        ["text", [3], [["raw", None]], [{"raw": 3, "error": None}], [{"raw": "{}", "error": 3}]],
        ids=["text", "number", "list", "raw-number", "error-number"],
    )
    @pytest.mark.parametrize("name", ["day3", "day9"])
    def test_malformed_reflect_attempts_fail_replay(self, name, attempts):
        journal = resealed_leaf_edit(name, ("reflect", "attempts"), lambda _: attempts)
        with pytest.raises(JournalCorrupt, match="reflect"):
            replay(journal)

    def test_reflect_feedback_is_the_last_error_free_reply(self):
        # an error after the reply: the reply still holds the feedback
        journal = resealed_leaf_edit(
            "day3", ("reflect", "attempts"), lambda a: [*a, {"raw": None, "error": "NetworkError: reset"}]
        )
        replay(journal)
        # the reply turned into an error: no reply holds the feedback
        journal = resealed_leaf_edit("day3", ("reflect", "attempts", 0, "error"), lambda _: "ParseError: x")
        with pytest.raises(JournalCorrupt, match="recorded feedback is not the last reply's"):
            replay(journal)

    @staticmethod
    def check(leaf, edit):
        name, path = LEAVES[leaf]
        journal = resealed_leaf_edit(name, path, edit)
        journal.verify()  # the edit keeps every digest valid
        if any(fnmatch.fnmatchcase(leaf, pattern) for pattern in DIGEST_ONLY):
            replay(journal)
        else:
            with pytest.raises(JournalCorrupt):
                replay(journal)


FEEDBACK_TOGGLES = [(True, True), (True, False), (False, True), (False, False)]


@pytest.fixture(scope="module")
def synth_runs():
    """A 10-day journal as run, for each (daily, weekly) feedback toggle."""
    return {toggles: run_synth(10, *toggles)[0] for toggles in FEEDBACK_TOGGLES}


@pytest.fixture(scope="module")
def written_lines(synth_runs, tmp_path_factory):
    """The lines of each journal of `synth_runs` as written."""
    out = {}
    for toggles, journal in synth_runs.items():
        path = tmp_path_factory.mktemp("journal") / "run.jsonl"
        write_journal(journal, str(path))
        out[toggles] = path.read_text(encoding="utf-8").splitlines()
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
        lines = STRUCTURE_EDITS[edit](written_lines[True, True], written_lines[True, False])
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = read_journal(str(path))  # every digest still holds
        with pytest.raises(JournalCorrupt):
            read(journal)

    # the ids of the daily-on toggles name the weekly toggle alone
    @pytest.mark.parametrize(
        "daily, weekly",
        FEEDBACK_TOGGLES,
        ids=["True", "False", "no daily-True", "no daily-False"],
    )
    def test_unedited_journal_replays(self, synth_runs, written_lines, tmp_path, daily, weekly):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(written_lines[daily, weekly]) + "\n", encoding="utf-8")
        replayed = replay(read_journal(str(path)))
        assert len(replayed.value_dates) == 11
        run = synth_runs[daily, weekly]
        for role in AGENT_ROLES:
            values = [day["roles"][role]["portfolio"]["value_usd"] for day in run.days]
            assert replayed.values[role][1:] == values

    @pytest.mark.parametrize("seq", [True, 1.0])
    def test_day_number_not_an_int(self, seq):
        journal, _, _, _ = run_synth(10)
        reseal_day(journal, 1, lambda rec: rec.update(seq=seq))  # == 1 holds
        with pytest.raises(JournalCorrupt, match="field seq"):
            outputs_from_journal(journal)

    def test_day_not_starting_where_the_last_ended(self):
        journal, _, _, _ = run_synth(10)
        reseal_day(journal, 5, lambda rec: rec.update(date=rec["next_date"]))
        with pytest.raises(JournalCorrupt, match="out of sequence"):
            outputs_from_journal(journal)

    @pytest.mark.parametrize("first", [True, False], ids=["first date", "last next_date"])
    @pytest.mark.parametrize(
        "spell", [lambda d: d.replace("-", ""), lambda d: date.fromisoformat(d).strftime("%G-W%V-%u")],
        ids=["basic", "week"],
    )
    def test_date_not_spelled_yyyy_mm_dd(self, first, spell):
        """Python 3.11 and later read both spellings as dates, 3.10 does not;
        a journal date is `YYYY-MM-DD` on every supported Python."""
        journal, _, _, _ = run_synth(10)
        index, field = (0, "date") if first else (len(journal.days) - 1, "next_date")
        bad = spell(journal.days[index][field])
        reseal_day(journal, index, lambda rec: rec.update({field: bad}))
        with pytest.raises(JournalCorrupt, match=f"^bad day record date: Invalid isoformat string: '{bad}'$"):
            outputs_from_journal(journal)

    @pytest.mark.parametrize("read", [outputs_from_journal, replay], ids=["outputs", "replay"])
    def test_unsealed_edit_in_memory_is_corrupt(self, read):
        journal, _, _, _ = run_synth(10)
        journal.days[0]["roles"]["quants"]["user"] += " and one more line"
        with pytest.raises(JournalCorrupt, match="digest mismatch"):
            read(journal)


class QueueResponder:
    """Scripted replies keyed "role:date"; a list answers one item per call,
    and its last item after that."""

    def __init__(self, plan):
        self.plan = {key: reply if isinstance(reply, list) else [reply] for key, reply in plan.items()}

    def complete(self, bundle):
        replies = self.plan[f"{bundle.role.value}:{bundle.date.isoformat()}"]
        return InvokeResult(text=replies.pop(0) if len(replies) > 1 else replies[0], attempts=1)


def recovery_paths_run():
    """10 scripted days at 10 bps: a quants re-ask on day 2, a decision fallback
    on day 4 and a reflect scope drop of signals on day 5."""
    dataset = synth_dataset(32 + 10 + 2)
    days = dataset.dates[32 : 32 + 10]
    plan = scripted_plan(days)
    reask, fallback, scope = (
        f"{role}:{days[i].isoformat()}" for role, i in (("quants", 2), ("decision", 4), ("reflect", 5))
    )
    plan[reask] = ["prose without any object", plan[reask]]
    plan[fallback] = "no structure in this reply"
    off_scope = json.loads(plan[scope])
    off_scope["signals"] = "the RSI reading contradicted the crowd mood"
    plan[scope] = json.dumps(off_scope)
    config = RunConfig(start=days[0], end=days[-1], fee_bps=10.0)
    return run_backtest(config, dataset, QueueResponder(plan))


class TestEveryRecoveryPathReplays:
    def test_reask_fallback_and_scope_drop(self):
        journal = recovery_paths_run()
        quants = journal.days[2]["roles"]["quants"]
        assert [a["error"] is None for a in quants["attempts"]] == [False, True]
        assert quants["fallback"] is False
        assert journal.days[4]["roles"]["decision"]["fallback"] is True
        flags = journal.days[5]["reflect"]["flags"]
        assert flags == ["reflect_scope_retry", "reflect_scope_dropped_signals"]
        assert "signals" not in journal.days[6]["daily_feedback_in"]
        assert len(replay(journal).value_dates) == 11

    def test_confidence_beyond_floats_replays(self, tmp_path):
        dataset = synth_dataset(32 + 3 + 2)
        days = dataset.dates[32 : 32 + 3]
        plan = scripted_plan(days)
        for role, confidence in (("quants", "NaN"), ("signals", "Infinity"), ("decision", "1" + "0" * 400)):
            key = f"{role}:{days[1].isoformat()}"
            plan[key] = plan[key][:-1] + f', "confidence": {confidence}}}'
        config = RunConfig(start=days[0], end=days[-1])
        journal = run_backtest(config, dataset, QueueResponder(plan))
        assert [role["confidence"] for role in journal.days[1]["roles"].values()] == [None] * 3
        path = tmp_path / "run.jsonl"
        write_journal(journal, str(path))
        assert len(replay(read_journal(str(path))).value_dates) == 4


@pytest.fixture(scope="module", params=["fees_fallback", "recovery_paths"])
def recorded_run(request):
    return FEES_FALLBACK if request.param == "fees_fallback" else recovery_paths_run()


class TestRecordIsTheCriticsInput:
    def test_reflect_prompt_rebuilds_from_the_day_record(self, recorded_run):
        for day in recorded_run.days:
            bundle = build_reflect_prompt(day)
            assert (bundle.system_text, bundle.user_text) == (day["reflect"]["system"], day["reflect"]["user"])

    def test_weekly_review_rebuilds_from_the_day_records(self, recorded_run):
        templates = load_weekly_templates()
        config = RunConfig.from_dict(recorded_run.header["config"])
        entries = recorded_run.entries
        for i, record in enumerate(entries):
            if record["type"] == "weekly":
                week = [e for e in entries[:i] if e["type"] == "day"][-7:]
                derived = weekly_feedback(week, config.praise_threshold, config.regret_threshold)
                texts = {role: templates[role][kind] for role, kind in derived["kinds"].items()}
                skip = ("type", "after_day", "digest")
                assert {**derived, "texts": texts} == {k: v for k, v in record.items() if k not in skip}
        assert len(weeklies(recorded_run)) >= 1


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
        assert len(replay(journal).value_dates) == 6

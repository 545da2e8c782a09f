"""The SAT rules in detail: what each bad fixture demonstrates, the inline
edge cases that keep each rule from false-positiving, and noqa.  (Which
line of which fixture trips which code is pinned by test_fixtures.py.)"""

from pathlib import Path

from repro.analysis import analyze, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def codes_in(findings):
    return {finding.code for finding in findings}


def lint_paths(paths):
    return analyze(paths, select={"SAT"})


def test_bad_sat001_finds_every_wall_clock_read():
    report = lint_paths([FIXTURES / "bad_sat001.py"])
    sat001 = [f for f in report.findings if f.code == "SAT001"]
    assert len(sat001) >= 5  # time.time, time_ns, now, today, utcnow


def test_bad_sat003_finds_loop_listcomp_and_materializer():
    report = lint_paths([FIXTURES / "bad_sat003.py"])
    lines = {f.line for f in report.findings if f.code == "SAT003"}
    assert len(lines) >= 4  # for-set, listcomp, for-frozenset, list(set), keys


def test_bad_sat006_fires_in_subclass_of_subclass():
    report = lint_paths([FIXTURES / "bad_sat006.py"])
    sat006 = [f for f in report.findings if f.code == "SAT006"]
    assert len(sat006) == 3


def test_bad_sat007_flags_each_bad_push_and_accepts_good_ones():
    report = lint_paths([FIXTURES / "bad_sat007.py"])
    sat007 = [f for f in report.findings if f.code == "SAT007"]
    # lone priority, payload tie-break, opaque entry, heappushpop — but
    # not the counter/label-key/subscript pushes nor the noqa'd one
    assert len(sat007) == 4
    flagged_lines = {f.line for f in sat007}
    good_lines = {23, 27, 31, 35}
    assert not flagged_lines & good_lines


def test_sat007_inline_variants():
    assert codes_in(lint_source(
        "import heapq\nheapq.heappush(h, (t, event))\n")) == {"SAT007"}
    assert lint_source(
        "import heapq\nheapq.heappush(h, (t, self._seq, event))\n") == []
    assert lint_source(
        "import heapq\nheapq.heappush(h, (label.ts, label.src))\n") == []


def test_bad_sat008_flags_each_defect_and_spares_conforming_class():
    report = lint_paths([FIXTURES / "bad_sat008.py"])
    sat008 = [f for f in report.findings if f.code == "SAT008"]
    # not-frozen + no-slots, no-slots, and four non-plain annotations;
    # CleanMsg and the non-dataclass contribute nothing
    assert len(sat008) == 7
    assert not any("CleanMsg" in f.message for f in sat008)


def test_sat008_only_applies_to_wire_message_classes():
    # same defects, but neither a messages.py module nor a *Payload/*Msg
    # class name: out of scope
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Config:\n"
              "    values: dict\n")
    assert lint_source(source, filename="config.py") == []
    assert codes_in(lint_source(source, filename="messages.py")) == {"SAT008"}


def test_bad_sat009_finds_both_misuses_and_respects_noqa():
    report = lint_paths([FIXTURES / "bad_sat009.py"])
    sat009 = [f for f in report.findings if f.code == "SAT009"]
    assert len(sat009) == 2  # get_event_loop + ensure_future, noqa'd one out
    assert report.findings == sat009  # the good patterns stay silent


def test_sat009_flags_the_import_form():
    source = "from asyncio import get_event_loop\n"
    assert codes_in(lint_source(source)) == {"SAT009"}
    assert lint_source("from asyncio import get_running_loop\n") == []


# ---------------------------------------------------------------------------
# suppression and filtering
# ---------------------------------------------------------------------------

def test_noqa_with_code_suppresses_only_that_rule():
    source = "import time\nt = time.time()  # noqa: SAT001\n"
    assert lint_source(source) == []
    source_wrong_code = "import time\nt = time.time()  # noqa: SAT002\n"
    assert codes_in(lint_source(source_wrong_code)) == {"SAT001"}


def test_unparseable_source_is_reported_not_crashed():
    (finding,) = lint_source("def f(:\n")
    assert finding.code == "SAT000"
    assert "could not be parsed" in finding.message


def test_bare_noqa_suppresses_everything():
    source = "import random\nx = random.random()  # noqa\n"
    assert lint_source(source) == []


# ---------------------------------------------------------------------------
# targeted detection details (inline sources)
# ---------------------------------------------------------------------------

def test_order_insensitive_consumers_are_allowed():
    source = (
        "total = sum(x for x in set(items))\n"
        "first = min(frozenset(items))\n"
        "ordered = sorted(set(items))\n"
        "unique = {x for x in set(items)}\n"
    )
    assert lint_source(source) == []


def test_dictcomp_over_set_is_flagged():
    assert codes_in(lint_source("d = {x: 0 for x in set(items)}\n")) == {"SAT003"}


def test_known_set_returning_apis_are_tracked():
    source = "for dc in replication.replicas(key):\n    send(dc)\n"
    assert codes_in(lint_source(source)) == {"SAT003"}


def test_random_class_constructors_are_allowed():
    assert lint_source("import random\nrng = random.Random(7)\n") == []


def test_timestampish_comparison_requires_eq():
    assert lint_source("ready = now >= deadline\n") == []
    assert codes_in(lint_source("ready = now == deadline\n")) == {"SAT004"}


def test_self_attribute_writes_are_fine():
    source = (
        "from repro.sim.process import Process\n"
        "class A(Process):\n"
        "    def receive(self, sender, message):\n"
        "        self.last = message\n"
    )
    assert lint_source(source) == []

"""Edge cases of the individual concurrency passes: the guards that keep
each rule from false-positiving on correct idioms."""

from pathlib import Path

from repro.analysis import analyze


def audit_source(tmp_path: Path, source: str, rules=("CONC",)):
    pkg = tmp_path / "app"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    return analyze([pkg], select=rules)


def codes(report):
    return [f.code for f in report.findings]


# -- CONC001 -----------------------------------------------------------------

def test_asyncio_sleep_is_not_a_blocking_call(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "async def nap():\n"
        "    await asyncio.sleep(1)\n"))
    assert report.ok, report.format_human()


def test_blocking_call_in_pure_sync_code_is_fine(tmp_path):
    # time.sleep in a function no coroutine reaches: the driver's business
    report = audit_source(tmp_path, (
        "import time\n"
        "def wait():\n"
        "    time.sleep(1)\n"))
    assert report.ok, report.format_human()


def test_one_site_reached_by_two_coroutines_reports_once(tmp_path):
    report = audit_source(tmp_path, (
        "import time\n"
        "def slow():\n"
        "    time.sleep(1)\n"
        "async def a():\n"
        "    slow()\n"
        "async def b():\n"
        "    slow()\n"), rules=("CONC001",))
    assert codes(report) == ["CONC001"]


# -- CONC002 -----------------------------------------------------------------

def test_asyncio_run_of_a_coroutine_call_is_not_fire_and_forget(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "async def main():\n"
        "    return 0\n"
        "def entry():\n"
        "    asyncio.run(main())\n"))
    assert report.ok, report.format_human()


def test_awaited_coroutine_is_not_flagged(tmp_path):
    report = audit_source(tmp_path, (
        "async def work():\n"
        "    return 0\n"
        "async def main():\n"
        "    await work()\n"))
    assert report.ok, report.format_human()


def test_discarded_create_task_is_flagged_even_unresolved(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "async def main(coro):\n"
        "    asyncio.create_task(coro)\n"), rules=("CONC002",))
    assert codes(report) == ["CONC002"]


# -- CONC003 -----------------------------------------------------------------

def test_augassign_on_both_sides_of_await_is_not_a_lost_update(tmp_path):
    # += is atomic per event-loop step; without an explicit read before
    # the await there is no stale value to write back
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "class C:\n"
        "    async def tick(self):\n"
        "        self.count += 1\n"
        "        await asyncio.sleep(0)\n"
        "        self.count += 1\n"))
    assert report.ok, report.format_human()


def test_lock_held_across_the_window_is_exempt(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "class C:\n"
        "    async def bump(self):\n"
        "        async with self.lock:\n"
        "            v = self.value\n"
        "            await asyncio.sleep(0)\n"
        "            self.value = v + 1\n"))
    assert report.ok, report.format_human()


def test_write_before_the_await_is_not_flagged(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "class C:\n"
        "    async def set_then_wait(self):\n"
        "        v = self.value\n"
        "        self.value = v + 1\n"
        "        await asyncio.sleep(0)\n"))
    assert report.ok, report.format_human()


# -- CONC004 -----------------------------------------------------------------

def test_consistent_lock_order_is_fine(tmp_path):
    report = audit_source(tmp_path, (
        "class C:\n"
        "    async def one(self):\n"
        "        async with self.lock_a:\n"
        "            async with self.lock_b:\n"
        "                pass\n"
        "    async def two(self):\n"
        "        async with self.lock_a:\n"
        "            async with self.lock_b:\n"
        "                pass\n"))
    assert report.ok, report.format_human()


# -- CONC005 -----------------------------------------------------------------

def test_except_exception_does_not_swallow_cancellation(tmp_path):
    # CancelledError derives from BaseException since 3.8
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "async def robust():\n"
        "    try:\n"
        "        await asyncio.sleep(0)\n"
        "    except Exception:\n"
        "        pass\n"))
    assert report.ok, report.format_human()


def test_reraising_handler_is_exempt(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "async def cleanup():\n"
        "    try:\n"
        "        await asyncio.sleep(0)\n"
        "    except asyncio.CancelledError:\n"
        "        print('bye')\n"
        "        raise\n"))
    assert report.ok, report.format_human()


def test_bare_except_without_await_in_body_is_out_of_scope(tmp_path):
    report = audit_source(tmp_path, (
        "def parse(text):\n"
        "    try:\n"
        "        return int(text)\n"
        "    except:\n"
        "        return None\n"), rules=("CONC005",))
    assert report.ok, report.format_human()


# -- CONC006 -----------------------------------------------------------------

def test_closer_in_a_base_class_counts(tmp_path):
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "class Base:\n"
        "    async def stop(self):\n"
        "        self._task.cancel()\n"
        "class Child(Base):\n"
        "    def start(self):\n"
        "        self._task = asyncio.create_task(self.run())\n"
        "    async def run(self):\n"
        "        await asyncio.sleep(0)\n"), rules=("CONC006",))
    assert report.ok, report.format_human()


def test_local_task_variable_is_not_an_ownership_leak(tmp_path):
    # only self-attached spawns are lifecycle-audited; locals are the
    # await-it-yourself pattern
    report = audit_source(tmp_path, (
        "import asyncio\n"
        "class C:\n"
        "    async def run_one(self):\n"
        "        task = asyncio.create_task(self.helper())\n"
        "        await task\n"
        "    async def helper(self):\n"
        "        return 0\n"), rules=("CONC006",))
    assert report.ok, report.format_human()

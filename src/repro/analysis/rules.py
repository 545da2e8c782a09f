"""The one rule catalogue of the static analysis engine.

Three families share the ``Rule`` shape, the ``# noqa: CODE`` escape and
the report of :mod:`repro.analysis.engine`:

* **SATxxx** — per-file determinism rules (:mod:`repro.analysis.lint`):
  ways simulation code can silently stop being reproducible or bypass the
  message-passing discipline the correctness argument rests on.
* **ARCHxxx** — whole-program architecture rules checked against
  ``arch_contract.toml``: 0xx police the *layer contract* (who may import
  whom, which kernel seams protocol code may touch;
  :mod:`~repro.analysis.layers`), 1xx *sim-purity* (no protocol entry
  point may transitively reach a nondeterministic or environment-coupled
  source; :mod:`~repro.analysis.purity`).  The messages themselves are
  not a rule: the codec's ``register()`` checks them at import, and a
  misread field or bad constructor argument raises on the frozen,
  slotted dataclass the first time a test runs the site.
* **CONCxxx** — whole-program asyncio rules for the realtime transport
  path (:mod:`~repro.analysis.blocking`, :mod:`~repro.analysis.lifecycle`,
  :mod:`~repro.analysis.shared_state`).  Saturn's correctness argument
  leans on per-link FIFO delivery and serializers that never interleave
  label handling; each rule names one way asyncio code can silently break
  that model.

This module only defines codes, titles and rationale — detection logic
lives in the modules above — so reports, suppressions and docs stay in
sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Rule", "ALL_RULES", "RULES_BY_CODE", "PARSE_ERROR_CODE"]

#: Pseudo-code for files that could not be parsed.  Not part of the rule
#: catalogue and never filtered by --select/--ignore: an unparseable file
#: must always surface, or a stray syntax error silently shrinks coverage.
PARSE_ERROR_CODE = "SAT000"


@dataclass(frozen=True)
class Rule:
    """One rule: a stable code plus human-facing explanation."""

    code: str
    title: str
    rationale: str


ALL_RULES: Tuple[Rule, ...] = (
    Rule(
        code="SAT001",
        title="wall-clock read in simulation code",
        rationale=(
            "time.time(), datetime.now() and datetime.today() read the host "
            "clock; simulation code must use the simulated clock "
            "(Simulator.now / LogicalClock) or runs stop being reproducible."
        ),
    ),
    Rule(
        code="SAT002",
        title="global random module used instead of a seeded stream",
        rationale=(
            "Module-level random.* draws from the shared, implicitly seeded "
            "global RNG; components must draw from their own named stream "
            "via repro.sim.rng.RngRegistry so seeds reproduce executions "
            "and adding randomness to one component cannot perturb another."
        ),
    ),
    Rule(
        code="SAT003",
        title="unordered set/dict-keys iteration on an order-sensitive path",
        rationale=(
            "Iterating a set (or dict keys of untracked origin) yields a "
            "hash-dependent order; if the loop schedules events, emits "
            "messages or forwards labels, the execution differs between "
            "processes (PYTHONHASHSEED) even with identical seeds.  Wrap "
            "the iterable in sorted(...) or use an order-insensitive "
            "reduction (min/max/sum/any/all/len or building another set)."
        ),
    ),
    Rule(
        code="SAT004",
        title="== / != between float timestamps",
        rationale=(
            "Simulated time is a float; equality between computed "
            "timestamps is brittle (association order changes the last "
            "ulp).  Compare with <= / >= against explicit cuts, or compare "
            "(ts, src) label keys, which are exact by construction."
        ),
    ),
    Rule(
        code="SAT005",
        title="mutable default argument",
        rationale=(
            "A mutable default (list/dict/set) is shared across every call "
            "and every process instance — hidden global state that couples "
            "actors which must only interact through messages."
        ),
    ),
    Rule(
        code="SAT006",
        title="direct mutation of another process's state",
        rationale=(
            "Actors communicate exclusively through Network.send; writing "
            "to an attribute of an object received as a message (or of a "
            "peer process) bypasses the FIFO channels the causality "
            "argument depends on and executes at the wrong simulated time."
        ),
    ),
    Rule(
        code="SAT007",
        title="heap entry without a deterministic tie-breaker",
        rationale=(
            "heapq compares tuple entries element by element; pushing "
            "(priority, payload) lets two equal priorities fall through to "
            "comparing payload objects — a TypeError for unorderable types, "
            "or id()-flavored nondeterminism for orderable ones.  Push "
            "(priority, seq, payload) where seq is a monotonic counter or "
            "another total, deterministic key (e.g. a label's src)."
        ),
    ),
    Rule(
        code="SAT009",
        title="event-loop acquisition outside the kernel seam",
        rationale=(
            "asyncio.get_event_loop() is deprecated outside a running loop "
            "and silently binds whichever loop happens to be current — on "
            "the realtime path every component must receive its loop (or "
            "kernel) explicitly so loop ownership stays auditable.  Naked "
            "asyncio.ensure_future() additionally drops the strong "
            "reference the loop does not keep, recreating the CONC002 "
            "footgun.  Use RealtimeKernel (kernel.loop / "
            "kernel.create_task), or asyncio.get_running_loop() inside a "
            "coroutine."
        ),
    ),
    Rule(
        code="ARCH001",
        title="layer-contract violation (upward import)",
        rationale=(
            "arch_contract.toml orders the layers (sim kernel <- core "
            "protocol <- datacenter <- services <- tools); a module may "
            "import its own layer or lower ones.  An upward import couples "
            "protocol code to machinery above it and blocks moving the "
            "lower layer behind the Transport interface."
        ),
    ),
    Rule(
        code="ARCH002",
        title="module import cycle",
        rationale=(
            "A cycle in the runtime import graph means no participating "
            "module can be extracted, tested, or deployed without the "
            "others; deferred (function-scope) imports are the sanctioned "
            "way to break one and are excluded from the check."
        ),
    ),
    Rule(
        code="ARCH003",
        title="unsanctioned sim-kernel import from protocol code",
        rationale=(
            "Protocol layers may touch the kernel only through the "
            "sanctioned seams listed in arch_contract.toml (the Process "
            "actor API, PhysicalClock, Network.send, the CPU cost model, "
            "and the Simulator handle).  Anything else — Event internals, "
            "RngRegistry, heap state — is kernel-private and will not "
            "exist under a real transport."
        ),
    ),
    Rule(
        code="ARCH004",
        title="kernel-scheduler bypass in protocol code",
        rationale=(
            "Protocol code must create timers via Process.set_timer / "
            "Process.every (relative delays a Transport can implement); "
            "calling sim.schedule / sim.schedule_at directly binds the "
            "code to the discrete-event kernel's absolute clock."
        ),
    ),
    Rule(
        code="ARCH101",
        title="protocol entry point reaches a forbidden source",
        rationale=(
            "A serializer/sink/proxy/gear handler transitively calls a "
            "wall clock, the global RNG, threading/asyncio primitives, "
            "entropy, file/socket I/O, or the process environment.  Such "
            "a path makes the execution depend on the host instead of the "
            "simulated schedule; the finding reports the full call chain "
            "from entry point to the forbidden call site."
        ),
    ),
    Rule(
        code="CONC001",
        title="blocking call reachable from a coroutine",
        rationale=(
            "time.sleep, synchronous socket/file/subprocess I/O, or "
            "console input reached (transitively) from an async def stalls "
            "the whole event loop: every peer connection, timer, and "
            "heartbeat on the node freezes for the duration.  The finding "
            "reports the full witness call chain from the coroutine to "
            "the blocking call site.  Do the work before the loop starts, "
            "or hand it to a thread via loop.run_in_executor."
        ),
    ),
    Rule(
        code="CONC002",
        title="fire-and-forget coroutine or discarded task",
        rationale=(
            "Calling a coroutine function without awaiting it creates a "
            "coroutine object that never runs; discarding the result of "
            "create_task()/ensure_future() is subtler — the event loop "
            "holds only a weak reference, so the garbage collector can "
            "destroy the task mid-flight.  Either way the work silently "
            "does not happen.  Await the call, or retain the task on an "
            "attribute and cancel it on the close/stop path."
        ),
    ),
    Rule(
        code="CONC003",
        title="read-modify-write of shared state across an await point",
        rationale=(
            "Between reading self-attached state and writing it back, an "
            "await suspends the coroutine and any other coroutine of the "
            "same object may run: the write clobbers whatever the "
            "interleaved coroutine did (a lost update — the exact bug "
            "class cooperative scheduling is supposed to prevent, "
            "reintroduced by the await).  Hold an asyncio.Lock across the "
            "read-modify-write, or restructure so the update is computed "
            "and stored without suspending."
        ),
    ),
    Rule(
        code="CONC004",
        title="inconsistent lock-acquisition order",
        rationale=(
            "If one coroutine acquires lock A then B while another "
            "acquires B then A, a deadlock is one unlucky interleaving "
            "away — each holds the lock the other awaits, forever, with "
            "no thread preemption to break the tie.  Pick one global "
            "order for every pair of locks and acquire in that order "
            "everywhere."
        ),
    ),
    Rule(
        code="CONC005",
        title="swallowed CancelledError around an await",
        rationale=(
            "A bare except:, except BaseException:, or except "
            "CancelledError: that does not re-raise eats the cancellation "
            "signal asyncio delivers at await points: task.cancel() "
            "appears to succeed but the coroutine keeps running, and "
            "graceful shutdown hangs on a task that can no longer be "
            "stopped.  Re-raise after cleanup (a bare raise), or let the "
            "exception propagate and clean up in a finally block."
        ),
    ),
    Rule(
        code="CONC006",
        title="task or server is never cancelled on the close/stop path",
        rationale=(
            "A component that stores the result of create_task()/"
            "start_server() on self but whose close/stop/shutdown methods "
            "never touch that attribute leaks the task past its owner's "
            "lifetime: shutdown leaves it running against torn-down "
            "state, or the process exits with 'Task was destroyed but it "
            "is pending!'.  Every spawned task needs an owner that "
            "cancels and awaits it on the way down."
        ),
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}

"""``check()`` output does not depend on the interpreter's string-hash seed.

One update becomes visible before all eight of its dependencies.  Its
violations must name them in the order the session read them — not in
the iteration order of a set of versions, which follows
``PYTHONHASHSEED`` — so two interpreters agree line for line.
"""

import os
import subprocess
import sys

READ_ORDER = (5, 2, 7, 0, 3, 6, 1, 4)

SCRIPT = f"""
from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.verify import ExecutionLog

log = ExecutionLog(ReplicationMap(["A", "B", "C"]))
for i in {READ_ORDER!r}:
    dep = Label(LabelType.UPDATE, src=f"A/g{{i}}", ts=1.0, target=f"k{{i}}",
                origin_dc="A")
    log.record_update(dep, "A", 1.0)
    log.record_visible(dep, "B", 2.0)
    log.record_read("writer", "B", dep.target, (dep.ts, dep.src), None)
update = Label(LabelType.UPDATE, src="B/g0", ts=3.0, target="u",
               origin_dc="B")
log.record_update(update, "B", 3.0)
log.record_update_deps("writer", (update.ts, update.src))
log.record_visible(update, "C", 4.0)   # before every one of its deps
for violation in log.check():
    print(violation.kind, violation.dc, violation.detail)
"""


def _check_output(seed):
    return subprocess.run(
        [sys.executable, "-c", SCRIPT], check=True, timeout=60,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed),
                 PYTHONPATH=os.pathsep.join(sys.path))).stdout.splitlines()


def test_violations_are_independent_of_the_hash_seed():
    under_0, under_1 = _check_output(0), _check_output(1)
    assert under_0 == under_1
    assert under_0 == [
        f"causal-order C update (3.0, 'B/g0') visible at C before its "
        f"dependency (1.0, 'A/g{i}')" for i in READ_ORDER]

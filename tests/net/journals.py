"""Hook journals of a scripted run, written the way a node writes them.

:func:`write_journals` plays a spec's client scripts in spec order with
instant replication, calling the recorder hooks on one
:class:`~repro.net.node.HookJournal` per datacenter — so a test starts
from conforming ``visibility.jsonl`` files in the real line format and
tampers with *lines* (:func:`edit_journal`), never with a hand-typed
schema.  As on a node, a client's reads and updates are lines of its own
datacenter's file in session order, and an update's causal past is not
written out: its ``record_update_deps`` line is ``(client, version)``.
"""

import contextlib
import json

from repro.core.label import Label, LabelType
from repro.net.node import HookJournal


class _Clock:
    now = 0.0


def _path(cluster_dir, site):
    return cluster_dir / f"dc-{site}" / "visibility.jsonl"


@contextlib.contextmanager
def open_journal(cluster_dir, site):
    """A journal appending to *site*'s ``visibility.jsonl``."""
    path = _path(cluster_dir, site)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        yield HookJournal(fh, _Clock())


def write_journals(cluster_dir, spec):
    """``spec.json`` + one conforming journal per datacenter."""
    cluster_dir.mkdir(parents=True, exist_ok=True)
    spec.save(cluster_dir / "spec.json")
    replication = spec.replication()
    with contextlib.ExitStack() as stack:
        journals = {site: stack.enter_context(open_journal(cluster_dir, site))
                    for site in spec.sites}
        newest = {site: {} for site in spec.sites}  # dc -> key -> version
        clock = 0.0
        for client in spec.clients:
            dc, journal = client["dc"], journals[client["dc"]]
            observed_max = {}
            for op in client["script"]:
                clock += 1.0
                key = op["key"]
                if op["op"] == "update":
                    label = Label(LabelType.UPDATE, src=f"{dc}/g0", ts=clock,
                                  target=key, origin_dc=dc)
                    version = (label.ts, label.src)
                    journal.record_update(label, dc, clock)
                    journal.record_update_deps(client["id"], version)
                    journal.record_op("update", 1.0, clock)
                    for site in sorted(replication.replicas(key)):
                        newest[site][key] = version
                        if site != dc:
                            journals[site].record_visibility(dc, site, 10.0)
                            journals[site].record_visible(label, site, clock)
                else:  # poll / read: the awaited version is already here
                    version = newest[dc].get(key)
                    journal.record_read(client["id"], dc, key, version,
                                        observed_max.get(key))
                    journal.record_op("read", 1.0, clock)
                if version is not None:
                    observed_max[key] = version


def journal_lines(cluster_dir, site):
    return _path(cluster_dir, site).read_text(encoding="utf-8").splitlines()


def edit_journal(cluster_dir, site, edit):
    """Rewrite *site*'s journal: *edit* mutates its list of lines."""
    lines = journal_lines(cluster_dir, site)
    edit(lines)
    _path(cluster_dir, site).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")


def line_of(lines, hook, key):
    """Index of the first *hook* line that mentions *key*."""
    return next(i for i, line in enumerate(lines)
                if json.loads(line)["hook"] == hook and f'"{key}"' in line)

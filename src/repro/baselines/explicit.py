"""Explicit dependency-checking baseline (COPS [39] / Eiger [40] style).

Instead of compressing causality into a scalar or vector, these systems
attach an **explicit list of dependencies** — (key, version) pairs — to
every update.  A remote update becomes visible as soon as all of its
dependencies are locally visible: no stabilization rounds, near-optimal
visibility.

The catch, and the reason the Saturn paper rules these designs out for
partial geo-replication (§7.3.1): keeping the list small relies on the
*transitivity prune* — after a client writes, its context collapses to just
that write, because any datacenter applying it must (transitively) have
applied its whole causal past first.  That argument only holds when every
dependency is replicated wherever the write goes:

* ``prune_on_write=True``  — classic COPS.  Metadata stays tiny, but under
  partial replication the transitive chain can pass through an item a
  datacenter does not replicate, silently dropping dependencies — the
  offline checker catches the resulting causal violations.
* ``prune_on_write=False`` — safe under partial replication, but the
  client's dependency list grows with every operation ("potentially up to
  the entire database"), and so do message sizes and check costs.

``benchmarks/test_explicit_dependencies.py`` measures both failure modes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.naming import dc_process_name
from repro.datacenter.messages import (AttachOk, ClientAttach, ClientMigrate,
                                       ClientRead, ClientUpdate, MigrateReply,
                                       ReadReply, UpdateReply)
from repro.datacenter.storage import PartitionedStore, StoredValue
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import REMOTE_APPLY_FACTOR, CostModel
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["ExplicitDatacenter", "ExplicitPayload", "DepContext",
           "explicit_merge"]

Version = Tuple[float, str]
Dependency = Tuple[str, Version]  # (key, version)


@dataclass(frozen=True, slots=True)
class DepContext:
    """A client's causal context: explicit dependencies.

    ``replace=True`` marks a context returned by a write under the
    transitivity prune: it supersedes everything the client held before.
    """

    deps: FrozenSet[Dependency]
    replace: bool = False

    def __len__(self) -> int:
        return len(self.deps)


def explicit_merge(a: Optional[DepContext],
                   b: Optional[DepContext]) -> Optional[DepContext]:
    """Client stamp merge: union, unless the new context replaces (COPS
    collapses the context to the last write)."""
    if b is None:
        return a
    if a is None or b.replace:
        return DepContext(deps=b.deps, replace=False)
    return DepContext(deps=a.deps | b.deps, replace=False)


@dataclass(frozen=True, slots=True)
class ExplicitPayload:
    """Replicated update carrying its explicit dependency list."""

    label: Label
    key: str
    value_size: int
    created_at: float
    deps: FrozenSet[Dependency]


class ExplicitDatacenter(Process):
    """A datacenter running COPS-style explicit dependency checking."""

    #: ``mode`` tag for obs ``visible`` events (see StabilizedDatacenter)
    VISIBILITY_MODE = "explicit"

    def __init__(self, sim: Simulator, name: str, site: str,
                 replication: ReplicationMap, cost_model: CostModel,
                 clock: PhysicalClock, num_partitions: int = 2,
                 prune_on_write: bool = True,
                 metrics=None, execution_log=None) -> None:
        super().__init__(sim, dc_process_name(name))
        self.dc_name = name
        self.site = site
        self.replication = replication
        self.cost_model = cost_model
        self.clock = clock
        self.prune_on_write = prune_on_write
        self.metrics = metrics
        self.execution_log = execution_log
        self.store = PartitionedStore(sim, num_partitions)
        #: payloads blocked on a dependency, indexed by the missing (key,
        #: version) they are waiting for
        self._blocked: Dict[Dependency, List[ExplicitPayload]] = defaultdict(list)
        self._visible_versions: Dict[str, Version] = {}
        self.updates_applied = 0
        #: statistics: sizes of dependency lists shipped with updates
        self.dep_list_sizes: List[int] = []
        #: optional LabelTracer (repro.obs) — observes issue/visible
        #: transitions only, never schedules events
        self.obs = None

    def start(self) -> None:
        """No background machinery: dependency checks happen on arrival."""

    # ------------------------------------------------------------------

    def receive(self, sender: str, message) -> None:
        if isinstance(message, ClientRead):
            self._client_read(sender, message)
        elif isinstance(message, ClientUpdate):
            self._client_update(sender, message)
        elif isinstance(message, ClientAttach):
            # dependency contexts are checked per-operation; attach is a
            # no-op (COPS has no attach — sessions carry their context)
            self.send(sender, AttachOk(client_id=message.client_id))
        elif isinstance(message, ClientMigrate):
            self.send(sender, MigrateReply(client_id=message.client_id,
                                           label=None))
        elif isinstance(message, ExplicitPayload):
            self._on_payload(message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def _dep_cost(self, deps_count: int) -> float:
        """Explicit metadata cost: proportional to the dependency list."""
        return self.cost_model.vector_entry_metadata * deps_count

    def _client_read(self, client: str, message: ClientRead) -> None:
        partition = self.store.partition_for(message.key)
        stored_now = partition.get(message.key)
        size = stored_now.value_size if stored_now else 0
        cost = (self.cost_model.read_base + self.cost_model.per_byte * size)

        def _done() -> None:
            stored = partition.get(message.key)
            if stored is None:
                self.send(client, ReadReply(client_id=message.client_id,
                                            key=message.key, label=None,
                                            value_size=0))
                return
            version = (stored.label.ts, stored.label.src)
            context = DepContext(deps=frozenset({(message.key, version)}))
            self.send(client, ReadReply(
                client_id=message.client_id, key=message.key, label=context,
                value_size=stored.value_size, version=version))

        partition.cpu.submit(cost, _done)

    def _client_update(self, client: str, message: ClientUpdate) -> None:
        partition = self.store.partition_for(message.key)
        context: Optional[DepContext] = message.label
        deps = context.deps if context else frozenset()
        cost = (self.cost_model.write_base
                + self.cost_model.per_byte * message.value_size
                + self._dep_cost(len(deps)))

        def _done() -> None:
            ts = self.clock.timestamp()
            label = Label(LabelType.UPDATE, src=f"{self.dc_name}/g0", ts=ts,
                          target=message.key, origin_dc=self.dc_name)
            version = (ts, label.src)
            self._install(message.key, label, message.value_size)
            self.dep_list_sizes.append(len(deps))
            payload = ExplicitPayload(label=label, key=message.key,
                                      value_size=message.value_size,
                                      created_at=self.sim.now, deps=deps)
            for replica in sorted(self.replication.replicas(message.key)):
                if replica != self.dc_name:
                    self.network.send(
                        self.name, dc_process_name(replica), payload,
                        size_bytes=message.value_size + 16 * len(deps))
            if self.obs is not None:
                self.obs.on_issue(label, self.sim.now, self.dc_name)
            if self.execution_log is not None:
                self.execution_log.record_update(label, self.dc_name,
                                                 self.sim.now)
            if self.prune_on_write:
                # transitivity prune: the new write dominates the context
                new_context = DepContext(
                    deps=frozenset({(message.key, version)}), replace=True)
            else:
                new_context = DepContext(
                    deps=deps | {(message.key, version)})
            self.send(client, UpdateReply(client_id=message.client_id,
                                          key=message.key, label=new_context,
                                          version=version))

        partition.cpu.submit(cost, _done)

    # ------------------------------------------------------------------
    # remote updates: dependency checking
    # ------------------------------------------------------------------

    def _dep_satisfied(self, dep: Dependency) -> bool:
        key, version = dep
        if not self.replication.is_replicated_at(key, self.dc_name):
            return True  # cannot check items we do not replicate
        seen = self._visible_versions.get(key)
        return seen is not None and seen >= version

    def _on_payload(self, payload: ExplicitPayload) -> None:
        missing = [dep for dep in payload.deps
                   if not self._dep_satisfied(dep)]
        if missing:
            self._blocked[missing[0]].append(payload)
        else:
            self._apply(payload)

    def _apply(self, payload: ExplicitPayload) -> None:
        partition = self.store.partition_for(payload.key)
        cost = (REMOTE_APPLY_FACTOR * self.cost_model.write_base
                + self._dep_cost(len(payload.deps)))

        def _done() -> None:
            self._install(payload.key, payload.label, payload.value_size)
            self.updates_applied += 1
            if self.obs is not None:
                self.obs.on_visible(payload.label, self.sim.now, self.dc_name,
                                    self.VISIBILITY_MODE)
            if self.metrics is not None:
                self.metrics.record_visibility(
                    payload.label.origin_dc, self.dc_name,
                    self.sim.now - payload.created_at)
            if self.execution_log is not None:
                self.execution_log.record_visible(payload.label, self.dc_name,
                                                  self.sim.now)

        partition.cpu.submit(cost, _done)

    def _install(self, key: str, label: Label, value_size: int) -> None:
        self.store.put(key, StoredValue(label=label, value_size=value_size))
        version = (label.ts, label.src)
        current = self._visible_versions.get(key)
        if current is None or version > current:
            self._visible_versions[key] = version
        self._unblock((key, version))

    def _unblock(self, satisfied: Dependency) -> None:
        """Re-check payloads that were waiting on (a version <=) this one."""
        key, version = satisfied
        ready: List[ExplicitPayload] = []
        for dep in [d for d in self._blocked
                    if d[0] == key and d[1] <= version]:
            ready.extend(self._blocked.pop(dep))
        for payload in ready:
            self._on_payload(payload)

    # ------------------------------------------------------------------

    def mean_dep_list_size(self) -> float:
        if not self.dep_list_sizes:
            return 0.0
        return sum(self.dep_list_sizes) / len(self.dep_list_sizes)

    def blocked_count(self) -> int:
        return sum(len(v) for v in self._blocked.values())

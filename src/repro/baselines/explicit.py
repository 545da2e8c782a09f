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
from repro.datacenter.base import Datacenter
from repro.datacenter.messages import ClientUpdate, UpdateReply
from repro.datacenter.storage import StoredValue
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import REMOTE_APPLY_FACTOR, CostModel
from repro.sim.engine import Simulator

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


class ExplicitDatacenter(Datacenter):
    """A datacenter running COPS-style explicit dependency checking.

    Attach and migrate are the skeleton's immediate replies: COPS has no
    attach (sessions carry their context, checked per operation)."""

    #: ``mode`` tag for obs ``visible`` events (see StabilizedDatacenter)
    VISIBILITY_MODE = "explicit"

    def __init__(self, sim: Simulator, name: str, site: str,
                 replication: ReplicationMap, cost_model: CostModel,
                 clock: PhysicalClock, num_partitions: int = 2,
                 prune_on_write: bool = True,
                 metrics=None, execution_log=None) -> None:
        super().__init__(sim, name, site, replication, cost_model, clock,
                         num_partitions, metrics, execution_log)
        self.prune_on_write = prune_on_write
        #: payloads blocked on a dependency, indexed by the missing (key,
        #: version) they are waiting for
        self._blocked: Dict[Dependency, List[ExplicitPayload]] = defaultdict(list)
        self._visible_versions: Dict[str, Version] = {}
        self.updates_applied = 0
        #: statistics: sizes of dependency lists shipped with updates
        self.dep_list_sizes: List[int] = []

    _HANDLERS = {
        **Datacenter._HANDLERS,
        ExplicitPayload: lambda self, sender, m: self._on_payload(m),
    }

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def _dep_cost(self, deps_count: int) -> float:
        """Explicit metadata cost: proportional to the dependency list."""
        return self.cost_model.vector_entry_metadata * deps_count

    def read_cost(self, value_size: int) -> float:
        return self.cost_model.read_base + self.cost_model.per_byte * value_size

    def read_stamp(self, key: str, stored: StoredValue) -> DepContext:
        return DepContext(
            deps=frozenset({(key, (stored.label.ts, stored.label.src))}))

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
            self.replicate(message.key, payload,
                           message.value_size + 16 * len(deps))
            if self.obs is not None:
                self.obs.on_issue(label, self.sim.now, self.dc_name)
            self.issued(label, self.sim.now)
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
        # block on the least missing dependency, not on whichever one the
        # frozenset's hash order yields first
        missing = [dep for dep in payload.deps
                   if not self._dep_satisfied(dep)]
        if missing:
            self._blocked[min(missing)].append(payload)
        else:
            self._apply(payload)

    def _apply(self, payload: ExplicitPayload) -> None:
        partition = self.store.partition_for(payload.key)
        cost = (REMOTE_APPLY_FACTOR * self.cost_model.write_base
                + self._dep_cost(len(payload.deps)))

        def _done() -> None:
            self._install(payload.key, payload.label, payload.value_size)
            self.updates_applied += 1
            self.revealed(payload.label, payload.created_at,
                          self.VISIBILITY_MODE)

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

"""Schedules a :class:`~repro.faults.plan.FaultPlan` onto a deployment.

The injector owns the mapping from declarative fault actions to the
simulator's fault hooks: :meth:`Process.crash`/:meth:`Process.restart`
through :class:`~repro.core.service.SaturnService`, link faults through
:class:`~repro.sim.network.Network`, and epoch changes through
:class:`~repro.core.reconfig.ReconfigurationManager`.

Determinism: ``apply`` schedules every action up front at plan-resolution
time, so the fault events participate in the kernel's (time, seq) order
exactly like protocol events — the same plan on the same scenario yields a
bit-identical execution.  Actions with ``at_choices`` ask the installed
``chooser`` (the model checker's schedule controller) to pick the instant;
with no chooser the first candidate is used, so a plan with open timing
still runs standalone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.faults.plan import FaultAction, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reconfig import ReconfigurationManager
    from repro.core.service import SaturnService
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies fault plans to a built scenario."""

    def __init__(self, sim: "Simulator", network: "Network",
                 service: Optional["SaturnService"] = None,
                 manager: Optional["ReconfigurationManager"] = None,
                 clocks: Optional[dict] = None) -> None:
        self.sim = sim
        self.network = network
        self.service = service
        self.manager = manager
        #: datacenter name -> PhysicalClock, for clock-skew actions
        self.clocks = clocks or {}
        #: optional fault-timing chooser: ``choose_fault(name, k) -> int``
        #: (the model checker's schedule controller); None means default
        self.chooser: Optional[Any] = None
        #: (fired-at, kind, resolved-at) audit trail, in firing order
        self.fired: List[Tuple[float, str, float]] = []
        self.applied = False

    def apply(self, plan: FaultPlan) -> None:
        """Resolve timing and schedule every action of *plan*."""
        if self.applied:
            raise RuntimeError("injector already applied a plan")
        self.applied = True
        for index, action in enumerate(plan.actions):
            at = self._resolve_time(plan.name, index, action)
            self.sim.schedule_at(
                at, lambda a=action, t=at: self._fire(a, t))

    def _resolve_time(self, plan_name: str, index: int,
                      action: FaultAction) -> float:
        if action.at is not None:
            return action.at
        choices = action.at_choices or ()
        if self.chooser is None:
            return choices[0]
        pick = self.chooser.choose_fault(
            f"{plan_name}[{index}]:{action.kind}", len(choices))
        return choices[pick]

    def _fire(self, action: FaultAction, at: float) -> None:
        handler = getattr(self, "_do_" + action.kind.replace("-", "_"))
        handler(action.args)
        self.fired.append((self.sim.now, action.kind, at))

    # -- handlers ----------------------------------------------------------

    def _need_service(self) -> "SaturnService":
        if self.service is None:
            raise RuntimeError("fault plan targets serializers but the "
                               "injector has no SaturnService")
        return self.service

    def _do_crash_serializer(self, args: dict) -> None:
        self._need_service().fail_serializer(args["tree"], args.get("epoch"))

    def _do_restart_serializer(self, args: dict) -> None:
        self._need_service().restart_serializer(args["tree"],
                                                args.get("epoch"))

    def _do_crash_replica(self, args: dict) -> None:
        self._need_service().crash_replica(args["tree"], args.get("epoch"))

    def _do_crash_tree(self, args: dict) -> None:
        self._need_service().fail_tree(args.get("epoch"))

    def _do_restart_tree(self, args: dict) -> None:
        self._need_service().restart_tree(args.get("epoch"))

    def _do_isolate(self, args: dict) -> None:
        self.network.isolate(args["process"])

    def _do_rejoin(self, args: dict) -> None:
        self.network.rejoin(args["process"])

    def _do_partition_link(self, args: dict) -> None:
        self.network.partition(args["src"], args["dst"],
                               symmetric=bool(args.get("symmetric", True)))

    def _do_heal_link(self, args: dict) -> None:
        self.network.heal(args["src"], args["dst"],
                          symmetric=bool(args.get("symmetric", True)))

    def _do_delay_spike(self, args: dict) -> None:
        self.network.inject_extra_delay(
            args["src"], args["dst"], float(args["extra"]),
            symmetric=bool(args.get("symmetric", True)))

    def _do_clear_delay(self, args: dict) -> None:
        self.network.inject_extra_delay(
            args["src"], args["dst"], 0.0,
            symmetric=bool(args.get("symmetric", True)))

    def _do_clock_skew(self, args: dict) -> None:
        try:
            clock = self.clocks[args["dc"]]
        except KeyError:
            raise RuntimeError(
                f"fault plan skews the clock of {args['dc']!r} but the "
                f"injector only knows {sorted(self.clocks)}") from None
        clock.skew = float(args["skew"])

    def _do_reconfigure(self, args: dict) -> None:
        if self.manager is None:
            raise RuntimeError("fault plan asks for a reconfiguration but "
                               "the injector has no ReconfigurationManager")
        # the same shape under a fresh epoch: new, live serializers
        self.manager.reconfigure(self.manager.service.topology(),
                                 emergency=bool(args.get("emergency", False)))

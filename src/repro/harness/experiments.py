"""The paper's evaluation as data: one table of experiments, one driver.

Each entry of :data:`EXPERIMENTS` has a name (``saturn-repro run <name>``),
a one-line summary (``saturn-repro list``) and a plan: for a
:class:`~repro.harness.runner.Scale` and the entry's own keyword
parameters, the runs it needs and a fold from their results to a plain
dict of rows/series.  :func:`run_experiment` is the one loop over
:func:`run_once`; DESIGN.md §4 indexes the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.config.objective import pair_weights_from_replication
from repro.config.solver import optimize_delays
from repro.core.tree import TreeTopology
from repro.datacenter.overload import OverloadConfig
# bench/workloads.py imports Scale and run_once from this module; every
# other caller imports them from repro.harness.runner
from repro.harness.runner import (DEFAULT, Cluster, RunResults, Scale,
                                  m_configuration, run_once)
from repro.protocols import protocol_named
from repro.sim.network import LatencyModel
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.facebook import FacebookWorkload
from repro.workloads.streaming import StreamingFacebookWorkload
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "Experiment", "EXPERIMENTS", "run_experiment",
    "FIG5_SYSTEMS", "FIVE_WAY_SYSTEMS", "OVERLOAD_SYSTEMS",
]

#: one planned run: (key, system, workload, run_once keyword arguments; a
#: ``scale=`` among them overrides the experiment's)
Run = Tuple[Any, str, Any, Dict[str, Any]]
Fold = Callable[[Dict[Any, RunResults]], Dict]


@dataclass(frozen=True)
class Experiment:
    """One row of the table: what ``saturn-repro run <name>`` runs."""

    name: str
    summary: str
    #: ``plan(scale, **params)`` -> (the runs in run order, their fold)
    plan: Callable[..., Tuple[List[Run], Fold]]
    #: the fold reads ``RunResults.cluster``; otherwise each run lets go of
    #: its cluster as it ends, so a long sweep holds samples, not clusters
    reads_cluster: bool = False


EXPERIMENTS: Dict[str, Experiment] = {}


def _experiment(name: str, summary: str, reads_cluster: bool = False):
    """Register the decorated plan as experiment *name*."""
    def register(plan):
        EXPERIMENTS[name] = Experiment(name, summary, plan, reads_cluster)
        return plan
    return register


def run_experiment(name: str, scale: Scale = DEFAULT, **params) -> Dict:
    """Run every planned run of experiment *name* and fold the results."""
    experiment = EXPERIMENTS[name]
    runs, fold = experiment.plan(scale, **params)
    results: Dict[Any, RunResults] = {}
    for key, system, workload, kwargs in runs:
        result = run_once(system, workload, **{"scale": scale, **kwargs})
        if not experiment.reads_cluster:
            result.visibility.bind_clock(None)
            result = replace(result, cluster=None)
        results[key] = result
    return fold(results)


# -- shared folds and cells --------------------------------------------------

_throughput = attrgetter("throughput")


def _mean_visibility(result: RunResults) -> float:
    return result.visibility.mean()


def _if_visible(measure: Callable[[Any], float]):
    """A cell: *measure* of the run's visibility recorder, None if empty."""
    def cell(result: RunResults) -> Optional[float]:
        visibility = result.visibility
        return measure(visibility) if visibility.count() else None
    return cell


def _rows(names: Sequence[str], **cells: Callable[[RunResults], Any]) -> Fold:
    """Fold: one row per run — its key spelled out under *names* (a
    non-tuple key is one name), then every cell measured on the run."""
    def fold(results) -> Dict:
        return {"rows": [
            dict(zip(names, key if isinstance(key, tuple) else (key,)),
                 **{cell: measure(result) for cell, measure in cells.items()})
            for key, result in results.items()]}
    return fold


def _versus_eventual(axis: str, cells: Callable[..., Dict]) -> Fold:
    """Fold over ``(point, label)`` runs: one row per sweep point, holding
    ``cells(label, run, eventual run)`` of each of the point's runs."""
    def fold(results) -> Dict:
        rows: Dict[Any, Dict] = {}
        for (point, label), result in results.items():
            row = rows.setdefault(point, {axis: point})
            if label != "eventual":
                row.update(cells(label, result, results[point, "eventual"]))
        return {"rows": list(rows.values())}
    return fold


def _staleness(result: RunResults, eventual: RunResults) -> float:
    """Extra mean visibility latency relative to eventual consistency, %."""
    optimal = eventual.visibility.mean()
    if optimal <= 0:
        return 0.0
    return 100.0 * (result.visibility.mean() - optimal) / optimal


def _cdfs(pairs, labelled: Iterable[Tuple[str, RunResults]]) -> Dict:
    """The pairs, each label's visibility samples per pair (``series``) and
    each label's mean visibility (``means``)."""
    series, means = {}, {}
    for label, result in labelled:
        series[label] = {pair: result.visibility.samples(*pair)
                         for pair in pairs}
        means[label] = result.visibility.mean()
    return {"pairs": list(pairs), "series": series, "means": means}


# -- the table ----------------------------------------------------------------

@_experiment("fig1a", "Fig. 1a: GentleRain/Cure throughput penalty and "
             "staleness vs #datacenters (3->7)")
def _fig1a(scale: Scale):
    def penalty(result: RunResults, eventual: RunResults) -> float:
        if eventual.throughput <= 0:
            return 0.0
        return (100.0 * (result.throughput - eventual.throughput)
                / eventual.throughput)

    runs = []
    for n in range(3, len(EC2_REGIONS) + 1):
        workload = SyntheticWorkload(correlation="full")
        runs += [((n, system), system, workload, dict(sites=EC2_REGIONS[:n]))
                 for system in ("eventual", "gentlerain", "cure")]
    return runs, _versus_eventual("datacenters", lambda label, run, ev: {
        f"{label}_throughput_penalty_pct": penalty(run, ev),
        f"{label}_staleness_overhead_pct": _staleness(run, ev)})


@_experiment("fig1b", "Fig. 1b: GentleRain staleness overhead vs "
             "replication degree (5->2)")
def _fig1b(scale: Scale):
    runs = []
    for degree in (5, 4, 3, 2):
        workload = SyntheticWorkload(correlation="degree", degree=degree)
        runs += [((degree, system), system, workload, {})
                 for system in ("eventual", "gentlerain")]
    return runs, _versus_eventual("replication_degree", lambda label, r, ev: {
        f"{label}_staleness_overhead_pct": _staleness(r, ev),
        "optimal_visibility_ms": ev.visibility.mean(),
        f"{label}_visibility_ms": r.visibility.mean()})


@_experiment("fig4", "Fig. 4: S/M/P-configuration visibility CDFs (I->F, "
             "T->S; 90% reads)")
def _fig4(scale: Scale):
    sites = list(EC2_REGIONS)
    # M-conf weights reflect the exponential correlation, as §5.4 suggests
    weights = pair_weights_from_replication(
        SyntheticWorkload(correlation="exponential", groups_per_dc=6)
        .replication_map(sites, ec2_latency, RngRegistry(seed=scale.seed)))
    workload = SyntheticWorkload(correlation="exponential", read_ratio=0.9,
                                 groups_per_dc=6)
    runs = [
        ("eventual", "eventual", workload, {}),
        ("S-conf", "saturn", workload, dict(
            topology=TreeTopology.star("I", {s: s for s in sites}))),
        ("M-conf", "saturn", workload, dict(
            topology=m_configuration(sites, scale.beam_width, weights))),
        ("P-conf", "saturn-ts", workload, {})]

    def fold(results) -> Dict:
        out = _cdfs([("I", "F"), ("T", "S")], results.items())
        means = out.pop("means")
        baseline = out["series"].pop("eventual")
        for name, per_pair in out["series"].items():
            per_pair["mean_overall"] = means[name]
        return {**out, "baseline": baseline,
                "optimal_mean_overall": means["eventual"]}
    return runs, fold


FIG5_SYSTEMS = ("eventual", "saturn", "gentlerain", "cure")
_FIG5_SWEEPS = {
    "a": ("value_size", [8, 32, 128, 512, 2048]),
    "b": ("read_ratio", [0.50, 0.75, 0.90, 0.99]),
    "c": ("correlation", ["exponential", "proportional", "uniform", "full"]),
    "d": ("remote_read_fraction", [0.0, 0.05, 0.10, 0.20, 0.40]),
}


@_experiment("fig5", "Fig. 5: throughput vs value size / R:W / correlation "
             "/ remote reads")
def _fig5(scale: Scale, panels: Sequence[str] = ("a", "b", "c", "d")):
    runs = []
    for panel in panels:
        parameter, values = _FIG5_SWEEPS[panel]
        for value in values:
            # remote reads block clients on WAN round trips; to keep the
            # cluster CPU-saturated (the paper deploys "as many clients as
            # necessary"), the client pool grows with the remote fraction
            clients = scale.clients_per_dc
            if parameter == "remote_read_fraction" and value > 0:
                clients *= 2 + int(40 * value)
            runs += [((panel, parameter, value, system), system,
                      SyntheticWorkload(**{parameter: value}),
                      dict(clients_per_dc=clients))
                     for system in FIG5_SYSTEMS]
    return runs, _rows(("panel", "parameter", "value", "system"),
                       throughput=_throughput)


@_experiment("fig6", "Fig. 6: extra visibility vs injected NC-O delay, T1 "
             "(Oregon) vs T2 (Ireland) serializer")
def _fig6(scale: Scale,
          injected: Sequence[float] = (0, 25, 50, 75, 100, 125)):
    sites = ["NC", "O", "I"]
    workload = SyntheticWorkload(correlation="full")
    runs = []
    for extra in injected:
        def inject(cluster: Cluster, extra=extra) -> None:
            if extra > 0:
                cluster.network.inject_site_delay("NC", "O", extra)

        runs.append(((extra, "eventual"), "eventual", workload,
                     dict(sites=sites, before_run=inject)))
        runs += [((extra, label), "saturn", workload, dict(
            sites=sites, before_run=inject, topology=TreeTopology.star(
                serializer_site, {s: s for s in sites})))
            for label, serializer_site in (("T1", "O"), ("T2", "I"))]
    return runs, _versus_eventual("injected_delay_ms", lambda label, run, ev: {
        f"{label}_extra_visibility_ms":
            run.visibility.mean() - ev.visibility.mean()})


@_experiment("fig7", "Fig. 7: visibility CDFs vs the state of the art "
             "(I->F best, I->S worst)")
def _fig7(scale: Scale):
    workload = SyntheticWorkload(correlation="full")
    return ([(system, system, workload, {}) for system in FIG5_SYSTEMS],
            lambda results: _cdfs([("I", "F"), ("I", "S")], results.items()))


@_experiment("fig8", "Fig. 8: Facebook benchmark, throughput vs max "
             "replicas (8a) and visibility CDFs (8b)")
def _fig8(scale: Scale, max_replicas_sweep: Sequence[int] = (2, 3, 4, 5),
          cdf_max_replicas: int = 3):
    clients = dict(clients_per_dc=scale.facebook_clients_per_dc)
    def runs(max_replicas: int) -> List[Run]:
        return [((max_replicas, system), system,
                 FacebookWorkload(max_replicas=max_replicas), clients)
                for system in FIG5_SYSTEMS]

    sweep = [run for max_replicas in max_replicas_sweep
             for run in runs(max_replicas)]
    # 8b reads the sweep's runs at cdf_max_replicas when it has them
    cdfs = runs(cdf_max_replicas)

    def fold(results) -> Dict:
        rows = _rows(("max_replicas", "system"), throughput=_throughput)
        return {**rows({key: results[key] for key, *_ in sweep}),
                **_cdfs([("I", "F"), ("I", "T")],
                        ((key[1], results[key]) for key, *_ in cdfs))}
    if cdf_max_replicas in max_replicas_sweep:
        return sweep, fold
    return sweep + cdfs, fold


FIVE_WAY_SYSTEMS = ("saturn", "gentlerain", "cure", "eunomia", "okapi")


@_experiment("five-way", "saturn/gentlerain/cure/eunomia/okapi: visibility "
             "CDFs, metadata bytes per update, throughput", reads_cluster=True)
def _five_way(scale: Scale, sites: Sequence[str] = tuple(EC2_REGIONS),
              pairs=(("I", "F"), ("I", "S"))):
    def metadata_bytes_per_update(result: RunResults) -> float:
        # nominal sizes, counted per protocol (see repro.protocols)
        count, cluster = result.visibility.count(), result.cluster
        return (sum(map(cluster.protocol.metadata_bytes,
                        cluster.datacenters.values())) / count
                if count else 0.0)

    rows = _rows(("system",), throughput=_throughput,
                 ops_completed=attrgetter("ops_completed"),
                 visible_updates=lambda result: result.visibility.count(),
                 mean_visibility_ms=_if_visible(lambda v: v.mean()),
                 p90_visibility_ms=_if_visible(lambda v: v.percentile(90)),
                 metadata_bytes_per_update=metadata_bytes_per_update)
    pairs = [pair for pair in pairs if pair[0] in sites and pair[1] in sites]

    def fold(results) -> Dict:
        cdfs = _cdfs(pairs, results.items())
        return {**rows(results), "pairs": pairs, "series": cdfs["series"]}
    return [(system, system, SyntheticWorkload(correlation="full"),
             dict(sites=sites)) for system in FIVE_WAY_SYSTEMS], fold


OVERLOAD_SYSTEMS = ("saturn", "gentlerain")


@_experiment("overload", "open-loop saturation sweep: offered load vs "
             "goodput and p99 visibility", reads_cluster=True)
def _overload(scale: Scale, systems: Sequence[str] = OVERLOAD_SYSTEMS,
              sites: Sequence[str] = ("I", "F", "T"),
              rates: Sequence[float] = (500.0, 2000.0, 8000.0, 20000.0),
              p99_slo_ms: float = 400.0, goodput_floor: float = 0.95,
              num_users: int = 4000,
              overload_config: Optional[OverloadConfig] = None):
    """Poisson arrivals per datacenter over the streaming social workload
    on a serializer chain; only Saturn runs the backpressure/admission
    chain (a system with no tree ignores the topology and overloads by CPU
    queueing).  Reported: the *max sustainable* offered rate per system,
    the largest at which p99 visibility stays under ``p99_slo_ms`` and at
    least ``goodput_floor`` of offered operations complete — what a closed
    loop, which throttles itself, cannot measure."""
    if overload_config is None:
        overload_config = OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                         serializer_service_rate=2.0)
    runs = []
    for system in systems:
        overload = (overload_config if protocol_named(system).has_tree
                    else None)
        runs += [((system, rate), system, StreamingFacebookWorkload(
            num_users=num_users, min_replicas=2,
            max_replicas=min(3, len(sites))), dict(
                sites=sites, topology=TreeTopology.chain(sites),
                arrivals=PoissonArrivals(rate_ops_s=rate), overload=overload))
            for rate in rates]
    visibility_p99 = _if_visible(lambda v: v.percentile(99))

    def fold(results) -> Dict:
        rows, max_sustainable = [], {}
        for (system, rate), result in results.items():
            sources = result.cluster.sources
            offered = sum(s.offered for s in sources)
            completed = sum(s.completed for s in sources)
            goodput = completed / offered if offered else 0.0
            vis_p99 = visibility_p99(result)
            sustainable = (goodput >= goodput_floor and vis_p99 is not None
                           and vis_p99 <= p99_slo_ms)
            best = max_sustainable.setdefault(system, None)
            if sustainable:
                max_sustainable[system] = (rate if best is None
                                           else max(best, rate))
            rows.append({
                "system": system, "offered_ops_s_per_dc": rate,
                "offered": offered, "completed": completed,
                "rejected": sum(s.rejected for s in sources),
                "goodput": goodput, "throughput": result.throughput,
                "op_p99_ms": result.ops.latency_percentile(
                    99, start=scale.warmup),
                "visibility_p99_ms": vis_p99, "sustainable": sustainable})
        return {"rows": rows, "max_sustainable_ops_s": max_sustainable,
                "p99_slo_ms": p99_slo_ms, "goodput_floor": goodput_floor}
    return runs, fold


@_experiment("reconfiguration", "§6.2: star -> M-configuration epoch "
             "change mid-run (fast path, or failure path)", reads_cluster=True)
def _reconfiguration(scale: Scale, emergency: bool = False):
    sites = list(EC2_REGIONS)
    c2 = m_configuration(sites, scale.beam_width)
    switch_at = scale.warmup + 50.0

    def schedule_switch(cluster: Cluster) -> None:
        def switch() -> None:
            if emergency:
                cluster.service.fail_tree(epoch=0)
            cluster.manager.reconfigure(c2, emergency=emergency)
        cluster.sim.schedule(switch_at, switch)

    def fold(results) -> Dict:
        result = results["switch"]
        manager = result.cluster.manager
        times = manager.reconfiguration_times()
        all_times = [t for per_dc in times.values() for t in per_dc]
        return {"completed": manager.complete(), "per_dc_ms": times,
                "max_ms": max(all_times) if all_times else None,
                "throughput": result.throughput,
                "mean_visibility_ms": result.visibility.mean()}
    # the switch needs runway: C1's longest metadata path is ~260 ms, and
    # the failure path additionally waits for timestamp stabilization
    return [("switch", "saturn", SyntheticWorkload(correlation="full"), dict(
        scale=replace(scale, duration=max(scale.duration, switch_at + 800.0)),
        topology=TreeTopology.star("I", {s: s for s in sites}),
        before_run=schedule_switch))], fold


@_experiment("visibility-under-failure", "serializer-tree crash and "
             "restart: visibility before, during and after recovery",
             reads_cluster=True)
def _failure(scale: Scale):
    """The beacon detectors degrade every datacenter to the timestamp total
    order, the restarted tree's beacons trigger the automatic emergency
    epoch change, and visibility must return to (near) its pre-fault
    level; degraded mode keeps updates flowing, just staler."""
    sites = ["I", "F", "T"]
    crash_at = scale.warmup + 100.0
    restart_at = crash_at + 200.0
    # runway: detection (~150 ms) + recovery beacons crossing the WAN
    # (~300 ms) + the emergency transition's stabilization wait
    duration = max(scale.duration, restart_at + 1200.0)

    def inject(cluster: Cluster) -> None:
        cluster.sim.schedule(
            crash_at, lambda: cluster.service.fail_tree(epoch=0))
        cluster.sim.schedule(
            restart_at, lambda: cluster.service.restart_tree(epoch=0))

    def fold(results) -> Dict:
        result = results["outage"]
        cluster, visibility = result.cluster, result.visibility
        recoveries = cluster.failover.recoveries if cluster.failover else []
        recovered_at = max((t for t, _ in recoveries), default=None)
        post_from = (duration if recovered_at is None
                     else recovered_at + 300.0)
        return {
            "crash_at_ms": crash_at, "restart_at_ms": restart_at,
            "recovered": bool(recoveries),
            "recovery_epochs": [[t, e] for t, e in recoveries],
            "degraded_spans": {name: list(dc.failover.degraded_spans)
                               for name, dc in cluster.datacenters.items()
                               if dc.failover is not None},
            "pre_fault_visibility_ms": visibility.mean_in_window(
                scale.warmup, crash_at),
            "outage_visibility_ms": visibility.mean_in_window(
                crash_at, post_from),
            "post_recovery_visibility_ms": visibility.mean_in_window(
                post_from, duration),
            "throughput": result.throughput}
    return [("outage", "saturn", SyntheticWorkload(correlation="full"), dict(
        scale=replace(scale, duration=duration), sites=sites,
        topology=TreeTopology.star("I", {s: s for s in sites}),
        before_run=inject, beacon_period=25.0, auto_failover=True,
        dc_params=dict(beacon_timeout=100.0, stabilization_wait=50.0)))], fold


@_experiment("ablation-sink-batching", "label-sink batching period: "
             "throughput vs visibility")
def _sink_batching(scale: Scale,
                   periods: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0)):
    workload = SyntheticWorkload(correlation="full")
    return ([(period, "saturn", workload,
              dict(dc_params=dict(sink_batch_period=period)))
             for period in periods],
            _rows(("sink_batch_period_ms",), throughput=_throughput,
                  mean_visibility_ms=_mean_visibility))


@_experiment("ablation-artificial-delays", "§5.4 artificial delays: false "
             "dependencies without and with the solver's delays",
             reads_cluster=True)
def _artificial_delays(scale: Scale):
    """A slow bulk path A-C and a fast metadata path A-B-C: premature label
    delivery at C creates false dependencies that delay B's updates."""
    sites = ["A", "B", "C"]
    model = LatencyModel(local_latency=0.25)
    model.set("A", "B", 10.0)
    model.set("B", "C", 10.0)
    model.set("A", "C", 80.0)  # bulk A->C is slow (not the shortest path)
    base = TreeTopology(
        serializer_sites={"s0": "A", "s1": "B", "s2": "C"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"A": "s0", "B": "s1", "C": "s2"})
    # §5.4 weights: the A<->C and B<->C paths carry the hot data, which
    # steers the solver to delay A's labels (edge s0->s1) rather than B's
    weights = {("A", "C"): 3.0, ("C", "A"): 3.0,
               ("B", "C"): 2.0, ("C", "B"): 2.0,
               ("A", "B"): 1.0, ("B", "A"): 1.0}
    delays = optimize_delays(base, {s: s for s in sites},
                             lambda a, b: 0.0 if a == b else model.get(a, b),
                             weights)
    workload = SyntheticWorkload(correlation="full", read_ratio=0.9)
    runs = [(name, "saturn", workload,
             dict(sites=sites, topology=topology, latency_model=model))
            for name, topology in (("no-delays", base),
                                   ("with-delays", base.with_delays(delays)))]
    return runs, _rows(
        ("config",), delays=lambda result: {
            edge: round(delay, 1) for edge, delay
            in result.cluster.config.saturn_topology.delays.items()},
        visibility_B_to_C_ms=lambda result: result.visibility.mean("B", "C"),
        visibility_A_to_C_ms=lambda result: result.visibility.mean("A", "C"))


@_experiment("ablation-parallel-apply", "§4.3: pipelined remote "
             "application vs a strictly serial remote proxy")
def _parallel_apply(scale: Scale):
    workload = SyntheticWorkload(correlation="full", read_ratio=0.75)
    return ([(parallel, "saturn", workload,
              dict(dc_params=dict(parallel_concurrent_apply=parallel)))
             for parallel in (True, False)],
            _rows(("parallel_apply",), throughput=_throughput,
                  mean_visibility_ms=_mean_visibility))


@_experiment("ablation-genuine-partial", "labels processed per datacenter, "
             "full vs degree-2 partial replication", reads_cluster=True)
def _genuine_partial(scale: Scale):
    def labels(result: RunResults) -> Dict[str, int]:
        return {dc: result.cluster.datacenters[dc].proxy.labels_processed
                for dc in EC2_REGIONS}

    return ([("full", "saturn", SyntheticWorkload(correlation="full"), {}),
             ("degree-2", "saturn",
              SyntheticWorkload(correlation="degree", degree=2), {})],
            _rows(("replication",), labels_processed_per_dc=labels,
                  total_labels=lambda result: sum(labels(result).values()),
                  throughput=_throughput))


@_experiment("explicit-deps", "§7.3.1: COPS dependency-list growth with and "
             "without the prune, degree-2 partial replication",
             reads_cluster=True)
def _explicit_deps(scale: Scale):
    def mean_deps(result: RunResults) -> float:
        sizes = [dc.mean_dep_list_size()
                 for dc in result.cluster.datacenters.values()]
        return sum(sizes) / len(sizes)

    return ([(system, system, SyntheticWorkload(
                read_ratio=0.7, correlation="degree", degree=2), {})
             for system in ("cops", "cops-noprune")],
            _rows(("system",), mean_deps_per_update=mean_deps,
                  throughput=_throughput, mean_visibility_ms=_mean_visibility))

"""One experiment function per table/figure of the paper's evaluation.

Every function takes a :class:`Scale` so the same experiment can run as a
quick smoke (tests), a benchmark (default), or a long high-fidelity run.
Each returns a plain dict of rows/series ready for
:mod:`repro.harness.report` formatting; benchmark files print them as the
paper's tables.

Index (see DESIGN.md §4):

* :func:`fig1a` — throughput vs data-freshness tradeoff, 3→7 datacenters
* :func:`fig1b` — staleness overhead vs replication degree 5→2
* :func:`fig4`  — S/M/P configuration visibility CDFs
* :func:`fig5`  — throughput vs value size / R:W / correlation / remote reads
* :func:`fig6`  — latency-variability injection (T1 vs T2 serializer)
* :func:`fig7`  — visibility CDFs vs the state of the art
* :func:`fig8`  — Facebook benchmark (throughput + visibility)
* :func:`reconfiguration` — §6.2 epoch-change timing (fast + failure path)
* :func:`ablation_sink_batching`, :func:`ablation_artificial_delays`,
  :func:`ablation_parallel_apply`, :func:`ablation_genuine_partial`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.config.objective import pair_weights_from_replication
from repro.config.placement import find_configuration
from repro.core.tree import TreeTopology
from repro.harness.runner import Cluster, ClusterConfig, RunResults
from repro.protocols import protocol_named
from repro.sim.network import LatencyModel
from repro.workloads.facebook import FacebookWorkload
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "Scale", "SMOKE", "DEFAULT",
    "m_configuration", "run_once",
    "fig1a", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig8",
    "five_way", "five_way_smoke_summary", "FIVE_WAY_SYSTEMS",
    "overload", "overload_smoke_summary", "OVERLOAD_SYSTEMS",
    "reconfiguration", "visibility_under_failure",
    "ablation_sink_batching", "ablation_artificial_delays",
    "ablation_parallel_apply", "ablation_genuine_partial",
]


@dataclass(frozen=True)
class Scale:
    """Run sizing: simulated milliseconds and client population."""

    duration: float = 800.0
    warmup: float = 200.0
    clients_per_dc: int = 8
    facebook_clients_per_dc: int = 48
    num_partitions: int = 2
    seed: int = 1
    beam_width: int = 6


SMOKE = Scale(duration=400.0, warmup=100.0, clients_per_dc=4,
              facebook_clients_per_dc=24, beam_width=3)
DEFAULT = Scale()

_mconf_cache: Dict[Tuple, TreeTopology] = {}


def m_configuration(sites: Sequence[str] = tuple(EC2_REGIONS),
                    beam_width: int = 6,
                    weights: Optional[Dict] = None) -> TreeTopology:
    """The paper's M-configuration: Algorithm 3 over the given sites."""
    key = (tuple(sites), beam_width, None if weights is None
           else tuple(sorted(weights.items())))
    if key not in _mconf_cache:
        solved = find_configuration(list(sites), {s: s for s in sites},
                                    ec2_latency, weights=weights,
                                    beam_width=beam_width)
        _mconf_cache[key] = solved.topology
    return _mconf_cache[key]


def run_once(system: str, workload, scale: Scale,
             sites: Sequence[str] = tuple(EC2_REGIONS),
             topology: Optional[TreeTopology] = None,
             clients_per_dc: Optional[int] = None,
             before_run: Optional[Callable[[Cluster], None]] = None,
             **config_overrides) -> RunResults:
    """Build and run one cluster; the workhorse behind every experiment."""
    if topology is None and protocol_named(system).has_tree:
        topology = m_configuration(sites, beam_width=scale.beam_width)
    config = ClusterConfig(
        system=system, sites=tuple(sites),
        num_partitions=scale.num_partitions,
        clients_per_dc=clients_per_dc or scale.clients_per_dc,
        seed=scale.seed, saturn_topology=topology, **config_overrides)
    cluster = Cluster(config, workload)
    if before_run is not None:
        before_run(cluster)
    return cluster.run(duration=scale.duration, warmup=scale.warmup)


def _staleness_overhead(result: RunResults, baseline: RunResults) -> float:
    """Extra mean visibility latency relative to eventual consistency, %."""
    optimal = baseline.visibility.mean()
    if optimal <= 0:
        return 0.0
    return 100.0 * (result.visibility.mean() - optimal) / optimal


def _throughput_penalty(result: RunResults, baseline: RunResults) -> float:
    if baseline.throughput <= 0:
        return 0.0
    return 100.0 * (result.throughput - baseline.throughput) / baseline.throughput


# ---------------------------------------------------------------------------
# Fig. 1 — motivation: the problems of GentleRain and Cure
# ---------------------------------------------------------------------------

def fig1a(scale: Scale = DEFAULT) -> Dict:
    """Throughput penalty and staleness overhead vs number of datacenters
    (full geo-replication), for GentleRain and Cure, vs eventual."""
    rows = []
    for n in range(3, len(EC2_REGIONS) + 1):
        sites = EC2_REGIONS[:n]
        workload = SyntheticWorkload(correlation="full")
        baseline = run_once("eventual", workload, scale, sites=sites)
        entry = {"datacenters": n}
        for system in ("gentlerain", "cure"):
            result = run_once(system, workload, scale, sites=sites)
            entry[f"{system}_throughput_penalty_pct"] = _throughput_penalty(
                result, baseline)
            entry[f"{system}_staleness_overhead_pct"] = _staleness_overhead(
                result, baseline)
        rows.append(entry)
    return {"rows": rows}


def fig1b(scale: Scale = DEFAULT) -> Dict:
    """Staleness overhead vs replication degree (5 -> 2) for GentleRain:
    partial replication does not help a single-scalar GST."""
    rows = []
    sites = list(EC2_REGIONS)
    for degree in (5, 4, 3, 2):
        workload = SyntheticWorkload(correlation="degree", degree=degree)
        baseline = run_once("eventual", workload, scale, sites=sites)
        result = run_once("gentlerain", workload, scale, sites=sites)
        rows.append({
            "replication_degree": degree,
            "gentlerain_staleness_overhead_pct": _staleness_overhead(
                result, baseline),
            "optimal_visibility_ms": baseline.visibility.mean(),
            "gentlerain_visibility_ms": result.visibility.mean(),
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Fig. 4 — Saturn configuration matters (S / M / P)
# ---------------------------------------------------------------------------

def fig4(scale: Scale = DEFAULT) -> Dict:
    """Visibility CDFs under the single-serializer (Ireland), the
    multi-serializer (Algorithm 3), and the peer-to-peer configuration,
    for Ireland->Frankfurt and Tokyo->Sydney (90% reads)."""
    sites = list(EC2_REGIONS)
    workload = SyntheticWorkload(correlation="exponential", read_ratio=0.9,
                                 groups_per_dc=6)
    # weights reflecting the exponential correlation, as §5.4 suggests
    probe = Cluster(ClusterConfig(system="eventual", sites=tuple(sites),
                                  clients_per_dc=1, seed=scale.seed),
                    SyntheticWorkload(correlation="exponential",
                                      groups_per_dc=6))
    weights = pair_weights_from_replication(probe.replication)
    configs = {
        "S-conf": ("saturn", TreeTopology.star("I", {s: s for s in sites})),
        "M-conf": ("saturn", m_configuration(sites, scale.beam_width, weights)),
        "P-conf": ("saturn-ts", None),
    }
    pairs = [("I", "F"), ("T", "S")]
    baseline = run_once("eventual", workload, scale, sites=sites)
    out = {"pairs": pairs, "series": {}, "baseline": {
        pair: baseline.visibility.samples(*pair) for pair in pairs}}
    for name, (system, topology) in configs.items():
        result = run_once(system, workload, scale, sites=sites,
                          topology=topology)
        out["series"][name] = {
            pair: result.visibility.samples(*pair) for pair in pairs}
        out["series"][name]["mean_overall"] = result.visibility.mean()
    out["optimal_mean_overall"] = baseline.visibility.mean()
    return out


# ---------------------------------------------------------------------------
# Fig. 5 — throughput vs workload parameters
# ---------------------------------------------------------------------------

FIG5_SYSTEMS = ("eventual", "saturn", "gentlerain", "cure")


def fig5(scale: Scale = DEFAULT,
         panels: Sequence[str] = ("a", "b", "c", "d")) -> Dict:
    """The dynamic-workload throughput experiments (defaults: 2 B values,
    9:1 reads, exponential correlation, 0% remote reads)."""
    sweeps = {
        "a": ("value_size", [8, 32, 128, 512, 2048]),
        "b": ("read_ratio", [0.50, 0.75, 0.90, 0.99]),
        "c": ("correlation", ["exponential", "proportional", "uniform",
                              "full"]),
        "d": ("remote_read_fraction", [0.0, 0.05, 0.10, 0.20, 0.40]),
    }
    rows = []
    for panel in panels:
        parameter, values = sweeps[panel]
        for value in values:
            workload_kwargs = {parameter: value}
            # remote reads block clients on WAN round trips; to keep the
            # cluster CPU-saturated (the paper deploys "as many clients as
            # necessary"), the client pool grows with the remote fraction
            clients = scale.clients_per_dc
            if parameter == "remote_read_fraction" and value > 0:
                clients = scale.clients_per_dc * (2 + int(40 * value))
            for system in FIG5_SYSTEMS:
                workload = SyntheticWorkload(**workload_kwargs)
                result = run_once(system, workload, scale,
                                  clients_per_dc=clients)
                rows.append({"panel": panel, "parameter": parameter,
                             "value": value, "system": system,
                             "throughput": result.throughput})
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Fig. 6 — impact of latency variability
# ---------------------------------------------------------------------------

def fig6(scale: Scale = DEFAULT,
         injected: Sequence[float] = (0, 25, 50, 75, 100, 125)) -> Dict:
    """Three datacenters (NC, O, I); extra latency injected on the NC-O
    link; single-serializer configurations T1 (Oregon) vs T2 (Ireland);
    reported as extra mean visibility latency vs eventual consistency."""
    sites = ["NC", "O", "I"]
    workload = SyntheticWorkload(correlation="full")
    rows = []
    for extra in injected:
        def inject(cluster: Cluster, extra=extra) -> None:
            if extra > 0:
                cluster.network.inject_site_delay("NC", "O", extra)

        baseline = run_once("eventual", workload, scale, sites=sites,
                            before_run=inject)
        entry = {"injected_delay_ms": extra}
        for name, serializer_site in (("T1", "O"), ("T2", "I")):
            topology = TreeTopology.star(serializer_site,
                                         {s: s for s in sites})
            result = run_once("saturn", workload, scale, sites=sites,
                              topology=topology, before_run=inject)
            entry[f"{name}_extra_visibility_ms"] = (
                result.visibility.mean() - baseline.visibility.mean())
        rows.append(entry)
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Fig. 7 — visibility latencies vs the state of the art
# ---------------------------------------------------------------------------

def fig7(scale: Scale = DEFAULT) -> Dict:
    """Visibility CDFs for Ireland->Frankfurt (best case: no extra tree
    delay) and Ireland->Sydney (worst case: whole-tree traversal)."""
    sites = list(EC2_REGIONS)
    workload = SyntheticWorkload(correlation="full")
    pairs = [("I", "F"), ("I", "S")]
    out = {"pairs": pairs, "series": {}, "means": {}}
    for system in ("eventual", "saturn", "gentlerain", "cure"):
        result = run_once(system, workload, scale, sites=sites)
        out["series"][system] = {
            pair: result.visibility.samples(*pair) for pair in pairs}
        out["means"][system] = result.visibility.mean()
    return out


# ---------------------------------------------------------------------------
# five-way comparison — Fig. 4 / Fig. 6 extended with Eunomia and Okapi
# ---------------------------------------------------------------------------

FIVE_WAY_SYSTEMS = ("saturn", "gentlerain", "cure", "eunomia", "okapi")


def five_way(scale: Scale = DEFAULT,
             sites: Optional[Sequence[str]] = None,
             pairs: Sequence[Tuple[str, str]] = (("I", "F"), ("I", "S"))) -> Dict:
    """Five-way saturn / gentlerain / cure / eunomia / okapi comparison:
    visibility-latency CDFs per pair, metadata bytes-per-update, and
    throughput, on one topology (default: the 7 EC2 regions)."""
    sites = list(sites) if sites is not None else list(EC2_REGIONS)
    pairs = [pair for pair in pairs if pair[0] in sites and pair[1] in sites]
    workload_args = dict(correlation="full")
    rows = []
    series: Dict[str, Dict] = {}
    for system in FIVE_WAY_SYSTEMS:
        result = run_once(system, SyntheticWorkload(**workload_args), scale,
                          sites=sites)
        visibility = result.visibility
        count = visibility.count()
        rows.append({
            "system": system,
            "throughput": result.throughput,
            "ops_completed": result.ops_completed,
            "visible_updates": count,
            "mean_visibility_ms": visibility.mean() if count else None,
            "p90_visibility_ms": visibility.percentile(90) if count else None,
            # nominal sizes, counted per protocol (see repro.protocols)
            "metadata_bytes_per_update": (
                sum(map(result.cluster.protocol.metadata_bytes,
                        result.cluster.datacenters.values())) / count
                if count else 0.0),
        })
        series[system] = {pair: visibility.samples(*pair) for pair in pairs}
    return {"rows": rows, "pairs": pairs, "series": series}


def five_way_smoke_summary() -> Dict:
    """Fixed-shape smoke five-way run for golden pinning and CI.

    Every parameter is pinned here (instead of taking a Scale) so the
    output is a deterministic function of the codebase alone — the JSON
    digest of this dict is committed under ``tests/harness/golden/`` and
    regenerating it must be byte-identical (mirrors ``tests/obs/golden``).
    """
    scale = Scale(duration=400.0, warmup=100.0, clients_per_dc=4,
                  num_partitions=2, seed=11, beam_width=3)
    result = five_way(scale, sites=("I", "F", "T"),
                      pairs=(("I", "F"), ("I", "T")))
    summary = {}
    for row in result["rows"]:
        summary[row["system"]] = {
            "throughput": round(row["throughput"], 6),
            "ops_completed": row["ops_completed"],
            "visible_updates": row["visible_updates"],
            "mean_visibility_ms": (None if row["mean_visibility_ms"] is None
                                   else round(row["mean_visibility_ms"], 6)),
            "p90_visibility_ms": (None if row["p90_visibility_ms"] is None
                                  else round(row["p90_visibility_ms"], 6)),
            "metadata_bytes_per_update": round(
                row["metadata_bytes_per_update"], 6),
        }
    return summary


# ---------------------------------------------------------------------------
# overload study — open-loop saturation sweep (beyond the paper)
# ---------------------------------------------------------------------------

OVERLOAD_SYSTEMS = ("saturn", "gentlerain")


def _overload_topology(sites: Sequence[str]) -> TreeTopology:
    """A serializer chain co-located with the datacenters (worst-case
    metadata path: every label crosses the whole chain)."""
    names = [f"s{site}" for site in sites]
    return TreeTopology(
        serializer_sites={name: site for name, site in zip(names, sites)},
        edges=[(a, b) for a, b in zip(names, names[1:])],
        attachments={site: f"s{site}" for site in sites})


def overload(scale: Scale = DEFAULT,
             systems: Sequence[str] = OVERLOAD_SYSTEMS,
             sites: Sequence[str] = ("I", "F", "T"),
             rates: Sequence[float] = (500.0, 2000.0, 8000.0, 20000.0),
             p99_slo_ms: float = 400.0,
             goodput_floor: float = 0.95,
             num_users: int = 4000,
             overload_config: Optional["OverloadConfig"] = None) -> Dict:
    """Open-loop saturation sweep: offered load vs delivered quality.

    For each system, sweep per-datacenter Poisson arrival rates over the
    streaming social workload and find the *max sustainable* offered rate:
    the largest rate at which p99 remote-update visibility stays under
    ``p99_slo_ms`` **and** at least ``goodput_floor`` of offered
    operations complete (rejections and queue growth both count against
    goodput).  The closed loop cannot measure this — it throttles itself.

    Saturn runs with the bounded-queue/backpressure/admission chain
    (:class:`~repro.datacenter.overload.OverloadConfig`); the baselines
    have no label path, so their overload behaviour is pure CPU queueing.
    """
    from repro.datacenter.overload import OverloadConfig
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.streaming import StreamingFacebookWorkload

    if overload_config is None:
        overload_config = OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                         serializer_service_rate=2.0)
    topology = _overload_topology(sites)
    rows = []
    max_sustainable: Dict[str, Optional[float]] = {}
    for system in systems:
        best: Optional[float] = None
        for rate in rates:
            workload = StreamingFacebookWorkload(num_users=num_users,
                                                 min_replicas=2,
                                                 max_replicas=min(3, len(sites)))
            result = run_once(
                system, workload, scale, sites=sites,
                topology=topology,  # ignored by a system with no tree
                arrivals=PoissonArrivals(rate_ops_s=rate),
                overload=(overload_config
                          if protocol_named(system).has_tree else None))
            cluster = result.cluster
            offered = sum(s.offered for s in cluster.sources)
            completed = sum(s.completed for s in cluster.sources)
            rejected = sum(s.rejected for s in cluster.sources)
            goodput = completed / offered if offered else 0.0
            visibility = result.visibility
            vis_p99 = (visibility.percentile(99) if visibility.count()
                       else None)
            sustainable = (goodput >= goodput_floor
                           and vis_p99 is not None and vis_p99 <= p99_slo_ms)
            if sustainable:
                best = rate if best is None else max(best, rate)
            rows.append({
                "system": system,
                "offered_ops_s_per_dc": rate,
                "offered": offered,
                "completed": completed,
                "rejected": rejected,
                "goodput": goodput,
                "throughput": result.throughput,
                "op_p99_ms": result.ops.latency_percentile(
                    99, start=scale.warmup),
                "visibility_p99_ms": vis_p99,
                "sustainable": sustainable,
            })
        max_sustainable[system] = best
    return {"rows": rows, "max_sustainable_ops_s": max_sustainable,
            "p99_slo_ms": p99_slo_ms, "goodput_floor": goodput_floor}


def overload_smoke_summary() -> Dict:
    """Fixed-shape smoke overload sweep for golden pinning and CI.

    Every parameter is pinned (mirrors :func:`five_way_smoke_summary`):
    the returned dict is a deterministic function of the codebase alone,
    committed as ``tests/harness/golden/overload_smoke.json``.
    """
    scale = Scale(duration=400.0, warmup=100.0, num_partitions=2, seed=11)
    result = overload(scale, systems=("saturn", "gentlerain"),
                      sites=("I", "F", "T"),
                      rates=(500.0, 2000.0, 8000.0),
                      num_users=4000)
    rows = []
    for row in result["rows"]:
        rows.append({
            "system": row["system"],
            "offered_ops_s_per_dc": row["offered_ops_s_per_dc"],
            "offered": row["offered"],
            "completed": row["completed"],
            "rejected": row["rejected"],
            "goodput": round(row["goodput"], 6),
            "throughput": round(row["throughput"], 6),
            "op_p99_ms": round(row["op_p99_ms"], 6),
            "visibility_p99_ms": (None if row["visibility_p99_ms"] is None
                                  else round(row["visibility_p99_ms"], 6)),
            "sustainable": row["sustainable"],
        })
    return {"rows": rows,
            "max_sustainable_ops_s": result["max_sustainable_ops_s"],
            "p99_slo_ms": result["p99_slo_ms"],
            "goodput_floor": result["goodput_floor"]}


# ---------------------------------------------------------------------------
# Fig. 8 — Facebook benchmark
# ---------------------------------------------------------------------------

def fig8(scale: Scale = DEFAULT,
         max_replicas_sweep: Sequence[int] = (2, 3, 4, 5),
         cdf_max_replicas: int = 3) -> Dict:
    """Social-network workload: throughput vs the max number of replicas
    per item (8a) and visibility CDFs for I->F (best) and I->T (worst) (8b).
    """
    sites = list(EC2_REGIONS)
    rows = []
    for max_replicas in max_replicas_sweep:
        for system in FIG5_SYSTEMS:
            workload = FacebookWorkload(max_replicas=max_replicas)
            result = run_once(system, workload, scale, sites=sites,
                              clients_per_dc=scale.facebook_clients_per_dc)
            rows.append({"max_replicas": max_replicas, "system": system,
                         "throughput": result.throughput})
    pairs = [("I", "F"), ("I", "T")]
    series = {}
    means = {}
    for system in FIG5_SYSTEMS:
        workload = FacebookWorkload(max_replicas=cdf_max_replicas)
        result = run_once(system, workload, scale, sites=sites,
                          clients_per_dc=scale.facebook_clients_per_dc)
        series[system] = {pair: result.visibility.samples(*pair)
                          for pair in pairs}
        means[system] = result.visibility.mean()
    return {"rows": rows, "pairs": pairs, "series": series, "means": means}


# ---------------------------------------------------------------------------
# §6.2 — reconfiguration timing
# ---------------------------------------------------------------------------

def reconfiguration(scale: Scale = DEFAULT, emergency: bool = False) -> Dict:
    """Run Saturn, switch the tree mid-run (star -> M-configuration), and
    measure per-datacenter transition times.  With ``emergency=True`` the
    C1 tree is failed first and the failure-path protocol is exercised."""
    sites = list(EC2_REGIONS)
    workload = SyntheticWorkload(correlation="full")
    c1 = TreeTopology.star("I", {s: s for s in sites})
    c2 = m_configuration(sites, scale.beam_width)
    config = ClusterConfig(system="saturn", sites=tuple(sites),
                           clients_per_dc=scale.clients_per_dc,
                           num_partitions=scale.num_partitions,
                           seed=scale.seed, saturn_topology=c1)
    cluster = Cluster(config, workload)
    manager = cluster.manager
    switch_at = scale.warmup + 50.0
    # the switch needs runway: C1's longest metadata path is ~260 ms, and
    # the failure path additionally waits for timestamp stabilization
    duration = max(scale.duration, switch_at + 800.0)

    def switch() -> None:
        if emergency:
            cluster.service.fail_tree(epoch=0)
        manager.reconfigure(c2, emergency=emergency)

    cluster.sim.schedule(switch_at, switch)
    result = cluster.run(duration=duration, warmup=scale.warmup)
    times = manager.reconfiguration_times()
    all_times = [t for per_dc in times.values() for t in per_dc]
    return {
        "completed": manager.complete(),
        "per_dc_ms": times,
        "max_ms": max(all_times) if all_times else None,
        "throughput": result.throughput,
        "mean_visibility_ms": result.visibility.mean(),
    }


# ---------------------------------------------------------------------------
# fault tolerance: visibility through a serializer outage
# ---------------------------------------------------------------------------

def visibility_under_failure(scale: Scale = DEFAULT) -> Dict:
    """Crash the serializer tree mid-run and restart it later: the beacon
    detectors degrade every datacenter to the timestamp total order, the
    restarted tree's beacons trigger the automatic emergency epoch change,
    and remote visibility must return to (near) its pre-fault level.

    Reported: mean visibility in the pre-fault steady state, during the
    outage (degraded mode keeps updates flowing, just staler), and after
    recovery, plus the detector/recovery timeline."""
    sites = ["I", "F", "T"]
    workload = SyntheticWorkload(correlation="full")
    topology = TreeTopology.star("I", {s: s for s in sites})
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

    result = run_once(
        "saturn", workload,
        Scale(duration=duration, warmup=scale.warmup,
              clients_per_dc=scale.clients_per_dc,
              num_partitions=scale.num_partitions, seed=scale.seed,
              beam_width=scale.beam_width),
        sites=sites, topology=topology, before_run=inject,
        beacon_period=25.0, auto_failover=True,
        dc_params=dict(beacon_timeout=100.0, stabilization_wait=50.0,
                       probe_period=50.0))
    cluster = result.cluster
    recoveries = cluster.failover.recoveries if cluster.failover else []
    recovered_at = max((t for t, _ in recoveries), default=None)
    spans = {name: list(dc.failover.degraded_spans)
             for name, dc in cluster.datacenters.items()
             if dc.failover is not None}
    visibility = result.visibility
    post_from = ((recovered_at + 300.0) if recovered_at is not None
                 else duration)
    return {
        "crash_at_ms": crash_at,
        "restart_at_ms": restart_at,
        "recovered": bool(recoveries),
        "recovery_epochs": [[t, e] for t, e in recoveries],
        "degraded_spans": spans,
        "pre_fault_visibility_ms": visibility.mean_in_window(
            scale.warmup, crash_at),
        "outage_visibility_ms": visibility.mean_in_window(
            crash_at, post_from),
        "post_recovery_visibility_ms": visibility.mean_in_window(
            post_from, duration),
        "throughput": result.throughput,
    }


# ---------------------------------------------------------------------------
# ablations (DESIGN.md design-choice benches)
# ---------------------------------------------------------------------------

def ablation_sink_batching(scale: Scale = DEFAULT,
                           periods: Sequence[float] = (0.5, 1.0, 2.0, 5.0,
                                                       10.0)) -> Dict:
    """Label-sink batching period: throughput vs visibility tradeoff."""
    sites = list(EC2_REGIONS)
    workload = SyntheticWorkload(correlation="full")
    rows = []
    for period in periods:
        result = run_once("saturn", workload, scale, sites=sites,
                          dc_params=dict(sink_batch_period=period))
        rows.append({"sink_batch_period_ms": period,
                     "throughput": result.throughput,
                     "mean_visibility_ms": result.visibility.mean()})
    return {"rows": rows}


def ablation_artificial_delays(scale: Scale = DEFAULT) -> Dict:
    """Artificial propagation delays (§5.4): with a slow bulk path A-C and
    a fast metadata path A-B-C, premature label delivery at C creates false
    dependencies that delay B's updates; the solver's δ fixes it."""
    sites = ["A", "B", "C"]
    model = LatencyModel(local_latency=0.25)
    model.set("A", "B", 10.0)
    model.set("B", "C", 10.0)
    model.set("A", "C", 80.0)  # bulk A->C is slow (not the shortest path)

    def latency(a: str, b: str) -> float:
        return 0.0 if a == b else model.get(a, b)

    base = TreeTopology(
        serializer_sites={"s0": "A", "s1": "B", "s2": "C"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"A": "s0", "B": "s1", "C": "s2"})
    # §5.4 weights: the A<->C and B<->C paths carry the hot data, which
    # steers the solver to delay A's labels (edge s0->s1) rather than B's
    from repro.config.solver import optimize_delays
    weights = {("A", "C"): 3.0, ("C", "A"): 3.0,
               ("B", "C"): 2.0, ("C", "B"): 2.0,
               ("A", "B"): 1.0, ("B", "A"): 1.0}
    delays = optimize_delays(base, {s: s for s in sites}, latency, weights)
    tuned = base.with_delays(delays)
    workload = SyntheticWorkload(correlation="full", read_ratio=0.9)
    rows = []
    for name, topology in (("no-delays", base), ("with-delays", tuned)):
        result = run_once("saturn", workload, scale, sites=sites,
                          topology=topology, latency_model=model)
        rows.append({
            "config": name,
            "delays": {k: round(v, 1) for k, v in topology.delays.items()},
            "visibility_B_to_C_ms": result.visibility.mean("B", "C"),
            "visibility_A_to_C_ms": result.visibility.mean("A", "C"),
        })
    return {"rows": rows}


def ablation_parallel_apply(scale: Scale = DEFAULT) -> Dict:
    """§4.3 concurrency optimization: pipelined remote application vs a
    strictly serial remote proxy."""
    sites = list(EC2_REGIONS)
    workload = SyntheticWorkload(correlation="full", read_ratio=0.75)
    rows = []
    for parallel in (True, False):
        result = run_once("saturn", workload, scale, sites=sites,
                          dc_params=dict(parallel_concurrent_apply=parallel))
        rows.append({"parallel_apply": parallel,
                     "throughput": result.throughput,
                     "mean_visibility_ms": result.visibility.mean()})
    return {"rows": rows}


def ablation_genuine_partial(scale: Scale = DEFAULT) -> Dict:
    """Genuine partial replication: labels processed per datacenter under
    full replication vs degree-2 partial replication."""
    sites = list(EC2_REGIONS)
    rows = []
    for name, workload in (
            ("full", SyntheticWorkload(correlation="full")),
            ("degree-2", SyntheticWorkload(correlation="degree", degree=2))):
        result = run_once("saturn", workload, scale, sites=sites)
        cluster = result.cluster
        labels = {dc: cluster.datacenters[dc].proxy.labels_processed
                  for dc in sites}
        rows.append({"replication": name,
                     "labels_processed_per_dc": labels,
                     "total_labels": sum(labels.values()),
                     "throughput": result.throughput})
    return {"rows": rows}

"""Op-stream pins of the social workload, closed and open loop.

PR 10 moved client pacing behind the arrival-model interface
(:mod:`repro.workloads.arrivals`): ``ClusterConfig.arrivals`` defaults to
the closed loop, and the open-loop source is a separate build path.  The
digest below was captured on the pre-refactor code: it hashes the exact
op stream (simulated issue time, client, operation repr) every client of
a pinned Facebook/Saturn cluster draws.  If the refactor — or any later
change to the default path — perturbs one op, one timestamp, or one RNG
draw, the digest moves and this test names the regression.

The open-loop twin hashes the same stream for Poisson arrivals above
saturation on an overloaded chain, the path of the ``overload`` experiment:
clients spawn mid-run, several per user, so it pins every draw of the
generator a spawned client gets.  Its digest was captured on the closure
generator, before each client's generator became one slotted object over
per-user records built once.

The generators read a group's replicas as a ``frozenset`` of datacenter
names, and the digests must not depend on its iteration order: CI runs
this file under two ``PYTHONHASHSEED`` values.

Regenerate (only when a behaviour change is *intended*)::

    PYTHONPATH=src python - <<'PY'
    from tests.workloads.test_facebook_equivalence import (
        closed_loop_digest, open_loop_digest)
    print(closed_loop_digest())
    print(open_loop_digest()[0])
    PY
"""

import hashlib

from repro.core.tree import TreeTopology
from repro.datacenter.overload import OverloadConfig
from repro.harness.runner import Cluster, ClusterConfig
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.facebook import FacebookWorkload

#: sha256 of the op stream on the pre-arrival-model code (see module doc)
CLOSED_LOOP_DIGEST = \
    "d9de289f5bf5487936a10572fbe4819ecd83bd5a442b92bcde15b1a294359f58"
#: sha256 of the open-loop op stream on the closure generator
OPEN_LOOP_DIGEST = \
    "4269e02be94b8b49fa40a7029eaa105526067c6794e8421c60d091cc8b89abc8"


def closed_loop_digest():
    sites = ("I", "F", "T")
    topology = TreeTopology.star("I", {s: s for s in sites})
    config = ClusterConfig(system="saturn", sites=sites, clients_per_dc=4,
                           num_partitions=2, seed=11,
                           saturn_topology=topology)
    workload = FacebookWorkload(num_users=300, attachment=5)
    cluster = Cluster(config, workload)
    stream = hashlib.sha256()
    for client in cluster.clients:
        def wrap(inner, client_id):
            def _record(c):
                op = inner(c)
                stream.update(
                    f"{c.sim.now:.6f}|{client_id}|{op!r}\n".encode())
                return op
            return _record
        client.workload = wrap(client.workload, client.client_id)
    cluster.run(duration=300.0, warmup=50.0)
    return stream.hexdigest()


def open_loop_digest():
    """(digest, clients spawned, users) of 150 ms at 10,000 ops/s/DC on the
    ``overload`` experiment's chain and bounds."""
    sites = ("I", "F", "T")
    names = [f"s{site}" for site in sites]
    topology = TreeTopology(
        serializer_sites=dict(zip(names, sites)),
        edges=list(zip(names, names[1:])),
        attachments={site: f"s{site}" for site in sites})
    config = ClusterConfig(
        system="saturn", sites=sites, num_partitions=2, seed=11,
        saturn_topology=topology,
        arrivals=PoissonArrivals(rate_ops_s=10000.0),
        overload=OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                serializer_service_rate=2.0))
    workload = FacebookWorkload(num_users=300, attachment=5)
    stream = hashlib.sha256()
    make = workload.client_generator

    def client_generator(*args, **kwargs):
        # clients spawn mid-run: wrap each generator as it is made
        inner = make(*args, **kwargs)

        def _record(c):
            op = inner(c)
            stream.update(f"{c.sim.now:.6f}|{c.client_id}|{op!r}\n".encode())
            return op
        return _record

    workload.client_generator = client_generator
    cluster = Cluster(config, workload)
    cluster.run(duration=150.0, warmup=25.0)
    return stream.hexdigest(), len(cluster.clients), workload.num_users


def test_default_arrivals_reproduce_pre_refactor_op_stream():
    assert closed_loop_digest() == CLOSED_LOOP_DIGEST


def test_spawned_clients_reproduce_the_closure_generators_op_stream():
    digest, spawned, users = open_loop_digest()
    # above saturation the pool outgrows the graph: users share records
    assert spawned > 3 * users
    assert digest == OPEN_LOOP_DIGEST

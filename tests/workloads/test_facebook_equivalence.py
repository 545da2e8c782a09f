"""Closed-loop equivalence pin for the arrival-model refactor.

PR 10 moved client pacing behind the arrival-model interface
(:mod:`repro.workloads.arrivals`): ``ClusterConfig.arrivals`` defaults to
the closed loop, and the open-loop source is a separate build path.  The
digest below was captured on the pre-refactor code: it hashes the exact
op stream (simulated issue time, client, operation repr) every client of
a pinned Facebook/Saturn cluster draws.  If the refactor — or any later
change to the default path — perturbs one op, one timestamp, or one RNG
draw, the digest moves and this test names the regression.

Regenerate (only when a behaviour change is *intended*)::

    PYTHONPATH=src python - <<'PY'
    from tests.workloads.test_facebook_equivalence import closed_loop_digest
    print(closed_loop_digest())
    PY
"""

import hashlib

from repro.core.tree import TreeTopology
from repro.harness.runner import Cluster, ClusterConfig
from repro.workloads.facebook import FacebookWorkload

#: sha256 of the op stream on the pre-arrival-model code (see module doc)
CLOSED_LOOP_DIGEST = \
    "d9de289f5bf5487936a10572fbe4819ecd83bd5a442b92bcde15b1a294359f58"


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


def test_default_arrivals_reproduce_pre_refactor_op_stream():
    assert closed_loop_digest() == CLOSED_LOOP_DIGEST

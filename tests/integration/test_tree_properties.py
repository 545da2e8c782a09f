"""Property-based test: on a *random* serializer tree with random causal
update chains, every datacenter receives labels in an order that respects
causality (the paper's footnote-1 lowest-common-ancestor argument)."""

from hypothesis import given, settings, strategies as st

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.messages import LabelBatch
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process


class RecorderDC(Process):
    def __init__(self, sim, dc_name):
        super().__init__(sim, f"dc:{dc_name}")
        self.labels = []

    def receive(self, sender, message):
        if isinstance(message, LabelBatch):
            self.labels.extend(message.labels)


def random_tree(rng, n_dcs):
    """Random serializer tree: one serializer per datacenter site, random
    spanning-tree edges (random Prüfer-ish attachment)."""
    names = [f"s{i}" for i in range(n_dcs)]
    sites = {name: f"site{i}" for i, name in enumerate(names)}
    edges = []
    for i in range(1, n_dcs):
        parent = rng.randrange(i)
        edges.append((names[parent], names[i]))
    attachments = {f"dc{i}": names[i] for i in range(n_dcs)}
    return TreeTopology(serializer_sites=sites, edges=edges,
                        attachments=attachments)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_dcs=st.integers(min_value=2, max_value=6),
       n_chains=st.integers(min_value=1, max_value=4),
       chain_length=st.integers(min_value=2, max_value=5))
def test_random_trees_deliver_causal_chains_in_order(seed, n_dcs, n_chains,
                                                     chain_length):
    import random as random_module
    rng = random_module.Random(seed)
    sim = Simulator()
    model = LatencyModel(local_latency=0.25)
    site_names = [f"site{i}" for i in range(n_dcs)]
    for i, a in enumerate(site_names):
        for b in site_names[i + 1:]:
            model.set(a, b, rng.uniform(1.0, 120.0))
    network = Network(sim, latency_model=model)
    dcs = [f"dc{i}" for i in range(n_dcs)]
    replication = ReplicationMap(dcs)
    topology = random_tree(rng, n_dcs)
    service = SaturnService(sim, network, replication)
    service.install_tree(topology, epoch=0)
    recorders = {}
    for i, dc in enumerate(dcs):
        recorder = RecorderDC(sim, dc)
        recorder.attach_network(network)
        network.place(recorder.name, f"site{i}")
        recorders[dc] = recorder

    # build causal chains: each next update is issued at the datacenter
    # where the previous one became visible (simulating a roaming client)
    chains = []
    ts = 0.0
    for c in range(n_chains):
        chain = []
        origin = rng.choice(dcs)
        for k in range(chain_length):
            ts += 1.0
            label = Label(LabelType.UPDATE, src=f"{origin}/g0", ts=ts,
                          target=f"chain{c}", origin_dc=origin)
            chain.append(label)
            origin = rng.choice(dcs)
        chains.append(chain)

    # inject each chain link only after the previous one has reached the
    # issuing datacenter (causality: read-then-write)
    def inject(label, when):
        ingress = service.ingress_process(label.origin_dc, 0)
        sim.schedule_at(when, lambda: network.send(
            f"dc:{label.origin_dc}", ingress, LabelBatch((label,), epoch=0)))

    # conservative: stagger chain links far enough apart that the previous
    # link has propagated everywhere (upper bound on any path: 6*120ms)
    spacing = 1000.0
    for chain in chains:
        for k, label in enumerate(chain):
            inject(label, when=1.0 + k * spacing)
    sim.run()

    for dc, recorder in recorders.items():
        seen = [l for l in recorder.labels if l.type is LabelType.UPDATE]
        for chain in chains:
            expected = [l for l in chain if l.origin_dc != dc]
            positions = [seen.index(l) for l in expected if l in seen]
            assert positions == sorted(positions), (
                f"causal chain delivered out of order at {dc}")

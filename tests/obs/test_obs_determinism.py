"""Golden-trace determinism: double runs export bit-identically, and
attaching the tracer never perturbs the execution it observes."""

from repro.analysis.mc.scenario import build_chain3, build_scenario
from repro.obs import attach_tracer


def _traced_run(build):
    scenario = build()
    hub = attach_tracer(scenario)
    scenario.run()
    return scenario, hub


def test_chain3_double_run_is_bit_identical():
    first_scenario, first = _traced_run(lambda: build_scenario("chain3"))
    second_scenario, second = _traced_run(lambda: build_scenario("chain3"))
    assert first.tracer.num_chains() > 0
    assert first.export_jsonl() == second.export_jsonl()
    assert first.digest() == second.digest()
    # the delivery-trace digest (the mc oracle view) agrees too
    assert first_scenario.digest() == second_scenario.digest()


def test_fault_scenario_double_run_is_bit_identical():
    build = lambda: build_scenario("serializer-crash")  # noqa: E731
    _, first = _traced_run(build)
    _, second = _traced_run(build)
    # the crash arc exercises park/replay annotations and ts-drain chains
    kinds = {a.kind for a in first.tracer.annotations}
    assert "failover" in kinds
    assert first.export_jsonl() == second.export_jsonl()
    assert first.digest() == second.digest()


def test_chrome_export_is_deterministic():
    _, first = _traced_run(lambda: build_scenario("chain3"))
    _, second = _traced_run(lambda: build_scenario("chain3"))
    assert first.export_chrome() == second.export_chrome()


def test_tracer_is_transparent_to_the_traced_execution():
    """Same seed, with and without obs: the HazardMonitor must record the
    identical delivery trace — observation cannot change the simulation."""
    untraced = build_chain3("plain", horizon=60.0)
    untraced.run()

    traced = build_chain3("plain", horizon=60.0)
    hub = attach_tracer(traced)
    traced.run()

    assert hub.tracer.num_chains() > 0
    assert traced.digest() == untraced.digest()
    assert traced.sim.events_executed == untraced.sim.events_executed

"""Unit tests for the server CPU queue and the cost model."""

import pytest

from repro.sim.cpu import CostModel, ServerCPU


def test_single_op_completes_after_cost(sim):
    cpu = ServerCPU(sim)
    done = []
    cpu.submit(2.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [2.0]


def test_ops_serialize_on_one_cpu(sim):
    cpu = ServerCPU(sim)
    done = []
    cpu.submit(2.0, lambda: done.append(sim.now))
    cpu.submit(3.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [2.0, 5.0]


def test_submit_after_idle_starts_at_now(sim):
    cpu = ServerCPU(sim)
    done = []
    cpu.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    sim.schedule(9.0, lambda: cpu.submit(1.0, lambda: done.append(sim.now)))
    sim.run()
    assert done == [1.0, 11.0]


def test_negative_cost_rejected(sim):
    cpu = ServerCPU(sim)
    with pytest.raises(ValueError):
        cpu.submit(-0.1, lambda: None)


def test_consume_blocks_later_work(sim):
    cpu = ServerCPU(sim)
    cpu.consume(5.0)
    done = []
    cpu.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [6.0]


def test_consume_zero_is_noop(sim):
    cpu = ServerCPU(sim)
    cpu.consume(0.0)
    assert cpu.busy_time == 0.0


def test_ops_counter(sim):
    cpu = ServerCPU(sim)
    cpu.submit(1.0, lambda: None)
    cpu.submit(1.0, lambda: None)
    assert cpu.ops_executed == 2


# -- cost model ---------------------------------------------------------------

def test_scalar_costs_cheaper_than_vector():
    model = CostModel()
    assert model.read_cost(2) < model.read_cost(2, vector_entries=7)
    assert model.write_cost(2) < model.write_cost(2, vector_entries=7)


def test_costs_grow_with_value_size():
    model = CostModel()
    assert model.write_cost(2048) > model.write_cost(8)
    expected = model.per_byte * (2048 - 8)
    assert model.write_cost(2048) - model.write_cost(8) == pytest.approx(expected)


def test_stabilization_cost_scales_with_partners():
    model = CostModel()
    assert model.stabilization_cost(6) == pytest.approx(
        6 * model.stabilization_per_partner)
    assert (model.stabilization_cost(6, vector_entries=7)
            > model.stabilization_cost(6))


def test_vector_cost_scales_with_entries():
    model = CostModel()
    delta = (model.read_cost(0, vector_entries=8)
             - model.read_cost(0, vector_entries=4))
    assert delta == pytest.approx(4 * model.vector_entry_metadata)

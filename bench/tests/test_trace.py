"""Span arithmetic and wrapper hygiene of bench/trace.py."""

import asyncio.events

from bench.trace import Recorder, instrument, layer_self_s


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_nested_self_times_sum_to_the_root():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf() -> None:
        clock.advance(5)

    def middle() -> None:
        clock.advance(2)
        wrapped_leaf()
        clock.advance(3)
        wrapped_leaf()

    def root() -> None:
        clock.advance(1)
        wrapped_middle()
        clock.advance(4)

    wrapped_leaf = recorder.span(leaf, "c.leaf", "c")
    wrapped_middle = recorder.span(middle, "b.middle", "b")
    recorder.span(root, "a.root", "a")()

    assert recorder.totals["a.root"] == ["a", 1, 20, 5]
    assert recorder.totals["b.middle"] == ["b", 1, 15, 5]
    assert recorder.totals["c.leaf"] == ["c", 2, 10, 10]
    layers = layer_self_s(recorder.totals)
    assert sum(layers.values()) * 1e9 == recorder.totals["a.root"][2]
    # a nested span is caused by its parent
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["b.middle"][5] == by_name["a.root"][0]
    assert by_name["a.root"][5] is None


def test_deferred_callback_runs_in_the_scheduling_layer():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    queue = []

    class Scheduler:
        def schedule(self, when, callback):
            clock.advance(1)
            queue.append(callback)

    Scheduler.schedule = recorder.scheduling_span(
        Scheduler.schedule, "kernel.schedule", "kernel")
    scheduler = Scheduler()

    def work() -> None:
        clock.advance(7)

    def handler() -> None:
        clock.advance(2)
        scheduler.schedule(0.0, work)

    def run() -> None:
        recorder.span(handler, "app.handler", "app")()
        while queue:
            queue.pop(0)()

    recorder.span(run, "kernel.run", "kernel")()

    # the deferred work is the app's, not the kernel's, and is caused by
    # the handler that scheduled it
    assert recorder.totals["app.callback"] == ["app", 1, 7, 7]
    layers = layer_self_s(recorder.totals)
    assert layers["app"] * 1e9 == 9
    assert layers["kernel"] * 1e9 == 1
    assert sum(layers.values()) * 1e9 == recorder.totals["kernel.run"][2]
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["app.callback"][5] == by_name["app.handler"][0]

    # scheduled from outside any span: the scheduler's own layer
    scheduler.schedule(0.0, work)
    queue.pop()()
    assert recorder.totals["kernel.callback"][1] == 1


def test_reset_restarts_open_spans():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def outer() -> None:
        clock.advance(100)
        recorder.reset()
        clock.advance(3)

    recorder.span(outer, "a.outer", "a")()
    assert recorder.totals["a.outer"] == ["a", 1, 3, 3]


def test_wrappers_are_fully_restored():
    from repro.net import codec
    from repro.sim.engine import Simulator
    from repro.workloads.synthetic import SyntheticWorkload

    watched = [(Simulator, "run"), (Simulator, "schedule"),
               (codec, "encode_frame"),
               (SyntheticWorkload, "client_generator"),
               (asyncio.events.Handle, "_run")]
    before = [getattr(owner, attr) for owner, attr in watched]
    restore = instrument(Recorder())
    during = [getattr(owner, attr) for owner, attr in watched]
    assert all(b is not d for b, d in zip(before, during))
    restore()
    after = [getattr(owner, attr) for owner, attr in watched]
    assert all(b is a for b, a in zip(before, after))
    # and no function defined in bench.trace is left anywhere under repro
    import sys
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        owners = [module, *(value for value in vars(module).values()
                            if isinstance(value, type))]
        for owner in owners:
            for attr, value in vars(owner).items():
                assert getattr(value, "__module__", None) != "bench.trace", \
                    (owner, attr)

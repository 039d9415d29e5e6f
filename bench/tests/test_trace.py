import numpy as np
import pytest

from bench.trace import Tracer, layer_of
from repro.data.loader import DataLoader
from repro.obs.registry import MetricsRegistry
from repro.sdl.description import ScenarioDescription
from repro.sdl.codec import LabelCodec


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _run(tracer, clock, name, start, end, children=()):
    clock.now = start
    frame = tracer.enter(name)
    for child in children:
        _run(tracer, clock, *child)
    clock.now = end
    tracer.exit(frame)


def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock, registry=MetricsRegistry())
    tracer.active = True
    # outer [0, 10] holds siblings a [1, 4] and b [5, 9]; a holds c [2, 3].
    _run(tracer, clock, "outer", 0.0, 10.0, [
        ("a", 1.0, 4.0, [("c", 2.0, 3.0)]),
        ("b", 5.0, 9.0),
    ])
    self_of = {span[2]: span[5] for span in tracer.spans}
    assert self_of == {"outer": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}
    parents = {span[2]: span[1] for span in tracer.spans}
    ids = {span[2]: span[0] for span in tracer.spans}
    assert parents == {"outer": 0, "a": ids["outer"], "b": ids["outer"],
                       "c": ids["a"]}
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1.0, "incl_s": 10.0, "self_s": 3.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_install_wraps_and_uninstall_restores():
    originals = (LabelCodec.decode_batch,
                 ScenarioDescription.__dict__["from_dict"],
                 DataLoader.__iter__)
    tracer = Tracer(registry=MetricsRegistry())
    with tracer:
        assert LabelCodec.decode_batch is not originals[0]
        desc = ScenarioDescription.from_dict(
            {"scene": "intersection", "ego_action": "stop"})
        assert tracer.spans == []  # inactive: nothing recorded
        tracer.active = True
        tracer.set_op("op-1")
        assert ScenarioDescription.from_dict(desc.to_dict()) == desc
        assert tracer.spans[-1][2] == "sdl.from_dict"
        assert tracer.spans[-1][8] == "op-1"
    assert LabelCodec.decode_batch is originals[0]
    assert ScenarioDescription.__dict__["from_dict"] is originals[1]
    assert DataLoader.__iter__ is originals[2]


def test_iterator_spans_time_each_batch():
    from repro.data import SynthDriveConfig, generate_dataset

    data = generate_dataset(SynthDriveConfig(num_clips=6, frames=4))
    tracer = Tracer(registry=MetricsRegistry())
    with tracer:
        tracer.active = True
        batches = list(DataLoader(data, batch_size=4, shuffle=False))
    assert [b["video"].shape[0] for b in batches] == [4, 2]
    assert tracer.totals()["data.batch"]["calls"] == 2.0


def test_layer_of():
    assert layer_of("nn.attention.temporal") == "nn"
    assert layer_of("fleet.query") == "fleet"


def test_items_count_model_rows():
    from repro.autograd.tensor import Tensor
    from repro.models import ModelConfig, build_model

    model = build_model("vt-divided", ModelConfig(frames=4, dim=16,
                                                  num_heads=2))
    tracer = Tracer(registry=MetricsRegistry())
    with tracer:
        tracer.active = True
        model(Tensor(np.zeros((3, 4, 3, 32, 32), dtype=np.float32)))
    assert tracer.items() == 3.0
    totals = tracer.totals()
    assert totals["nn.model"]["calls"] == 1.0
    assert {"nn.attention.temporal", "nn.attention.spatial", "nn.mlp",
            "nn.norm", "nn.patch_embed", "nn.head"} <= set(totals)
    covered = sum(t["self_s"] for t in totals.values())
    assert covered == pytest.approx(totals["nn.model"]["incl_s"])

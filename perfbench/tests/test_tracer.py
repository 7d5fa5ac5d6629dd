"""Self-test of the span recorder on a tiny call sequence with a known tree.

Run with ``python3 -m pytest perfbench/tests``.
"""

import itertools
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402


def make_package():
    """fakepkg.core defines the functions; fakepkg.front holds copies."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "def leaf():\n    return 1\n"
        "def inner():\n    return leaf() + leaf()\n"
        "def boom():\n    raise ValueError('boom')\n"
        "def _private():\n    return 0\n",
        core.__dict__,
    )
    front = types.ModuleType("fakepkg.front")
    front.__dict__.update(inner=core.inner, boom=core.boom, REGISTRY=(core.leaf, core.boom))
    exec(
        "def top():\n"
        "    total = inner()\n"
        "    try:\n        boom()\n    except ValueError:\n        pass\n"
        "    return total\n",
        front.__dict__,
    )
    package = types.ModuleType("fakepkg")
    modules = {"fakepkg": package, "fakepkg.core": core, "fakepkg.front": front}
    return modules, core, front


def traced_run():
    modules, core, front = make_package()
    sys.modules.update(modules)
    try:
        ticks = itertools.count(0, 10)
        recorder = tracer.Recorder(clock=lambda: next(ticks))
        restore = tracer.instrument(recorder, "fakepkg")
        recorder.run_id = 7
        assert front.top() == 2
        return recorder, restore, core, front
    finally:
        for name in modules:
            del sys.modules[name]


def test_span_tree_is_recorded_through_copies():
    recorder, _, _, _ = traced_run()
    spans = recorder.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert names == ["front.top", "core.inner", "core.leaf", "core.leaf", "core.boom"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1, 0]
    assert spans["run"].tolist() == [7] * 5
    assert spans["error"].tolist() == [0, 0, 0, 0, 1]
    # Clock reads step by 10 in call order: top 0..90, inner 10..60,
    # leaves 20..30 and 40..50, boom 70..80.
    assert spans["start"].tolist() == [0, 10, 20, 40, 70]
    assert spans["end"].tolist() == [90, 60, 30, 50, 80]


def test_rollup_self_times_sum_to_the_root():
    recorder, _, _, _ = traced_run()
    stats = tracer.rollup(recorder.spans())
    ns = {name: round(s["self_s"] * 1e9) for name, s in stats.items()}
    assert ns == {"front.top": 30, "core.inner": 30, "core.leaf": 20, "core.boom": 10}
    assert stats["core.leaf"]["calls"] == 2
    assert stats["core.boom"]["errors"] == 1
    assert stats["front.top"]["errors"] == 0
    assert round(stats["front.top"]["total_s"] * 1e9) == sum(ns.values())


def test_registry_tuples_are_wrapped_and_restored():
    _, restore, core, front = traced_run()
    original_leaf = front.REGISTRY[0].__wrapped__
    assert core.leaf.__wrapped__ is original_leaf
    restore()
    assert core.leaf is original_leaf
    assert front.REGISTRY == (original_leaf, core.boom)
    assert front.inner is core.inner
    assert not hasattr(core.inner, "__wrapped__")


def test_parent_share_and_save_load(tmp_path):
    recorder, _, _, _ = traced_run()
    spans = recorder.spans()
    assert tracer.parent_share(spans, "core.leaf", {"core.inner"}) == 1.0
    assert tracer.parent_share(spans, "core.inner", {"core.inner"}) == 0.0
    path = str(tmp_path / "spans.npz")
    recorder.counts["x"] = 3
    recorder.save(path)
    loaded = tracer.load(path)
    assert loaded["names"] == spans["names"]
    assert loaded["counts"] == {"x": 3}
    assert loaded["end"].tolist() == spans["end"].tolist()

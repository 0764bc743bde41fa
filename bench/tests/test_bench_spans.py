"""The span recorder: self time on a hand-built nest, and the wrappers."""
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanRecorder, counted, spanned, summarise, wrap_attr  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_a_hand_built_nest():
    # outer [0, 10] holds inner [1, 4] (which holds leaf [2, 3]) and inner [5, 6]
    rec = SpanRecorder(clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = rec.open("outer")
    a = rec.open("inner")
    leaf = rec.open("leaf")
    rec.close(leaf)
    rec.close(a)
    b = rec.open("inner")
    rec.close(b)
    rec.close(outer)
    got = rec.summary()
    assert got["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert got["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert got["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_summarise_sums_self_times_to_the_root_duration():
    names = ["root", "a", "b"]
    name_id = np.array([0, 1, 2, 1, 2])
    parent = np.array([-1, 0, 1, 0, 3])
    start = np.array([0.0, 0.5, 1.0, 3.0, 3.5])
    end = np.array([5.0, 2.5, 2.0, 4.5, 4.0])
    got = summarise(names, name_id, parent, start, end)
    assert got["root"]["self_s"] == pytest.approx(1.5)
    assert got["a"]["self_s"] == pytest.approx(2.0)
    assert got["b"]["self_s"] == pytest.approx(1.5)
    assert sum(v["self_s"] for v in got.values()) == pytest.approx(5.0)


def test_spanned_closes_the_span_when_the_call_raises():
    rec = SpanRecorder(clock=scripted_clock([0.0, 1.0, 2.0, 4.0]))

    def boom():
        raise ValueError("no")

    outer = rec.open("outer")
    with pytest.raises(ValueError):
        spanned(rec, boom, "boom")()
    rec.close(outer)
    got = rec.summary()
    assert got["boom"]["total_s"] == 1.0
    assert got["outer"]["self_s"] == 3.0


def test_spanned_names_each_call_and_sees_results():
    rec = SpanRecorder()
    seen = []
    f = spanned(rec, lambda x, jac=False: x + 1, "f",
                on_call=lambda a, k: "f.jac" if k.get("jac") else None,
                on_return=seen.append)
    assert f(1) == 2 and f(2, jac=True) == 3
    assert seen == [2, 3]
    got = rec.summary()
    assert got["f"]["calls"] == 1 and got["f.jac"]["calls"] == 1


def test_wrap_attr_replaces_aliases_and_reports_absent_names():
    rec = SpanRecorder()

    def g():
        return 7

    home, user, other = (types.SimpleNamespace(g=g), types.SimpleNamespace(g=g),
                         types.SimpleNamespace(g=lambda: 0))
    assert wrap_attr([home, user, other], "g", lambda f: counted(rec, f, "g"))
    assert home.g is user.g and home.g() == 7 and user.g() == 7
    assert other.g() == 0  # a different function under the same name is left
    assert rec.counts == {"g": 2}
    assert not wrap_attr([types.SimpleNamespace()], "g", lambda f: f)

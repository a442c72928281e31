"""``manifest.span``, petseg's one clock: nesting, raising blocks, threads."""

import ast
import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import petseg
from petseg.manifest import span, span_tree


def names(record):
    return record["name"], [names(child) for child in record["spans"]]


def test_spans_nest():
    with span("outer") as outer:
        with span("a"):
            with span("a1"):
                pass
        with span("b"):
            pass
    assert names(outer) == ("outer", [("a", [("a1", [])]), ("b", [])])
    a = outer["spans"][0]
    assert 0 <= a["spans"][0]["s"] <= a["s"] <= outer["s"]


def test_a_raising_block_closes_its_span_and_restores_the_parent():
    with span("outer") as outer:
        with pytest.raises(ValueError):
            with span("fails") as failed:
                raise ValueError("boom")
        assert failed["s"] > 0
        with span("after"):
            pass
    assert names(outer) == ("outer", [("fails", []), ("after", [])])
    assert span_tree() == {}


def test_span_tree_reads_open_spans_so_far():
    assert span_tree() == {}
    with span("root") as root:
        with span("inner") as inner:
            tree = span_tree()
            assert tree is root and root["s"] > 0 and inner["s"] > 0
        closed = inner["s"]
    assert inner["s"] == closed and root["s"] >= closed


def test_a_queued_task_nests_under_the_span_that_queued_it():
    def task():
        with span("task"):
            pass

    with ThreadPoolExecutor(max_workers=1) as pool:
        with span("queued") as queued:
            pool.submit(contextvars.copy_context().run, task).result(timeout=10)
        with span("other") as other:
            pass
    assert names(queued) == ("queued", [("task", [])])
    assert names(other) == ("other", [])


def test_spans_on_two_workers_are_siblings():
    both_open = threading.Barrier(2, timeout=10)

    def task(name):
        with span(name):
            both_open.wait()  # each span is open while the other worker opens its own

    with ThreadPoolExecutor(max_workers=2) as pool:
        with span("ensemble") as ensemble:
            futures = [pool.submit(contextvars.copy_context().run, task, name) for name in ("w0", "w1")]
            for future in futures:
                future.result(timeout=10)
    assert sorted(names(ensemble)[1]) == [("w0", []), ("w1", [])]


def test_many_workers_lose_no_span():
    # more workers than cores, switching threads as often as the interpreter can
    def task(i):
        for k in range(50):
            with span(f"{i}.{k}"):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            with span("parent") as parent:
                futures = [pool.submit(contextvars.copy_context().run, task, i) for i in range(8)]
                for future in futures:
                    future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(names(parent)[1]) == sorted((f"{i}.{k}", []) for i in range(8) for k in range(50))


def test_perf_counter_is_called_only_in_span():
    """Every wall time petseg reports comes from the one clock call in
    ``manifest.span``."""
    found = []
    for path in sorted(Path(petseg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name == "perf_counter" or isinstance(node, ast.alias) and node.name == "perf_counter":
                    found.append((path.name, getattr(top, "name", None), node.lineno))
    assert len(found) == 1 and found[0][:2] == ("manifest.py", "span"), found

"""The benchmark under ``perfbench/`` binds to peerkd by name; a rename must fail here.

``perfbench/tracing.py`` patches functions and methods by attribute name, and
``perfbench/workload.py`` calls ``trainer``, ``data`` and ``checkpoint``
functions directly. Both are checked without running the benchmark.
"""

import ast
import importlib.util
import pathlib

import pytest

from peerkd import checkpoint, data, trainer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("home,attr", [(home, attr) for home, attr, _ in tracing.FUNCTIONS],
                         ids=[span for _, _, span in tracing.FUNCTIONS])
def test_traced_function_resolves(home, attr):
    assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr}"


@pytest.mark.parametrize("cls,attr", [(cls, attr) for cls, attr, _ in tracing.METHODS],
                         ids=[span for _, _, span in tracing.METHODS])
def test_traced_method_resolves(cls, attr):
    assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"


def _workload_calls():
    """(module name, attribute) for every ``trainer.x``/``data.x``/``checkpoint.x`` use."""
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in ("trainer", "data", "checkpoint")})


def test_workload_finds_its_calls():
    assert ("trainer", "train_step") in _workload_calls()


@pytest.mark.parametrize("name,attr", _workload_calls(),
                         ids=[f"{n}.{a}" for n, a in _workload_calls()])
def test_workload_binding_exists(name, attr):
    module = {"trainer": trainer, "data": data, "checkpoint": checkpoint}[name]
    assert hasattr(module, attr), f"perfbench/workload.py uses missing {name}.{attr}"

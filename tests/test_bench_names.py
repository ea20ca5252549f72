"""Every qplab name the benchmark harness reaches exists.

``perfbench/`` calls qplab and, when tracing, patches its functions from
outside, so a name that leaves ``src`` would otherwise show only when a
benchmark run crashed.  These checks read the harness's source with
``ast`` and never import it, so no tracer is installed in this process.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import qplab

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(), filename=name)


def _dotted(node) -> str | None:
    """``"a.b.c"`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _resolve(dotted: str):
    """The object a dotted qplab path names; raises when a part is missing."""
    parts = dotted.split(".")
    obj = qplab
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _assigned(tree: ast.Module, name: str):
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)]
    return value


def _workload_uses() -> list:
    """(dotted path, call node or None) for each qplab reference."""
    tree = _tree("workloads.py")
    uses = []
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        path = _dotted(node) if isinstance(node, ast.Attribute) else None
        if path and path.startswith("qplab."):
            uses.append((path, calls.get(id(node))))
        if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "qplab"):
            uses += [(f"{node.module}.{alias.name}", None)
                     for alias in node.names]
    return uses


def test_workload_names_exist():
    for path, call in _workload_uses():
        obj = _resolve(path)
        if call is None or any(isinstance(a, ast.Starred)
                               for a in call.args) \
                or any(kw.arg is None for kw in call.keywords):
            continue
        # the call's arity and keyword names must still fit the signature
        inspect.signature(obj).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_tracer_spans_exist():
    spans = _assigned(_tree("tracer.py"), "SPANS")
    assert spans.keys
    for value in spans.values:
        home, attrs = value.elts
        module = _resolve(_dotted(home))
        for attr in attrs.elts:
            assert callable(getattr(module, attr.value)), attr.value


def test_tracer_lu_modules_and_result_fields_exist():
    lu_modules = _assigned(_tree("tracer.py"), "LU_MODULES")
    assert lu_modules.values
    for value in lu_modules.values:
        assert callable(_resolve(_dotted(value)).lu_factor)
    # the tracer's result hooks read these off the returned reports
    for cls, attr in ((qplab.GreenMomentBound, "solves"),
                      (qplab.GreenMomentBound, "budget_hit"),
                      (qplab.TimeAvgMoment, "nodes_used")):
        assert hasattr(cls, attr), f"{cls.__name__}.{attr}"
    fields = {f.name for f in dataclasses.fields(qplab.ThetaStep)}
    assert {"roots", "newton_iters"} <= fields


def test_block_family_attributes_exist():
    """The blocks workload reads these off ``construct_blocks``'s families,
    which it names ``fam``, ``fam1`` and ``fam2``."""
    read = {node.attr for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("fam", "fam1", "fam2")}
    assert {"centers2", "cores", "enlarged", "radii", "realized_pad",
            "template2", "center_keys"} <= read
    fields = {f.name for f in dataclasses.fields(qplab.BlockFamily)}
    for attr in read:
        assert attr in fields or callable(
            getattr(qplab.BlockFamily, attr, None)), f"BlockFamily.{attr}"

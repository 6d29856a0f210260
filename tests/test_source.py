"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parent.parent / "src" / "tabtune"

#: No package code, export or acceptance test uses these three; they stay
#: only because perfbench/traced.py patches them by name. ROADMAP items 2
#: (the tracer stops patching them) and 5 (they are deleted) remove them.
_PATCHED_BY_PERFBENCH = ("grid_search", "random_search", "evaluate_baseline")

#: numpy functions whose last bits depend on the host CPU: its exp and log
#: families, whose code numpy picks by SIMD level, and its products, whose
#: BLAS kernels OpenBLAS picks by core.
_CPU_KERNELS = {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
                "dot", "matmul", "einsum"}


def test_every_function_and_class_in_the_package_is_referenced_in_it():
    # a name counts as used when the package reads it as a name or an
    # attribute; an import or an ``__all__`` string is no use of it, and
    # dunder methods and ``main`` are called from outside the package
    defined, used = {}, set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.relative_to(SOURCE)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50  # the scan saw the package
    unused = {name: where for name, where in defined.items()
              if name not in used and name != "main" and name not in _PATCHED_BY_PERFBENCH
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined in src/tabtune but never referenced there: {unused}"


def test_only_the_classifiers_package_reads_the_budget_and_free_axes():
    # which fit serves which config is decided in classifiers/__init__.py
    # alone (``fit_groups`` and ``train``): no other module reads the family
    # table's ``budgets`` or ``free`` fields, the table itself, or an
    # accessor of the axes
    home = SOURCE / "classifiers" / "__init__.py"
    names = {"_FAMILY_TABLE", "budget_axes", "free_axes"}
    readers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        if path == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in names | {"budgets", "free"}
                    or isinstance(node, ast.Name) and node.id in names):
                readers.add(f"{path.relative_to(SOURCE)}:{node.lineno}")
    assert not readers, sorted(readers)


def _cpu_kernel_uses(path):
    """Each place in ``path`` that reaches a ``_CPU_KERNELS`` function of
    numpy (as ``np.f``, ``numpy.f`` or imported from numpy), takes an ``@``
    or ``.dot`` product, or calls an ``argsort`` without ``kind=``, whose
    default kind orders ties by SIMD level."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        what = None
        numpy_name = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in ("np", "numpy"))
        if numpy_name and node.attr in _CPU_KERNELS or getattr(node, "attr", None) == "dot":
            what = node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            what = ",".join(sorted(_CPU_KERNELS & {alias.name for alias in node.names})) or None
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif (isinstance(node, ast.Call)
              and "argsort" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
              and not any(keyword.arg == "kind" for keyword in node.keywords)):
            what = "argsort without kind="
        if what:
            uses.append(f"{path.relative_to(SOURCE)}:{node.lineno} {what}")
    return uses


def test_only_the_kernels_module_calls_kernels_whose_bits_depend_on_the_cpu():
    # classifiers/kernels.py is the one list of the float kernels that can
    # move a report's last bits when the host CPU changes, so a change to
    # how one is computed changes that module alone
    home = SOURCE / "classifiers" / "kernels.py"
    assert {use.split()[-1] for use in _cpu_kernel_uses(home)} >= {
        "exp", "log", "log2", "matmul", "kind="}  # the scan sees what it guards
    uses = [use for path in sorted(SOURCE.rglob("*.py")) if path != home
            for use in _cpu_kernel_uses(path)]
    assert not uses, uses

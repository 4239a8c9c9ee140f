"""Which environment variables the package reads, and that it starts
no threads or processes of its own: the kernel backend is its one
knob."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arcinvert"


def _read_name(node, parents):
    """The variable name that the os.environ or os.getenv node reads:
    the first argument of a call on it (os.getenv(name),
    os.environ.get(name)) or the key of a subscript
    (os.environ[name]); any other use reads what it likes."""
    parent = parents.get(node)
    if isinstance(parent, ast.Attribute):  # os.environ.get(...)
        node, parent = parent, parents.get(parent)
    if isinstance(parent, ast.Call) and parent.func is node and parent.args:
        key = parent.args[0]
    elif isinstance(parent, ast.Subscript) and parent.value is node:
        key = parent.slice
    else:
        return "<any>"
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return "<computed>"


def _environment_reads(path):
    """(module, name) for each environment read in the module at path,
    by os.environ or os.getenv, or by importing either from os."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    module = path.relative_to(SRC).as_posix()
    reads = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            reads.append((module, _read_name(node, parents)))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv", "*") for alias in node.names):
                reads.append((module, "<from os import>"))
    return reads


def test_the_kernel_backend_is_the_only_environment_read():
    reads = sorted(r for path in sorted(SRC.rglob("*.py")) for r in _environment_reads(path))
    assert reads == [("_kernels/__init__.py", "ARCINVERT_KERNEL")], reads


def test_no_module_starts_threads_or_processes():
    pools = {"concurrent", "multiprocessing", "threading", "_thread", "subprocess"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in pools]
    assert found == [], found

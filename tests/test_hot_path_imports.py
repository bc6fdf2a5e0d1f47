"""No function-local ``import`` on the per-transaction path.

An ``import`` statement inside a function runs on every call: a dict
lookup in ``sys.modules`` plus a name binding, paid on each
``txn_manager.current()``, each dereference, each member call and each
posting.  The functions below run at least once per transaction, so
their imports live at module level (or, for the generated member
wrapper, in the outer function that builds it once per class).
"""

from __future__ import annotations

import ast
import importlib
import inspect

import pytest

#: (module, path to the function inside it).  A path step names a class,
#: a function, or a function nested in the previous step.
HOT_PATH = [
    ("repro.sessions.session", ("Session", "current_txn_or_raise")),
    ("repro.transactions.manager", ("TransactionManager", "current")),
    ("repro.objects.database", ("Database", "deref")),
    ("repro.objects.database", ("Database", "flush_transaction")),
    ("repro.core.wrappers", ("make_method_wrapper", "wrapper")),
    ("repro.core.posting", ("_post",)),
    ("repro.core.posting", ("interpret",)),
    ("repro.core.posting", ("advance_group",)),
    ("repro.core.posting", ("StateStore", "kernel")),
    ("repro.core.posting", ("StateStore", "choose")),
    ("repro.core.posting", ("VolatileStates", "choose")),
    ("repro.core.compiled", ("CompiledTier", "group_function")),
    ("repro.core.posting", ("Group", "__init__")),
    ("repro.core.posting", ("Group", "entry")),
    ("repro.core.manager", ("TriggerSystem", "write_back")),
    ("repro.core.posting", ("LockInPlaceStates", "write_back")),
    ("repro.core.trigger_state", ("decode_group",)),
    ("repro.core.trigger_state", ("decode_heads",)),
    ("repro.core.trigger_state", ("pack_heads",)),
    ("repro.core.posting", ("LockInPlaceStates", "group")),
    ("repro.core.versioned", ("AdvanceBuffer", "group")),
    ("repro.core.posting", ("StateStore", "refresh")),
    ("repro.core.manager", ("TriggerSystem", "resolve")),
    ("repro.core.manager", ("TriggerSystem", "resolved")),
    ("repro.core.manager", ("TriggerSystem", "_resolve")),
    ("repro.sessions.session", ("TransactionBlock", "__enter__")),
    ("repro.sessions.session", ("TransactionBlock", "__exit__")),
    ("repro.sessions.session", ("Session", "deref")),
    ("repro.objects.handle", ("PersistentHandle", "_scoped")),
    ("repro.transactions.manager", ("TransactionManager", "current_or_none")),
    ("repro.transactions.manager", ("TransactionManager", "commit")),
    ("repro.transactions.manager", ("TransactionManager", "drain_system_queue")),
    ("repro.core.manager", ("TriggerSystem", "before_commit")),
    ("repro.core.manager", ("TriggerSystem", "on_access")),
    ("repro.storage.locks", ("LockManager", "lock")),
    ("repro.storage.locks", ("LockManager", "release_all")),
    ("repro.storage.locks", ("LockManager", "acquire_blocking")),
    ("repro.storage.buffer", ("BufferPool", "slot")),
    ("repro.storage.wal", ("WriteAheadLog", "append")),
    ("repro.storage.wal", ("LogRecord", "encode")),
    ("repro.storage.disk", ("PagedRecords", "_payload")),
    ("repro.storage.disk", ("PagedRecords", "get")),
    ("repro.objects.database", ("Database", "_active_indexes")),
    ("repro.storage.page", ("SlottedPage", "get")),
    ("repro.objects.persistent", ("Persistent", "__setattr__")),
    ("repro.objects.schema", ("Field", "assign")),
    ("repro.core.posting", ("plain_occurrence",)),
    ("repro.objects.database", ("Database", "post_many")),
    ("repro.objects.handle", ("PersistentHandle", "__init__")),
    ("repro.objects.handle", ("PersistentHandle", "__getattr__")),
]

_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _find(tree: ast.AST, path: tuple[str, ...]) -> ast.AST:
    node = tree
    for step in path:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES) and child.name == step:
                node = child
                break
        else:
            raise AssertionError(f"no {step!r} in {path!r}")
    return node


def local_imports(module_name: str, path: tuple[str, ...]) -> list[int]:
    """Line numbers of the ``import`` statements inside one function."""
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    function = _find(tree, path)
    return [
        node.lineno
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


@pytest.mark.parametrize(
    "module_name, path", HOT_PATH, ids=[".".join(p) for _, p in HOT_PATH]
)
def test_no_function_local_import_on_the_per_transaction_path(module_name, path):
    lines = local_imports(module_name, path)
    assert not lines, (
        f"{module_name}.{'.'.join(path)} imports inside the function "
        f"(line(s) {lines}); hoist to module level"
    )

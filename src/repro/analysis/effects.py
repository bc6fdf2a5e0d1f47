"""Effect inference for trigger actions.

The PR-1 linter saw only what declarations *said* (``posts=`` metadata);
this module infers what actions *do*.  Given a trigger's action callable
we recover its source with :func:`inspect.getsource`, parse it with
:mod:`ast`, and abstract the body into an :class:`EffectSet`:

* ``reads`` / ``writes`` — attributes loaded/stored on the anchor
  (``self``); attributes touched on other objects appear as ``"*.attr"``.
* ``calls`` — member functions invoked *through the anchor handle*.
  These are the calls that post member events at run time (inside an
  ordinary method body ``self`` is the raw object, so nested
  method-to-method calls post nothing and are only *inlined* for their
  data effects, never surfaced here).
* ``foreign_calls`` — methods invoked on other handles (``deref``'d
  pointers, parameters); they may post member events on *other* classes.
* ``posts`` — user events raised via ``post_event``/``post_user_event``
  with a literal name.
* ``db_ops`` — persistent allocation/deletion/index mutations through
  ``ctx.db``.
* ``aborts`` — the action can abort the transaction (``ctx.tabort`` or a
  ``raise``).

The analysis is a *may* analysis with a sound escape hatch: anything
dynamic — a computed ``getattr``, a non-literal event name, a call to an
unknown bare name — sets ``unknown`` instead of guessing, and the ODE2xx
passes treat unknown effects conservatively (no inferred cascade edges
are claimed, confluence is not asserted).  Actions whose source cannot
be recovered at all (``eval``'d lambdas, C callables) come back with
``analyzed=False``, which the metadata pass reports as ODE206.

O++-compiled actions (``repro.opp``) are closures over parsed syntax,
not inspectable source; they carry ``__ode_calls__`` / ``__ode_tabort__``
tags instead, which this module prefers over source parsing.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trigger_def import TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = ["EffectSet", "infer_trigger_effects", "infer_callable_effects"]

# How deep same-class method calls are inlined before giving up.  The
# repo's deepest real chain is 2 (action -> method); 5 leaves headroom
# without letting pathological recursion blow up the walker.
_MAX_INLINE_DEPTH = 5

# Builtins whose calls neither mutate the anchor nor post events; calls
# to any other bare name widen to ``unknown``.
_PURE_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate",
        "filter", "float", "format", "frozenset", "hasattr", "id", "int",
        "isinstance", "issubclass", "iter", "len", "list", "map", "max",
        "min", "next", "print", "range", "repr", "round", "set", "sorted",
        "str", "sum", "tuple", "type", "zip",
    }
)

# Container methods that mutate their receiver: ``self.items.append(x)``
# is a *write* of ``items`` even though the attribute is only loaded.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "setdefault", "popitem",
    }
)

_POST_METHODS = frozenset({"post_event", "post_user_event"})

_DB_OPS = {
    "pnew": "new",
    "pdelete": "delete",
    "create_index": "index",
    "drop_index": "index",
}


@dataclasses.dataclass(frozen=True)
class EffectSet:
    """The inferred may-effects of one trigger action."""

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    calls: frozenset[str] = frozenset()
    foreign_calls: frozenset[str] = frozenset()
    posts: frozenset[str] = frozenset()
    db_ops: frozenset[str] = frozenset()
    aborts: bool = False
    unknown: bool = False
    unknown_reasons: tuple[str, ...] = ()
    analyzed: bool = True

    def union(self, other: "EffectSet") -> "EffectSet":
        return EffectSet(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            calls=self.calls | other.calls,
            foreign_calls=self.foreign_calls | other.foreign_calls,
            posts=self.posts | other.posts,
            db_ops=self.db_ops | other.db_ops,
            aborts=self.aborts or other.aborts,
            unknown=self.unknown or other.unknown,
            unknown_reasons=tuple(
                dict.fromkeys(self.unknown_reasons + other.unknown_reasons)
            ),
            analyzed=self.analyzed and other.analyzed,
        )

    def without_member_calls(self) -> "EffectSet":
        """Drop anchor-method calls (used when inlining a method body:
        inside a method ``self`` is the raw object, so its own
        ``self.m()`` calls cannot post member events)."""
        return dataclasses.replace(self, calls=frozenset())

    def conflicts(self, other: "EffectSet") -> frozenset[str]:
        """Attributes over which two actions fail to commute
        (write/write or read/write overlap)."""
        return (
            (self.writes & other.writes)
            | (self.writes & other.reads)
            | (self.reads & other.writes)
        )

    def widen(self, reason: str) -> "EffectSet":
        return dataclasses.replace(
            self,
            unknown=True,
            unknown_reasons=tuple(dict.fromkeys(self.unknown_reasons + (reason,))),
        )


def infer_trigger_effects(
    info: "TriggerInfo", metatype: Optional["Metatype"] = None
) -> EffectSet:
    """Infer the effect set of *info*'s action, resolving string actions
    and method inlining against *metatype* (the anchor class)."""
    cls = getattr(metatype, "pyclass", None) if metatype is not None else None
    spec = getattr(info, "action_spec", None)
    if isinstance(spec, str):
        # ``action="raise_limit"`` calls the named member through the
        # anchor handle, so the member's event fires and its body runs.
        eff = EffectSet(calls=frozenset({spec}))
        method = _class_method(cls, spec)
        if method is None:
            return eff.widen(f"string action names unknown method {spec!r}")
        body = _callable_effects(method, cls, _MAX_INLINE_DEPTH, set())
        return eff.union(body.without_member_calls())
    fn = spec if callable(spec) else info.action
    if fn is None:
        return EffectSet(analyzed=False, unknown=True,
                         unknown_reasons=("no action",))
    return _callable_effects(fn, cls, _MAX_INLINE_DEPTH, set())


def effect_memo() -> Callable[["TriggerInfo", "Metatype"], EffectSet]:
    """:func:`infer_trigger_effects` memoized per (trigger, anchor class),
    for one run: its passes consult the same sets, and inference (source
    retrieval plus an AST walk) is the expensive part."""
    cache: dict[tuple[int, int], EffectSet] = {}

    def effect_of(info: "TriggerInfo", metatype: "Metatype") -> EffectSet:
        key = (id(info), id(metatype))
        if key not in cache:
            cache[key] = infer_trigger_effects(info, metatype)
        return cache[key]

    return effect_of


def infer_callable_effects(fn, cls=None) -> EffectSet:
    """Public helper: infer the effects of a bare action callable."""
    return _callable_effects(fn, cls, _MAX_INLINE_DEPTH, set())


# --------------------------------------------------------------------------
# internals


def _class_method(cls, name):
    if cls is None:
        return None
    method = inspect.getattr_static(cls, name, None)
    if isinstance(method, (staticmethod, classmethod)):
        method = method.__func__
    return method if callable(method) else None


def _callable_effects(fn, cls, depth: int, visited: set) -> EffectSet:
    # O++-compiled closures carry effect tags; prefer them (their shared
    # closure source would only widen to unknown).
    calls_tag = getattr(fn, "__ode_calls__", None)
    posts_tag = getattr(fn, "__ode_posts__", None)
    if calls_tag is not None or posts_tag is not None:
        eff = EffectSet(
            calls=frozenset(calls_tag or ()),
            posts=frozenset(posts_tag or ()),
            aborts=bool(getattr(fn, "__ode_tabort__", False)),
        )
        return _inline_calls(eff, cls, depth, visited)

    node = _action_ast(fn)
    if node is None:
        return EffectSet(
            analyzed=False,
            unknown=True,
            unknown_reasons=("source unavailable",),
            aborts=bool(getattr(fn, "__ode_tabort__", False)),
        )
    argnames = _argnames(fn)
    anchor = argnames[0] if argnames else None
    ctx = argnames[1] if len(argnames) > 1 else None
    walker = _EffectWalker(anchor, ctx)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        walker.visit(stmt)
    eff = walker.result()
    if getattr(fn, "__ode_tabort__", False):
        eff = dataclasses.replace(eff, aborts=True)
    return _inline_calls(eff, cls, depth, visited)


def _inline_calls(eff: EffectSet, cls, depth: int, visited: set) -> EffectSet:
    if cls is None or depth <= 0:
        return eff
    for name in sorted(eff.calls):
        key = (id(cls), name)
        if key in visited:
            continue
        visited.add(key)
        method = _class_method(cls, name)
        if method is None:
            # Could be a trigger-activation attribute or a field; neither
            # reads/writes anything the walker can name, and member-event
            # mapping only needs the call name itself.
            continue
        body = _callable_effects(method, cls, depth - 1, visited)
        eff = eff.union(body.without_member_calls())
    return eff


def _argnames(fn) -> tuple[str, ...]:
    code = getattr(fn, "__code__", None)
    if code is None:
        return ()
    return tuple(code.co_varnames[: code.co_argcount])


def _action_ast(fn):
    """Source -> AST for a def or lambda, tolerating lambdas embedded in
    declaration lines (``trigger(..., action=lambda self, ctx: ...)``)."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        tree = _reparse_lambda_fragment(source)
    if tree is None:
        return None
    argnames = _argnames(fn)
    candidates = [
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    for node in candidates:
        if tuple(a.arg for a in node.args.args) == argnames:
            return node
    return candidates[0] if candidates else None


def _reparse_lambda_fragment(source: str):
    """``getsource`` on a lambda returns the enclosing statement, which
    may not parse in isolation (it can be the middle of a call).  Slice
    out the lambda expression by progressive right-trimming."""
    start = source.find("lambda")
    while start != -1:
        tail = source[start:]
        for end in range(len(tail), 6, -1):
            try:
                return ast.parse("(" + tail[:end] + ")", mode="eval")
            except SyntaxError:
                continue
        start = source.find("lambda", start + 1)
    return None


class _EffectWalker(ast.NodeVisitor):
    """One pass over an action body, accumulating an EffectSet."""

    def __init__(self, anchor: Optional[str], ctx: Optional[str]):
        self.anchor = anchor
        self.ctx = ctx
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.calls: set[str] = set()
        self.foreign_calls: set[str] = set()
        self.posts: set[str] = set()
        self.db_ops: set[str] = set()
        self.aborts = False
        self.unknown_reasons: list[str] = []
        self._in_raise = 0

    def result(self) -> EffectSet:
        return EffectSet(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            calls=frozenset(self.calls),
            foreign_calls=frozenset(self.foreign_calls),
            posts=frozenset(self.posts),
            db_ops=frozenset(self.db_ops),
            aborts=self.aborts,
            unknown=bool(self.unknown_reasons),
            unknown_reasons=tuple(dict.fromkeys(self.unknown_reasons)),
        )

    def _widen(self, reason: str) -> None:
        self.unknown_reasons.append(reason)

    # -- attribute tracking ------------------------------------------------

    def _attr_key(self, node: ast.Attribute) -> Optional[str]:
        """Name for an attribute access, or None if it should be ignored
        (ctx plumbing) or isn't a simple base."""
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == self.anchor:
                return node.attr
            if base.id == self.ctx:
                return None
            return f"*.{node.attr}"
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        key = self._attr_key(node)
        if key is not None:
            if isinstance(node.ctx, ast.Load):
                self.reads.add(key)
            else:
                self.writes.add(key)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``self.x += 1`` both reads and writes x (the target is marked
        # Store, so record the read here).
        if isinstance(node.target, ast.Attribute):
            key = self._attr_key(node.target)
            if key is not None:
                self.reads.add(key)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self.x[i] = v`` loads x then mutates the container: a write.
        if not isinstance(node.ctx, ast.Load) and isinstance(
            node.value, ast.Attribute
        ):
            key = self._attr_key(node.value)
            if key is not None:
                self.writes.add(key)
        self.generic_visit(node)

    # -- aborts ------------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        self.aborts = True
        # Constructor calls inside a raise are not effects; still walk
        # the children so attribute reads in messages are seen.
        self._in_raise += 1
        try:
            self.generic_visit(node)
        finally:
            self._in_raise -= 1

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        handled = False
        if isinstance(func, ast.Attribute):
            handled = self._attribute_call(node, func)
        elif isinstance(func, ast.Name):
            handled = self._name_call(node, func)
        if not handled:
            self.generic_visit(node)
        else:
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)

    def _attribute_call(self, node: ast.Call, func: ast.Attribute) -> bool:
        base = func.value
        method = func.attr
        if method in _POST_METHODS:
            self._record_post(node)
            return True
        if isinstance(base, ast.Name):
            if base.id == self.anchor:
                self.calls.add(method)
                return True
            if base.id == self.ctx:
                if method == "tabort":
                    self.aborts = True
                return True
            if method in _MUTATOR_METHODS:
                # mutating a non-anchor name: a local or global container
                self.writes.add(f"*.{base.id}")
                return True
            self.foreign_calls.add(method)
            return True
        if isinstance(base, ast.Attribute):
            # ctx.db.<op>(...)
            if (
                isinstance(base.value, ast.Name)
                and base.value.id == self.ctx
                and base.attr == "db"
            ):
                op = _DB_OPS.get(method)
                if op is not None:
                    self.db_ops.add(op)
                return True
            key = self._attr_key(base)
            if key is not None:
                if method in _MUTATOR_METHODS:
                    self.writes.add(key)
                else:
                    self.reads.add(key)
                return True
            self.foreign_calls.add(method)
            return True
        # computed receiver: effects depend on runtime values
        self._widen("call on a computed receiver")
        return False

    def _name_call(self, node: ast.Call, func: ast.Name) -> bool:
        name = func.id
        if name in _PURE_BUILTINS:
            return True
        if name in ("getattr", "setattr", "delattr"):
            self._record_dynamic_attr(node, name)
            return True
        if self._in_raise:
            # exception constructors
            return True
        self._widen(f"call to bare name {name!r}")
        return True

    def _record_dynamic_attr(self, node: ast.Call, name: str) -> None:
        args = node.args
        if not args or not (
            isinstance(args[0], ast.Name) and args[0].id == self.anchor
        ):
            return
        if len(args) > 1 and isinstance(args[1], ast.Constant) and isinstance(
            args[1].value, str
        ):
            attr = args[1].value
            if name == "getattr":
                self.reads.add(attr)
            else:
                self.writes.add(attr)
        else:
            self._widen(f"{name} with a computed attribute name")

    def _record_post(self, node: ast.Call) -> None:
        args = node.args
        if args and isinstance(args[0], ast.Constant) and isinstance(
            args[0].value, str
        ):
            self.posts.add(args[0].value)
        else:
            self._widen("post_event with a non-literal event name")

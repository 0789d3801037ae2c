"""Concurrency & backend-parity rules: picklability, locking, error swallowing.

These protect the guarantees of the parallel engine and the persistent store
(PRs 1-2, 4): every backend computes the same values, shared state is mutated
only under its lock, and corruption recovery never silently eats an error it
did not anticipate.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register_rule

#: call/method names that hand a callable to an executor submission path
_SUBMISSION_FUNCS = frozenset({"evaluate_batch", "map_utilities", "submit"})

#: keyword arguments whose value crosses a process boundary when an oracle or
#: task is pickled (the evaluator, the model factory a spec rebuilds)
_PICKLED_KEYWORDS = frozenset({"evaluator", "model_factory"})


@register_rule
class UnpicklableCallable(Rule):
    """RPR004 — callables crossing the pickling boundary must pickle.

    Lambdas and locally-defined functions cannot be pickled; handing one to an
    executor submission path, or storing one as a spec's ``model_factory`` /
    an oracle's ``evaluator``, works in-process and then breaks the moment
    the oracle or task is pickled to another process.  Use a module-level
    function or ``functools.partial`` — the round-trip contract is pinned by
    ``tests/test_picklability.py``.
    """

    code = "RPR004"
    name = "unpicklable-callable"
    summary = (
        "lambdas / local functions must not cross the pickling boundary: use "
        "module-level functions or functools.partial "
        "(contract: tests/test_picklability.py)"
    )
    applies_in_tests = False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Visit each call exactly once, under its *innermost* enclosing
        # function scope — that scope's nested defs are the unpicklable ones.
        yield from self._check_scope(ctx, ctx.tree, local_defs=frozenset())

    def _check_scope(
        self, ctx: ModuleContext, scope: ast.AST, local_defs: frozenset[str]
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = frozenset(
                    stmt.name
                    for stmt in ast.walk(node)
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not node
                )
                yield from self._check_scope(ctx, node, nested)
                continue
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, local_defs)
            yield from self._check_scope(ctx, node, local_defs)

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, local_defs: frozenset[str]
    ) -> Iterator[Finding]:
        func_name = None
        if isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        elif isinstance(node.func, ast.Name):
            func_name = node.func.id
        if func_name in _SUBMISSION_FUNCS:
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                yield from self._check_value(ctx, arg, local_defs, func_name)
            return  # keywords already covered; don't report the same value twice
        for keyword in node.keywords:
            if keyword.arg in _PICKLED_KEYWORDS:
                yield from self._check_value(
                    ctx, keyword.value, local_defs, f"{keyword.arg}="
                )

    def _check_value(
        self, ctx: ModuleContext, value: ast.AST, local_defs: frozenset[str], where: str
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield self.finding(
                ctx,
                value,
                f"lambda passed to {where}: this callable must pickle "
                "and lambdas cannot be pickled; use a "
                "module-level function or functools.partial "
                "(see tests/test_picklability.py)",
            )
        elif isinstance(value, ast.Name) and value.id in local_defs:
            yield self.finding(
                ctx,
                value,
                f"locally-defined function {value.id!r} passed to {where}: "
                "closures cannot be pickled; hoist it "
                "to module level or use functools.partial "
                "(see tests/test_picklability.py)",
            )


def _mentions_lock(node: ast.AST) -> bool:
    """Whether an expression references something lock-like by name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and "lock" in child.attr.lower():
            return True
        if isinstance(child, ast.Name) and "lock" in child.id.lower():
            return True
    return False


def _self_attribute_root(node: ast.AST) -> Optional[str]:
    """Name of the ``self.<attr>...`` chain a mutation target roots at."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


_LOCK_TRANSFER_MARKER = "must hold the lock"


@register_rule
class UnlockedSharedMutation(Rule):
    """RPR006 — lock-disciplined classes mutate shared state only under lock.

    A class that owns a lock (``self._lock`` or any lock-named attribute) has
    declared that its attributes are shared across threads (service job
    threads and HTTP handlers share one store, and callers may share one
    oracle); every write to
    ``self``-rooted state in its methods must then happen inside a
    ``with <lock>:`` block.  ``__init__``/``__post_init__`` run before the
    object is shared and are exempt, and a helper whose docstring states the
    convention "caller must hold the lock" transfers the obligation to its
    callers (the idiom of :class:`repro.store.sqlite.RecordingStore`'s
    ``_read``/``_write`` helpers).
    """

    code = "RPR006"
    name = "unlocked-shared-mutation"
    summary = (
        "classes owning a lock must mutate self-rooted state inside "
        "`with <lock>:` (or document 'caller must hold the lock')"
    )
    applies_in_tests = False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._owns_lock(node):
                yield from self._check_class(ctx, node)

    @staticmethod
    def _owns_lock(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and "lock" in node.attr.lower():
                value = node.value
                if isinstance(value, ast.Name) and value.id == "self":
                    return True
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if "lock" in node.target.id.lower():
                    return True
        return False

    def _check_class(self, ctx: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in {"__init__", "__post_init__"}:
                continue
            docstring = ast.get_docstring(method) or ""
            if _LOCK_TRANSFER_MARKER in docstring.lower():
                continue
            yield from self._walk_body(ctx, cls.name, method.body, locked=False)

    def _walk_body(
        self, ctx: ModuleContext, cls_name: str, body: list[ast.stmt], locked: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            inner_locked = locked
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if any(_mentions_lock(item.context_expr) for item in stmt.items):
                    inner_locked = True
            yield from self._check_statement(ctx, cls_name, stmt, locked)
            for field_name, value in ast.iter_fields(stmt):
                if field_name in {"body", "orelse", "finalbody"} and isinstance(
                    value, list
                ):
                    yield from self._walk_body(ctx, cls_name, value, inner_locked)
                elif field_name == "handlers" and isinstance(value, list):
                    for handler in value:
                        yield from self._walk_body(
                            ctx, cls_name, handler.body, inner_locked
                        )

    def _check_statement(
        self, ctx: ModuleContext, cls_name: str, stmt: ast.stmt, locked: bool
    ) -> Iterator[Finding]:
        if locked:
            return
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = _self_attribute_root(target)
            if attr is None or "lock" in attr.lower():
                continue
            yield self.finding(
                ctx,
                target,
                f"{cls_name} owns a lock but mutates self.{attr} outside a "
                "`with <lock>:` block; either take the lock or document the "
                "helper with 'caller must hold the lock'",
            )


#: a swallowing handler must at least do one of these with the error
_LOG_CALL_NAMES = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical",
     "log", "print"}
)


@register_rule
class SwallowedBroadException(Rule):
    """RPR007 — recovery paths must not silently swallow broad exceptions.

    Corruption recovery in the store deliberately treats *anticipated* decode
    and I/O failures as cache misses — but only under narrow exception types
    (``OSError``, ``sqlite3.DatabaseError``, JSON/value errors).  A bare
    ``except:`` or ``except Exception:`` that neither re-raises nor reports
    converts every future bug (including ``KeyboardInterrupt`` for the bare
    form) into a silent wrong answer.
    """

    code = "RPR007"
    name = "swallowed-broad-exception"
    summary = (
        "bare/over-broad except blocks must re-raise or report; narrow the "
        "exception type in corruption-recovery paths"
    )
    applies_in_tests = False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node):
                if not self._reports_or_reraises(node):
                    label = (
                        "bare except:"
                        if node.type is None
                        else f"except {ast.unparse(node.type)}:"
                    )
                    yield self.finding(
                        ctx,
                        node,
                        f"{label} neither re-raises nor reports; narrow it to "
                        "the anticipated exception types (corruption recovery "
                        "catches decode/IO errors, not everything) or log and "
                        "re-raise",
                    )

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for node in types:
            name = node.attr if isinstance(node, ast.Attribute) else getattr(
                node, "id", None
            )
            if name in {"Exception", "BaseException"}:
                return True
        return False

    @staticmethod
    def _reports_or_reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                if name in _LOG_CALL_NAMES:
                    return True
        return False

"""The six ``repro-lint`` rules — the codebase's contracts, as AST checks.

Each rule documents the convention it enforces and the conforming
pattern.  Scoping: *engine* rules (raise taxonomy, broad-except
classification, message string-matching, knob read discipline in their
strict forms) apply under ``src/repro/`` only; structural rules (bare
``except:``, knob-name validity, context propagation, codegen and
optional-dependency hygiene) apply to every scanned file, tests and
benchmarks included.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import (
    BUILTIN_EXCEPTIONS,
    AnalysisContext,
    Finding,
    ModuleInfo,
    Rule,
    ancestors,
    const_str,
    dotted_name,
    register,
    terminal_name,
)

#: Exact knob-name constants (docstrings never fullmatch this).
_KNOB_CONST = re.compile(r"REPRO_[A-Z0-9_]+\Z")

#: Modules allowed to call ``exec``/``eval`` (the codegen seams).
CODEGEN_WHITELIST = (
    "engine/expansion_plan.py",
    "engine/fused.py",
    "engine/database.py",
)

#: The registry module itself is exempt from knob rules — it *is* the
#: sanctioned ``os.environ`` access point.
_REGISTRY_MODULE = ("repro/config.py",)

#: Container methods that mutate ``self.<field>`` in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "add",
        "update",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
    }
)


def _is_environ_receiver(node: ast.AST | None) -> bool:
    dotted = dotted_name(node)
    return dotted is not None and dotted.split(".")[-1] == "environ"


@register
class KnobDiscipline(Rule):
    """Every ``REPRO_*`` environment read goes through ``repro.config``.

    Raw reads (``os.environ.get``/``os.getenv``/``os.environ[...]`` with
    a ``REPRO_*`` key) are flagged everywhere outside ``config.py``;
    writes and ``pop`` are allowed (tests set knobs all the time).
    Additionally, every exact ``"REPRO_*"`` string constant must name a
    *declared* knob — a retired or undeclared name is an error, which is
    what keeps dead knobs from silently lingering in tests or docs
    tooling.
    """

    name = "knob-discipline"
    description = (
        "REPRO_* env reads go through repro.config; knob-name constants "
        "must be declared in the registry"
    )

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        if module.ends_with(*_REGISTRY_MODULE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                key = const_str(node.args[0]) if node.args else None
                if key is None or not key.startswith("REPRO_"):
                    continue
                raw_read = isinstance(func, ast.Attribute) and (
                    (func.attr == "get" and _is_environ_receiver(func.value))
                    or (func.attr == "getenv" and dotted_name(func.value) == "os")
                )
                if raw_read:
                    yield self.finding(
                        module,
                        node,
                        f"raw environment read of {key}; "
                        "read knobs via repro.config.get",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                key = const_str(node.slice)
                if (
                    key is not None
                    and key.startswith("REPRO_")
                    and _is_environ_receiver(node.value)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"raw environment read of {key}; "
                        "read knobs via repro.config.get",
                    )
            elif isinstance(node, ast.Constant):
                value = node.value
                if not (isinstance(value, str) and _KNOB_CONST.fullmatch(value)):
                    continue
                if value in ctx.retired_knobs:
                    yield self.finding(
                        module,
                        node,
                        f"references retired knob {value} "
                        f"({ctx.retired_knobs[value]})",
                    )
                elif value not in ctx.knob_names:
                    yield self.finding(
                        module,
                        node,
                        f"references undeclared knob {value}; "
                        "declare it in repro.config",
                    )


def _snapshots_context(node: ast.AST | None) -> bool:
    """The conforming shape: the callable handed to the scheduler is
    ``<something>.run`` — i.e. ``copy_context().run`` or a saved
    ``ctx.run``."""
    return isinstance(node, ast.Attribute) and node.attr == "run"


@register
class ContextPropagation(Rule):
    """Work handed to pools/threads must snapshot contextvars.

    The engine carries per-query state in ``contextvars`` (the LP
    backend override, for one); a bare ``pool.submit(fn, ...)`` or
    ``Thread(target=fn)`` silently drops it.  Conforming calls route
    through a context snapshot::

        ctx = copy_context()
        pool.submit(ctx.run, fn, *args)
        threading.Thread(target=copy_context().run, args=(fn, arg))
    """

    name = "context-propagation"
    description = (
        "Executor.submit / Thread(...) must route through "
        "copy_context().run"
    )

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "submit":
                receiver = (terminal_name(func.value) or "").lower()
                if "pool" not in receiver and "executor" not in receiver:
                    continue
                if node.args and not _snapshots_context(node.args[0]):
                    yield self.finding(
                        module,
                        node,
                        "Executor.submit without a contextvars snapshot; "
                        "use submit(copy_context().run, fn, ...)",
                    )
            elif terminal_name(func) == "Thread":
                target = None
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = kw.value
                        break
                else:
                    if len(node.args) >= 2:
                        target = node.args[1]
                if target is not None and not _snapshots_context(target):
                    yield self.finding(
                        module,
                        node,
                        "Thread target without a contextvars snapshot; "
                        "use target=copy_context().run, args=(fn, ...)",
                    )


_IMPORT_GUARD_CATCHES = frozenset({"ImportError", "ModuleNotFoundError", "Exception"})


def _handler_catches_import_error(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    names = t.elts if isinstance(t, ast.Tuple) else [t]
    return any(terminal_name(n) in _IMPORT_GUARD_CATCHES for n in names)


@register
class OptionalDepGuard(Rule):
    """``scipy`` imports only inside guarded seams.

    The engine must import (and run: the no-scipy CI leg) without scipy,
    so its imports live either inside a function (a lazy seam) or in a
    ``try:`` whose handler catches ``ImportError``.
    """

    name = "optional-dep-guard"
    description = "scipy imports must sit behind a function or try/ImportError"

    _OPTIONAL = frozenset({"scipy"})

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            hit = roots & self._OPTIONAL
            if not hit:
                continue
            guarded = False
            for anc in ancestors(node):
                if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    guarded = True
                    break
                if isinstance(anc, ast.Try) and any(
                    _handler_catches_import_error(h) for h in anc.handlers
                ):
                    guarded = True
                    break
            if not guarded:
                yield self.finding(
                    module,
                    node,
                    f"unguarded import of optional dependency "
                    f"{'/'.join(sorted(hit))}; wrap in a function seam or "
                    "try/except ImportError",
                )


@register
class CodegenHygiene(Rule):
    """``exec``/``eval`` only in the whitelisted codegen modules, and
    always with an explicit namespace dict (never the caller's
    globals)."""

    name = "codegen-hygiene"
    description = (
        "exec/eval only in codegen modules, with explicit namespace dicts"
    )

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval")
            ):
                continue
            kind = node.func.id
            if not module.ends_with(*CODEGEN_WHITELIST):
                yield self.finding(
                    module,
                    node,
                    f"{kind}() outside the codegen whitelist "
                    f"({', '.join(CODEGEN_WHITELIST)})",
                )
            elif len(node.args) < 2:
                yield self.finding(
                    module,
                    node,
                    f"{kind}() without an explicit namespace dict",
                )


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    t = handler.type
    if t is None:
        return set()
    names = t.elts if isinstance(t, ast.Tuple) else [t]
    return {terminal_name(n) or "" for n in names}


@register
class ErrorTaxonomy(Rule):
    """Errors speak the :mod:`repro.errors` taxonomy.

    * no bare ``except:`` anywhere;
    * (engine) a broad ``except Exception/BaseException`` must re-raise
      or route through ``errors.classify()`` — never swallow;
    * (engine) no string-matching on exception messages inside a
      handler (``"..." in str(exc)``) — match on the type;
    * (engine) a raised class must be a ReproError descendant or carry
      *specific* stdlib catch semantics — a builtin other than bare
      ``Exception``/``BaseException``, or a project class deriving one
      (``class LPError(RuntimeError)`` passes, ``class E(Exception)``
      does not).
    """

    name = "error-taxonomy"
    description = (
        "no bare except; broad excepts classify or re-raise; raises use "
        "the ReproError taxonomy or stdlib types"
    )

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield self.finding(
                        module,
                        node,
                        "bare except: — name the exception types",
                    )
                    continue
                if not module.is_engine:
                    continue
                if _handler_names(node) & {"Exception", "BaseException"}:
                    resolved = any(
                        isinstance(inner, ast.Raise)
                        or (
                            isinstance(inner, ast.Call)
                            and terminal_name(inner.func) == "classify"
                        )
                        for stmt in node.body
                        for inner in ast.walk(stmt)
                    )
                    if not resolved:
                        yield self.finding(
                            module,
                            node,
                            "broad except that neither re-raises nor "
                            "calls errors.classify()",
                        )
            elif isinstance(node, ast.Compare) and module.is_engine:
                sides = [node.left, *node.comparators]
                str_call = any(
                    isinstance(s, ast.Call)
                    and isinstance(s.func, ast.Name)
                    and s.func.id == "str"
                    and len(s.args) == 1
                    for s in sides
                )
                if str_call and any(
                    isinstance(a, ast.ExceptHandler) for a in ancestors(node)
                ):
                    yield self.finding(
                        module,
                        node,
                        "string-matching on an exception message; match "
                        "on the exception type instead",
                    )
            elif isinstance(node, ast.Raise) and module.is_engine:
                exc = node.exc
                if exc is None:
                    continue  # bare re-raise
                if isinstance(exc, ast.Call):
                    cls = terminal_name(exc.func)
                elif isinstance(exc, ast.Name):
                    cls = exc.id
                else:
                    continue
                if cls in ("Exception", "BaseException"):
                    yield self.finding(
                        module,
                        node,
                        f"raise of bare {cls}; raise a ReproError or a "
                        "specific stdlib exception",
                    )
                    continue
                if cls is None or cls in BUILTIN_EXCEPTIONS:
                    continue
                if cls not in ctx.class_graph:
                    # A variable holding an exception instance, or a
                    # class the scan didn't see — don't guess.
                    continue
                if not (
                    ctx.derives_from(cls, "ReproError")
                    or ctx.has_specific_builtin_root(cls)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"raise of {cls}, which neither joins the "
                        "ReproError taxonomy nor derives a specific "
                        "stdlib exception",
                    )


def _locked_fields_of(cls: ast.ClassDef) -> tuple[str, ...]:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "_locked_fields" for t in targets
        ):
            continue
        value = stmt.value
        if isinstance(value, (ast.Tuple, ast.List)):
            return tuple(
                v for v in (const_str(e) for e in value.elts) if v is not None
            )
    return ()


def _under_lock(node: ast.AST) -> bool:
    for anc in ancestors(node):
        if isinstance(anc, ast.With):
            for item in anc.items:
                name = dotted_name(item.context_expr) or terminal_name(
                    item.context_expr
                )
                if name and "lock" in name.lower():
                    return True
    return False


def _self_field(node: ast.AST | None, fields: tuple[str, ...]) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in fields
    ):
        return node.attr
    return None


@register
class LockDiscipline(Rule):
    """Writes to a class's declared ``_locked_fields`` happen under its
    lock.

    A class opts in by declaring::

        _locked_fields = ("values", "_codes")

    after which every assignment, item-store, augmented assignment or
    mutating method call on ``self.<field>`` outside a ``with
    self.<...lock...>`` block is flagged.  ``__init__``/``__new__`` are
    exempt (no concurrent access before construction completes).
    """

    name = "lock-discipline"
    description = (
        "writes to declared _locked_fields must sit inside a with-lock "
        "block"
    )

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        classes = [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]
        fields_by_class = {
            cls: _locked_fields_of(cls) for cls in classes
        }
        for cls, fields in fields_by_class.items():
            if not fields:
                continue
            for node in ast.walk(cls):
                field = self._written_field(node, fields)
                if field is None:
                    continue
                # Nested classes keep their own declarations.
                owner = next(
                    (
                        a
                        for a in ancestors(node)
                        if isinstance(a, ast.ClassDef)
                    ),
                    None,
                )
                if owner is not cls:
                    continue
                method = next(
                    (
                        a
                        for a in ancestors(node)
                        if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ),
                    None,
                )
                if method is not None and method.name in ("__init__", "__new__"):
                    continue
                if not _under_lock(node):
                    yield self.finding(
                        module,
                        node,
                        f"write to locked field {field!r} outside a "
                        "with-lock block",
                    )

    @staticmethod
    def _written_field(node: ast.AST, fields: tuple[str, ...]) -> str | None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                field = _self_field(t, fields)
                if field:
                    return field
                if isinstance(t, ast.Subscript):
                    field = _self_field(t.value, fields)
                    if field:
                        return field
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                return _self_field(func.value, fields)
        return None

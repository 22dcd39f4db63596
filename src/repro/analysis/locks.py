"""RPR106 — static lock-discipline checking over ``_guarded_by``.

Concurrency-bearing classes *declare* their discipline as data::

    class PredictionService:
        _guarded_by = {
            "_queue": ("_lock", "_not_empty"),   # either name: same lock
            "_cache": "_lock",
            "_inflight": "event-loop",           # asyncio: loop-confined
        }
        _off_loop_methods = ("swap_artifact",)   # sync entry points that
                                                 # run on foreign threads

and this rule checks the declaration against the code:

* an attribute guarded by a lock name may only be mutated (rebound,
  item-assigned, augmented, or hit with *any* method call — a
  ``.append`` on a deque and a ``.complete(...)`` on a helper object
  that owns counters are the same hazard) inside ``with self.<lock>``;
  ``__init__`` is exempt (no concurrency before construction completes);
* lock attributes are discovered from ``__init__``
  (``self.x = threading.Lock()/RLock()/Condition(...)``);
  ``Condition(self._lock)`` aliases its lock, so holding either name
  satisfies a guard naming the other;
* ``"event-loop"`` guards (asyncio classes) mark loop-confined state:
  methods listed in ``_off_loop_methods`` run on foreign threads and may
  only *rebind* such attributes (a single atomic ``self.x = value``) —
  in-place mutation there is a data race;
* ``await`` while holding a lock and blocking calls under a lock
  (``time.sleep``, a zero-argument ``.get()`` on a queue-named
  receiver) are flagged regardless of guards.

The static rule sees lexical ``with`` blocks only; lock *ordering*
across call chains is the dynamic side's job
(:mod:`repro.analysis.lockdep`, the pytest fixture).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .core import Finding, Rule, SourceModule
from .rules._util import dotted_name

__all__ = ["LockDisciplineRule", "GuardedClass", "parse_guarded_class"]

#: the _guarded_by value marking asyncio loop-confined state
EVENT_LOOP = "event-loop"

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: method calls that mutate their receiver in place — what counts as a
#: mutation of loop-confined state; on lock-guarded state every call does
_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "update", "setdefault", "add", "sort", "reverse", "move_to_end",
}

_BLOCKING_CALLS = {"time.sleep"}
_QUEUEISH = ("queue", "inbox", "outbox")


class GuardedClass:
    """The parsed ``_guarded_by`` declaration of one class."""

    def __init__(
        self,
        name: str,
        guards: Dict[str, Tuple[str, ...]],
        off_loop_methods: Tuple[str, ...],
        lock_attrs: Set[str],
        aliases: Dict[str, Set[str]],
    ) -> None:
        self.name = name
        self.guards = guards
        self.off_loop_methods = off_loop_methods
        self.lock_attrs = lock_attrs
        self.aliases = aliases  # lock attr -> full equivalence class

    def expand(self, names: Iterable[str]) -> FrozenSet[str]:
        """A lock-name set closed under Condition aliasing."""
        out: Set[str] = set()
        for n in names:
            out |= self.aliases.get(n, {n})
        return frozenset(out)


def _const_str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if isinstance(node, (ast.Tuple, ast.List)):
        vals = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            vals.append(elt.value)
        return tuple(vals)
    return None


def parse_guarded_class(cls: ast.ClassDef) -> Optional[GuardedClass]:
    """Extract the declaration from a ClassDef (None when undeclared)."""
    guards: Optional[Dict[str, Tuple[str, ...]]] = None
    off_loop: Tuple[str, ...] = ()
    for stmt in cls.body:
        targets = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            if t.id == "_guarded_by" and isinstance(value, ast.Dict):
                guards = {}
                for k, v in zip(value.keys, value.values):
                    if not (
                        isinstance(k, ast.Constant) and isinstance(k.value, str)
                    ):
                        continue
                    names = _const_str_tuple(v)
                    if names is not None:
                        guards[k.value] = names
            elif t.id == "_off_loop_methods":
                off_loop = _const_str_tuple(value) or ()
    if guards is None:
        return None

    # lock attributes + Condition aliasing, from __init__
    lock_attrs: Set[str] = set()
    pairs: List[Tuple[str, str]] = []
    for stmt in cls.body:
        if not (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            factory = dotted_name(node.value.func)
            tail = factory.rsplit(".", 1)[-1] if factory else None
            if tail not in _LOCK_FACTORIES:
                continue
            for t in node.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    lock_attrs.add(t.attr)
                    if tail == "Condition" and node.value.args:
                        arg = node.value.args[0]
                        if (
                            isinstance(arg, ast.Attribute)
                            and isinstance(arg.value, ast.Name)
                            and arg.value.id == "self"
                        ):
                            pairs.append((t.attr, arg.attr))

    aliases: Dict[str, Set[str]] = {a: {a} for a in lock_attrs}
    for a, b in pairs:
        group = aliases.get(a, {a}) | aliases.get(b, {b})
        for member in group:
            aliases[member] = group
    return GuardedClass(cls.name, guards, off_loop, lock_attrs, aliases)


def _self_attr_root(expr: ast.AST) -> Optional[Tuple[str, bool]]:
    """(attribute name, is_direct_rebind) when ``expr`` roots at self.<a>."""
    direct = isinstance(expr, ast.Attribute) and isinstance(
        expr.value, ast.Name
    ) and expr.value.id == "self"
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        child = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(child, ast.Name)
            and child.id == "self"
        ):
            return node.attr, direct
        node = child
    return None


class LockDisciplineRule(Rule):
    rule_id = "RPR106"
    title = "mutations of _guarded_by attributes stay under their lock"
    rationale = (
        "Classes with shared mutable state declare it in a _guarded_by "
        "dict (attr -> lock attr name, tuple of names, or 'event-loop' "
        "for asyncio loop-confined state).  This rule flags mutations of "
        "a guarded attribute (including any method call on a lock-guarded "
        "one) outside 'with self.<lock>', in-place "
        "mutation of loop-confined state from _off_loop_methods (only an "
        "atomic rebind is race-free there), await while holding a lock, "
        "and blocking calls (time.sleep, queue .get()) under a held lock. "
        "Condition(self._lock) aliases its lock; __init__ is exempt.  "
        "Lock ORDER across call chains is checked dynamically by the "
        "lockdep pytest fixture, not here."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not module.path.startswith("src/repro/"):
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                decl = parse_guarded_class(node)
                if decl is None:
                    continue
                out.extend(self._check_class(module, node, decl))
        return out

    # -- per-class walk ---------------------------------------------------
    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef, decl: GuardedClass
    ) -> List[Finding]:
        out: List[Finding] = []
        for attr, guard in decl.guards.items():
            for g in guard:
                if g != EVENT_LOOP and g not in decl.lock_attrs:
                    out.append(
                        self.finding(
                            module,
                            cls.lineno,
                            f"{decl.name}._guarded_by[{attr!r}] names "
                            f"{g!r}, which is not a lock created in "
                            "__init__ (threading.Lock/RLock/Condition)",
                        )
                    )
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                continue
            self._scan(
                module, decl, stmt.name, stmt.body, frozenset(), out
            )
        return out

    def _scan(
        self,
        module: SourceModule,
        decl: GuardedClass,
        method: str,
        body: List[ast.stmt],
        held: FrozenSet[str],
        out: List[Finding],
    ) -> None:
        for stmt in body:
            self._scan_node(module, decl, method, stmt, held, out)

    def _scan_node(self, module, decl, method, node, held, out) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a nested callable runs later, under whatever locks its
            # caller holds then — start it from a clean slate
            inner = node.body if isinstance(node.body, list) else [node.body]
            for child in inner:
                self._scan_node(module, decl, method, child, frozenset(), out)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                ctx = item.context_expr
                self._scan_node(module, decl, method, ctx, held, out)
                root = _self_attr_root(ctx) if isinstance(ctx, ast.Attribute) else None
                if root is not None and root[0] in decl.lock_attrs:
                    acquired |= decl.expand((root[0],))
            self._scan(module, decl, method, node.body, held | acquired, out)
            return
        if isinstance(node, ast.Await) and held:
            out.append(
                self.finding(
                    module,
                    node.lineno,
                    f"{decl.name}.{method}: await while holding "
                    f"{sorted(held)}; release the lock before suspending",
                )
            )
        if isinstance(node, ast.Assign):
            for target in self._flatten_targets(node.targets):
                self._check_mutation(
                    module, decl, method, target, held, out, rebind_ok=True
                )
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Delete) else [node.target]
            for target in targets:
                self._check_mutation(
                    module, decl, method, target, held, out, rebind_ok=False
                )
        elif isinstance(node, ast.Call):
            self._check_call(module, decl, method, node, held, out)
        for child in ast.iter_child_nodes(node):
            self._scan_node(module, decl, method, child, held, out)

    @staticmethod
    def _flatten_targets(targets: List[ast.expr]) -> List[ast.expr]:
        """Unpack tuple/list/starred assignment targets."""
        out: List[ast.expr] = []
        stack = list(targets)
        while stack:
            t = stack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                stack.extend(t.elts)
            elif isinstance(t, ast.Starred):
                stack.append(t.value)
            else:
                out.append(t)
        return out

    def _check_mutation(
        self,
        module,
        decl,
        method,
        target,
        held,
        out,
        *,
        rebind_ok: bool,
        call: Optional[str] = None,
    ) -> None:
        root = _self_attr_root(target)
        if root is None:
            return
        attr, direct = root
        guard = decl.guards.get(attr)
        if guard is None:
            return
        line = target.lineno
        if EVENT_LOOP in guard:
            if call is not None and call not in _MUTATORS:
                return
            if method in decl.off_loop_methods and not (direct and rebind_ok):
                out.append(
                    self.finding(
                        module,
                        line,
                        f"{decl.name}.{method}: in-place mutation of "
                        f"loop-confined self.{attr} from an off-loop "
                        "method; only an atomic rebind is race-free here",
                    )
                )
            return
        if not (held & decl.expand(guard)):
            names = " / ".join(f"self.{g}" for g in guard)
            out.append(
                self.finding(
                    module,
                    line,
                    f"{decl.name}.{method}: mutation of self.{attr} "
                    f"outside 'with {names}' (declared in _guarded_by)",
                )
            )

    def _check_call(self, module, decl, method, node, held, out) -> None:
        func = node.func
        # method calls on guarded attributes
        if isinstance(func, ast.Attribute):
            self._check_mutation(
                module, decl, method, func, held, out, rebind_ok=False, call=func.attr
            )
        if not held:
            return
        name = dotted_name(func)
        blocking = name in _BLOCKING_CALLS
        if (
            not blocking
            and isinstance(func, ast.Attribute)
            and func.attr == "get"
            and not node.args
        ):
            recv = dotted_name(func.value) or ""
            tail = recv.rsplit(".", 1)[-1].lower()
            blocking = tail == "q" or any(w in tail for w in _QUEUEISH)
        if blocking:
            what = name or f"{ast.unparse(func)}()"
            out.append(
                self.finding(
                    module,
                    node.lineno,
                    f"{decl.name}.{method}: blocking call {what} while "
                    f"holding {sorted(held)}; move it outside the lock",
                )
            )

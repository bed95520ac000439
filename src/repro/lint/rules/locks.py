"""``lock-discipline``: every lock acquire is discharged on all paths.

PR 8 fixed a real stranded-lock bug dynamically (the coordinator's
``op-release`` fan-out to early-completed-wave stragglers); this rule
catches the *shape* statically.  Per function (nested handler closures
are analyzed as their own functions), a structured walk tracks which
lock acquisitions are still outstanding along every path:

* **acquire** -- ``X.acquire(...)`` where ``X`` names a lock, or a call
  to a guarded-acquire helper (an attribute whose name contains
  ``acquire``, e.g. the replica's ``self._acquire``); the helper form
  binds its success flag, so ``if not ok: return BUSY`` walks the
  failure branch *unheld*;
* **discharge** -- ``X.release``/``X.cancel``, a ``*release*`` helper
  call, or *custody registration*: storing the lock into the op-lock
  table (``self._op_locks[op] = ...``) or the permit table
  (``self._recovering[resource] = owner``) hands ownership to the lease
  timer / propagation machinery, which is the protocol's sanctioned
  way to hold a lock past the handler;
* a ``try`` whose ``finally`` discharges shields every return inside
  its body; a ``with`` on a lock discharges at exit.

A ``return`` (or falling off the end) with an undischarged acquire is a
stranded-lock finding.  ``raise`` paths are not flagged -- exceptions
propagate to the process reaper, which is a different failure class.
Intentional custody transfers that the heuristics cannot see carry a
``# repro: allow[lock-discipline] <why>`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Finding, Rule, dotted_name


def _iter_expr(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested functions."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def _acquire_token(call: ast.Call) -> Optional[tuple[str, bool]]:
    """``(token, guarded)`` when *call* acquires a lock, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "acquire":
        receiver = dotted_name(func.value) or ""
        if "lock" in receiver.rsplit(".", 1)[-1].lower():
            return receiver, False
        return None
    if func.attr != "acquire" and "acquire" in func.attr:
        # guarded helper: returns truthiness, holds only on success
        return dotted_name(func) or func.attr, True
    return None


def _discharges(stmt: ast.AST) -> bool:
    """True iff *stmt* contains any lock discharge."""
    for node in _iter_expr(stmt):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in ("release", "cancel", "reset"):
                    receiver = dotted_name(func.value) or ""
                    if "lock" in receiver.rsplit(".", 1)[-1].lower():
                        return True
                if "release" in func.attr:
                    return True
            elif isinstance(func, ast.Name) and "release" in func.id:
                return True
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if _is_custody_target(target):
                    return True
    return False


def _is_custody_target(target: ast.AST) -> bool:
    if not isinstance(target, ast.Subscript):
        return False
    container = target.value
    name = (container.attr if isinstance(container, ast.Attribute)
            else container.id if isinstance(container, ast.Name) else "")
    # op-lock table / propagation-permit table
    return "op_locks" in name or "recovering" in name


class _FnState:
    """Mutable path state: outstanding acquires and their guard vars."""

    def __init__(self) -> None:
        self.held: set[str] = set()
        self.guards: dict[str, str] = {}   # flag var -> token

    def copy(self) -> "_FnState":
        clone = _FnState()
        clone.held = set(self.held)
        clone.guards = dict(self.guards)
        return clone


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    rationale = ("a lock acquired and not released/custodied on every "
                 "path strands until the lease expires -- the PR 8 "
                 "stranded-lock bug class, caught statically")
    include = ("core/*", "shard/*", "baselines/*")
    exclude = ("sim/*",)

    def check(self, tree: ast.Module, source: str,
              relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node, relpath)

    def _check_function(self, fn: ast.AST,
                        relpath: str) -> Iterator[Finding]:
        if not any(isinstance(n, ast.Call) and _acquire_token(n)
                   for n in _iter_expr(fn)):
            return
        findings: list[Finding] = []
        falls, state = self._walk_body(fn.body, _FnState(), frozenset(),
                                       relpath, findings)
        if falls and state.held:
            findings.append(self._strand(relpath, fn, state.held,
                                         "falls off the end"))
        yield from findings

    # -- the structured walk ------------------------------------------------
    def _walk_body(self, stmts, state: _FnState, shield: frozenset,
                   relpath: str, findings: list) -> tuple[bool, "_FnState"]:
        """Walk a statement list; returns (falls_through, exit_state)."""
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                leaked = (set() if "*" in shield
                          else state.held - shield)
                if leaked:
                    findings.append(self._strand(relpath, stmt, leaked,
                                                 "returns"))
                return False, state
            if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
                return False, state
            if isinstance(stmt, ast.If):
                falls, state = self._walk_if(stmt, state, shield,
                                             relpath, findings)
                if not falls:
                    return False, state
                continue
            if isinstance(stmt, ast.Try):
                falls, state = self._walk_try(stmt, state, shield,
                                              relpath, findings)
                if not falls:
                    return False, state
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                body_falls, body_state = self._walk_body(
                    stmt.body, state.copy(), shield, relpath, findings)
                if body_falls:
                    state.held |= body_state.held
                    state.guards.update(body_state.guards)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                state = self._walk_with(stmt, state, shield,
                                        relpath, findings)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue   # analyzed as its own scope
            self._apply_simple(stmt, state)
        return True, state

    def _walk_if(self, stmt: ast.If, state: _FnState, shield: frozenset,
                 relpath: str, findings: list) -> tuple[bool, "_FnState"]:
        guard = self._guard_test(stmt.test, state)
        body_state, else_state = state.copy(), state.copy()
        if guard is not None:
            token, body_is_success = guard
            (body_state if not body_is_success else else_state).held.discard(
                token)
        body_falls, body_state = self._walk_body(
            stmt.body, body_state, shield, relpath, findings)
        else_falls, else_state = self._walk_body(
            stmt.orelse, else_state, shield, relpath, findings)
        if body_falls and else_falls:
            merged = _FnState()
            merged.held = body_state.held | else_state.held
            merged.guards = {**body_state.guards, **else_state.guards}
            return True, merged
        if body_falls:
            return True, body_state
        if else_falls:
            return True, else_state
        return False, state

    def _walk_try(self, stmt: ast.Try, state: _FnState, shield: frozenset,
                  relpath: str, findings: list) -> tuple[bool, "_FnState"]:
        finally_discharges = any(_discharges(s) for s in stmt.finalbody)
        # a discharging finally shields every return inside the try --
        # including returns holding locks acquired *within* the body --
        # so the inner shield is the wildcard, not a fixed token set
        inner_shield = shield | frozenset({"*"}) if finally_discharges \
            else shield
        body_falls, body_state = self._walk_body(
            stmt.body, state.copy(), inner_shield, relpath, findings)
        exit_states = []
        if body_falls:
            exit_states.append(body_state)
        for handler in stmt.handlers:
            h_falls, h_state = self._walk_body(
                handler.body, state.copy(), inner_shield,
                relpath, findings)
            if h_falls:
                exit_states.append(h_state)
        if not exit_states:
            return False, state
        merged = _FnState()
        for exit_state in exit_states:
            merged.held |= exit_state.held
            merged.guards.update(exit_state.guards)
        if finally_discharges:
            merged.held.clear()
        else:
            falls, merged = self._walk_body(stmt.finalbody, merged,
                                            shield, relpath, findings)
            if not falls:
                return False, merged
        return True, merged

    def _walk_with(self, stmt, state: _FnState, shield: frozenset,
                   relpath: str, findings: list) -> "_FnState":
        managed: set[str] = set()
        for item in stmt.items:
            for node in _iter_expr(item.context_expr):
                if isinstance(node, ast.Call):
                    token = _acquire_token(node)
                    if token is not None:
                        managed.add(token[0])
        inner = state.copy()
        inner.held |= managed
        falls, inner = self._walk_body(stmt.body, inner,
                                       shield | frozenset(managed),
                                       relpath, findings)
        inner.held -= managed   # the context manager releases at exit
        return inner if falls else state

    def _apply_simple(self, stmt: ast.AST, state: _FnState) -> None:
        if _discharges(stmt):
            state.held.clear()
            return
        for node in _iter_expr(stmt):
            if not isinstance(node, ast.Call):
                continue
            token = _acquire_token(node)
            if token is None:
                continue
            name, guarded = token
            state.held.add(name)
            if guarded and isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                state.guards[stmt.targets[0].id] = name

    @staticmethod
    def _guard_test(test: ast.AST,
                    state: _FnState) -> Optional[tuple[str, bool]]:
        """``(token, body_is_success_branch)`` when *test* checks a
        guarded-acquire flag."""
        if isinstance(test, ast.Name) and test.id in state.guards:
            return state.guards[test.id], True
        if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Name)
                and test.operand.id in state.guards):
            return state.guards[test.operand.id], False
        if (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id in state.guards
                and len(test.ops) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            if isinstance(test.ops[0], ast.Is):
                return state.guards[test.left.id], False
            if isinstance(test.ops[0], ast.IsNot):
                return state.guards[test.left.id], True
        return None

    def _strand(self, relpath: str, node: ast.AST, held: set,
                how: str) -> Finding:
        locks = ", ".join(sorted(held))
        return self.finding(
            relpath, node,
            f"{how} while `{locks}` may still be held: release it, "
            f"shield it with try/finally, or register custody "
            f"(op-lock table / permit table); stranded locks stall "
            f"writers until the lease expires")

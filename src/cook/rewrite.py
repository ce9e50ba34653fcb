"""Source-to-source reification of divergence.

Three rewrite rules replace the constructs that can introduce divergence with
parallel bottom assignments over the l-value representatives they may write:

* a loop the oracle cannot prove terminating becomes a bottom assignment of
  its write set (cause: loop);
* a call that may reach a divergent recursive method becomes a bottom
  assignment of the callees' write sets with formals substituted by actuals,
  plus the call target (cause: recursion);
* a call to a divergent API method becomes a bottom assignment of the
  l-values reachable from its actuals, then one of the call target
  (cause: api).

Bodies are processed bottom-up, so an outer loop is judged on a body whose
divergent inner constructs are already plain assignments; loops proven
terminating and calls to internal or safe-listed methods survive unchanged.
The output is a valid program again (modulo `bottom` statements) and the
rewrite is idempotent.
"""

from __future__ import annotations

from .lang import ast
from .pipeline import ProgramModel
from .representatives import Representative, Scalar


def _sorted_targets(reps) -> tuple[Representative, ...]:
    """Bottom-assignment targets in a deterministic order."""
    return tuple(sorted(reps, key=lambda r: (r.__class__.__name__, r.render())))


class _Rewriter:
    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = model.aliases
        self.sym = model.symbols

    def method(self, m: ast.Method) -> ast.Method:
        if m.extern:
            return m
        body = self.block(m, m.body)
        if body is m.body:
            return m
        return ast.Method(
            m.name, m.owner, m.formals, m.locals, m.return_type, body, m.extern, loc=m.loc
        )

    def block(self, m: ast.Method, block: ast.Block) -> ast.Block:
        """The rewritten block, or `block` itself when nothing in it changed;
        a statement rewritten into several is spliced in place."""
        out: list[ast.Stmt] = []
        changed = False
        for s in block:
            new = self.stmt(m, s)
            changed |= new is not s
            if isinstance(new, tuple):
                out.extend(new)
            else:
                out.append(new)
        return tuple(out) if changed else block

    def stmt(self, m: ast.Method, s: ast.Stmt) -> ast.Stmt | ast.Block:
        if isinstance(s, ast.IfElse):
            then_body = self.block(m, s.then_body)
            else_body = self.block(m, s.else_body)
            if then_body is s.then_body and else_body is s.else_body:
                return s
            return ast.IfElse(s.cond, then_body, else_body, loc=s.loc)
        if isinstance(s, ast.While):
            return self.loop(m, s)
        if isinstance(s, ast.Call):
            return self.call(m, s)
        return s

    def loop(self, m: ast.Method, s: ast.While) -> ast.Stmt:
        body = self.block(m, s.body)
        if self.model.verdict_for(s).terminates:
            if body is s.body:
                return s
            return ast.While(s.cond, body, loc=s.loc)
        # no `api_set`: the inner rewrite has already turned every divergent
        # API call in the body into bottom assignments
        targets = self.aliases.observable_writes(m.id, ast.While(s.cond, body, loc=s.loc))
        return ast.BottomAssign(_sorted_targets(targets), ast.DivergenceCause.LOOP, loc=s.loc)

    def call(self, m: ast.Method, s: ast.Call) -> ast.Stmt | ast.Block:
        targets = self.sym.resolve_call(m, s)
        extern = next((t for t in targets if t.extern), None)
        if extern is not None:
            if extern.name not in self.model.api_set:
                return s  # safe-listed: assumed non-divergent
            reach: set[Representative] = set()
            for actual in s.actuals:
                reach |= self.aliases.reachable_lvalues(m.id, actual)
            result = ast.BottomAssign(
                (Scalar(m.id, s.target),), ast.DivergenceCause.API, loc=s.loc
            )
            if not reach:
                return result
            smear = ast.BottomAssign(_sorted_targets(reach), ast.DivergenceCause.API, loc=s.loc)
            return smear, result
        if any(t.id in self.model.recursion for t in targets):
            # under call by value the callee can reach only the heap and the
            # result slot: frame-local names (even a written formal, which is
            # the callee's own copy) are unobservable from this frame
            reps: set[Representative] = {Scalar(m.id, s.target)}
            for t in targets:
                reps |= self.aliases.heap_writes(t.id)
            return ast.BottomAssign(
                _sorted_targets(reps), ast.DivergenceCause.RECURSION, loc=s.loc
            )
        return s


def rewrite_program(model: ProgramModel) -> ast.Program:
    rw = _Rewriter(model)
    methods = tuple(rw.method(m) for m in model.program.methods)
    return ast.Program(model.program.classes, model.program.interfaces, methods)

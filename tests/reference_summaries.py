"""The evaluator of a loop summary from a concrete entry state: the exit
value of the induction variable, the counters' final values and the written
array cells. `tests/test_summaries.py` holds it to the interpreter, which is
how a summary is shown exact; the analysis itself never evaluates one.

It also keeps the pairwise composition of two transitions (`compose`, with
`IDENTITY` as its unit), the reference that `summaries.path_formula`'s one
pass is held to.
"""

from __future__ import annotations

from cook.errors import NotDependencyFree
from cook.interp import RELOPS, binop64, unop64, wrap64
from cook.lang import ast
from cook.summaries import GuardAtom, LoopSummary, Transition, _canonical_update, subst_expr
from cook.termination import UNARY_OPS

IDENTITY = Transition((), ())


def eval_expr(e: tuple, env: dict[str, int]) -> int:
    """Value of `e` under `env`; ZeroDivisionError for a zero divisor."""
    if e[0] == "num":
        return e[1]
    if e[0] == "var":
        return env[e[1]]
    if e[0] == "bin":
        return binop64(e[1], eval_expr(e[2], env), eval_expr(e[3], env))
    if e[0] in UNARY_OPS:
        return unop64(UNARY_OPS[e[0]], eval_expr(e[1], env))
    raise ValueError(f"cannot evaluate {e!r}")


def holds(atom: GuardAtom, env: dict[str, int]) -> bool:
    """Whether the guard atom holds under `env`."""
    return RELOPS[atom.op](eval_expr(atom.left, env), eval_expr(atom.right, env))


def compose(t1: Transition, t2: Transition) -> Transition:
    """Sequential composition: intermediates are eliminated by substituting
    t1's functional updates into t2's guard and updates. Updates are stored
    in canonical form, so a long path does not build an expression that
    grows with its length."""
    u1 = t1.update_map()
    guard = t1.guard + tuple(g.substituted(u1) for g in t2.guard)
    merged = dict(t1.updates)
    for v, e in t2.updates:
        merged[v] = _canonical_update(subst_expr(e, u1))
    arrays = list(t1.arrays)
    for a, i, e in t2.arrays:
        arrays.append((a, subst_expr(i, u1), subst_expr(e, u1)))
    return Transition(
        guard,
        tuple(sorted(merged.items())),
        tuple(arrays),
        t1.field_writes + t2.field_writes,
    )


def num_count(guard: tuple[GuardAtom, ...], env: dict[str, int], induction: str, k: int, l: int) -> int:
    """num(phi[x/i], k, l): how many x in [k..l] satisfy the guard."""
    count = 0
    scope = dict(env)
    for x in range(k, l + 1):
        scope[induction] = x
        if all(holds(a, scope) for a in guard):
            count += 1
    return count


def exit_value(summary: LoopSummary, env: dict[str, int], i0: int) -> int | None:
    """Close i': the loop exits the first time every common atom cannot hold.

    Invariant common atoms gate entry entirely; bound atoms (i < b or i <= b)
    cap the induction variable. Returns None when exit cannot be closed, and
    when every bound is `i <= INT64_MAX`, which no 64-bit `i` fails.
    """
    if not summary.closable:
        return None
    for atom in summary.inv_atoms:
        if not holds(atom, env):
            return i0
    limit = None
    for op, bexpr in summary.bounds:
        b = eval_expr(bexpr, env)
        if op == "<=" and b == ast.INT64_MAX:
            continue  # i <= INT64_MAX always holds: this bound never fails
        cap = b if op == "<" else b + 1
        limit = cap if limit is None else min(limit, cap)
    if limit is None:
        return None
    return max(i0, limit)


def eval_counter(
    summary: LoopSummary, var: str, env: dict[str, int], i0: int, i_exit: int
) -> int:
    terms = dict(summary.counter_terms).get(var)
    if terms is None:
        return env[var]
    total = env[var]
    for d, guard in terms:
        total = wrap64(total + d * num_count(guard, env, summary.induction, i0, i_exit - 1))
    return total


def eval_array(
    summary: LoopSummary,
    array: str,
    cells: list[int],
    env: dict[str, int],
    i0: int,
    i_exit: int,
) -> list[int]:
    cases = dict(summary.array_cases).get(array)
    out = list(cells)
    if cases is None:
        return out
    scope = dict(env)
    for x in range(i0, i_exit):
        scope[summary.induction] = x
        matched = [e for guard, e in cases if all(holds(a, scope) for a in guard)]
        if len(matched) > 1:
            raise NotDependencyFree(f"cycle guards overlap at {summary.induction}={x}")
        if matched:
            if not 0 <= x < len(out):
                raise IndexError(f"summary writes outside the array at index {x}")
            out[x] = eval_expr(matched[0], scope)
    return out

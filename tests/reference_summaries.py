"""The evaluator of a loop summary from a concrete entry state: the exit
value of the induction variable, the counters' final values and the written
array cells. `tests/test_summaries.py` holds it to the interpreter, which is
how a summary is shown exact; the analysis itself never evaluates one.
"""

from __future__ import annotations

from cook.errors import NotDependencyFree
from cook.interp import wrap64
from cook.lang import ast
from cook.summaries import GuardAtom, LoopSummary, eval_expr


def num_count(guard: tuple[GuardAtom, ...], env: dict[str, int], induction: str, k: int, l: int) -> int:
    """num(phi[x/i], k, l): how many x in [k..l] satisfy the guard."""
    count = 0
    scope = dict(env)
    for x in range(k, l + 1):
        scope[induction] = x
        if all(a.eval(scope) for a in guard):
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
        if not atom.eval(env):
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
        matched = [e for guard, e in cases if all(a.eval(scope) for a in guard)]
        if len(matched) > 1:
            raise NotDependencyFree(f"cycle guards overlap at {summary.induction}={x}")
        if matched:
            if not 0 <= x < len(out):
                raise IndexError(f"summary writes outside the array at index {x}")
            out[x] = eval_expr(matched[0], scope)
    return out

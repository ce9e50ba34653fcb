"""Loop termination oracle: cycle extraction and the counter/bound test.

A loop with no nested loops is viewed as a set of single-iteration cycles,
one per acyclic header-to-header path. A cycle is the tuple of its steps in
path order: an `ast.Cond` for each branch outcome taken (the false edge's
condition negated), each statement, and an `OpaqueUpdate` for each inner
loop stepped over. Paths that leave the loop through a return are only
counted, as the loop's exits.

The oracle judges the loop terminating only when some variable advances by
a nonzero constant stride in the same direction in every closing cycle, and
every closing cycle's guard tests that variable itself against a bound the
loop never writes, tightly enough that no stride carries it past the 64-bit
wrap point:

* an identifier bound needs a strict `<` (or `>` going down) and strides of
  exactly one;
* a constant bound `c` needs at least max |stride| values between `c` and
  the wrap point: `INT64_MAX - c` going up and `c - INT64_MIN` going down,
  one more for a strict bound.

Those facts witness a monotone ranking argument, so the verdict is a sound
under-approximation: `Unknown` never means diverges, only unproven.

The oracle reads the composed cycle transitions that `summaries.cycle_formula`
builds, the same ones the loop summaries rest on: each guard side goes
through `linear_of`, and `counter_strides` reads every name's stride. The
grammar has no constant operands, so strides fold through identifiers:
constants assigned earlier in the same cycle, or method locals with a single
constant definition that dominates the loop header (`dominating_consts`).
Which names a statement writes is `ast.scalar_writes`, for the loop's
written names and for the definitions alike.

A method's loops share one table (`method_consts`): a single scan of its
nodes counts the definition sites and keeps the single-definition constant
assignments, and the dominator tree is numbered once (`cfg.DomTree`), so a
dominance test is two comparisons. `dominating_consts` then looks up only the
names that the loop's header and body read (`ast.scalar_reads`), and cycle
extraction steps over the loop's children, the inner loops nested in it as
`cfg.build_cfg` recorded them. Each loop's work is proportional to its body, so judging a
method's loops takes time linear in the method times its loop nesting depth.
"""

from __future__ import annotations

from .cfg import BRANCH, Cfg, DomTree, LoopInfo, dominator_tree
from .errors import NestedLoopError, PathExplosionError
from .interp import binop64, unop64
from .lang import ast
from .values import value

# a loop with more single-iteration paths than this is left unjudged
MAX_CYCLES = 64

_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


@value
class OpaqueUpdate:
    """Stand-in for an inner loop folded to its write effect."""

    names: frozenset[str]


@value
class CycleSet:
    """A loop's closing cycles, each the tuple of its steps in path order.

    A step is an `ast.Cond` for a branch outcome taken at that point in the
    path, an AST statement, or an `OpaqueUpdate`. The order matters: a guard
    tested after an update constrains the updated value.
    """

    header: int
    cycles: tuple[tuple, ...]
    exits: int  # how many paths leave the loop through a return
    written_names: frozenset[str]  # every scalar the loop body may write


@value
class TerminationVerdict:
    terminates: bool
    counter: str | None = None
    strides: tuple[int, ...] = ()
    bound: str | None = None
    reason: str = ""

    def render(self) -> str:
        if self.terminates:
            strides = ",".join(str(d) for d in self.strides)
            return f"terminates(counter={self.counter}, stride={strides}, bound={self.bound})"
        return f"unknown({self.reason})" if self.reason else "unknown"


# ---------------------------------------------------------------------------
# cycle extraction
# ---------------------------------------------------------------------------


def extract_cycles(
    loop: LoopInfo,
    g: Cfg,
    loops: list[LoopInfo],
    opaque_inner: dict[int, OpaqueUpdate] | None = None,
) -> CycleSet:
    """Enumerate the loop's single-iteration cycles.

    An inner loop (one of `loop.children`, ids into `loops`) is stepped over
    when `opaque_inner` maps its header to a write-effect stand-in,
    continuing from the inner loop's exit edge; a loop with an inner loop
    that has no stand-in is refused.
    """
    opaque_inner = opaque_inner or {}
    children = {loops[c].header for c in loop.children}
    missing = children - set(opaque_inner)
    if missing:
        raise NestedLoopError(
            f"loop at node {loop.header}: no stand-in for inner headers {sorted(missing)}"
        )

    header = loop.header
    head = g.nodes[header].cond
    assert head is not None, "loop header must be a branch"

    cycles: list[tuple] = []
    exits = 0
    # DFS over (node, steps); loop bodies are acyclic once the header is
    # removed, except for inner headers which we either refused above or
    # step over, so the walk terminates.
    work: list[tuple[int, tuple]] = [(g.succs[header][0], (head,))]
    while work:
        node, steps = work.pop()
        if len(cycles) + exits > MAX_CYCLES:
            raise PathExplosionError(
                f"more than {MAX_CYCLES} cycles in loop at node {loop.header}"
            )
        if node == header:
            cycles.append(steps)
            continue
        if node not in loop.body:
            exits += 1
            continue
        if node in children:
            # continue past the inner loop through its false edge
            work.append((g.succs[node][1], steps + (opaque_inner[node],)))
            continue
        n = g.nodes[node]
        if n.kind == BRANCH:
            c = n.cond
            t, f = g.succs[node]
            work.append((f, steps + (ast.Cond(c.left, _NEGATE[c.op], c.right),)))
            work.append((t, steps + (c,)))
        else:
            new_steps = steps + (n.stmt,) if n.stmt is not None else steps
            (succ,) = g.succs[node]
            work.append((succ, new_steps))

    return CycleSet(header, tuple(cycles), exits, written_names(g, loop))


def written_names(g: Cfg, loop: LoopInfo) -> frozenset[str]:
    """Every scalar of the method's frame that the loop body may write. An
    inner loop's body lies inside its parent's, so its writes are counted."""
    return frozenset(
        name for nid in loop.body for name in ast.scalar_writes(g.nodes[nid].stmt, g.method_id)
    )


# ---------------------------------------------------------------------------
# linear values of composed expressions
# ---------------------------------------------------------------------------


# the operator of each unary `summaries` expression tag
UNARY_OPS = {"neg": "-", "not": "!"}


def linear_of(e: tuple) -> tuple | None:
    """Normalize a `summaries` expression to ('const', c) or
    ('linear', var, offset); None when it is neither."""
    if e[0] == "num":
        return ("const", e[1])
    if e[0] == "var":
        return ("linear", e[1], 0)
    if e[0] in UNARY_OPS:
        inner = linear_of(e[1])
        if inner is None or inner[0] != "const":
            return None
        return ("const", unop64(UNARY_OPS[e[0]], inner[1]))
    if e[0] == "bin":
        a, b = linear_of(e[2]), linear_of(e[3])
        if a is None or b is None:
            return None
        op = e[1]
        if a[0] == "const" and b[0] == "const":
            if op in ("/", "%") and b[1] == 0:
                return None
            return ("const", binop64(op, a[1], b[1]))
        if op == "+" and a[0] != b[0]:
            (_, x, offset), (_, c) = (a, b) if a[0] == "linear" else (b, a)
            return ("linear", x, binop64("+", offset, c))
        if op == "-" and a[0] == "linear" and b[0] == "const":
            return ("linear", a[1], binop64("-", a[2], b[1]))
    return None


def counter_strides(formulas: tuple) -> dict[str, tuple[int, ...]]:
    """Each name's stride in each composed cycle of `formulas` (0 where the
    cycle leaves it alone), in name order: the names that every cycle leaves
    alone or moves by a constant, and that some cycle moves."""
    updates = [f.update_map() for f in formulas]
    table: dict[str, tuple[int, ...]] = {}
    for j in sorted({v for u in updates for v in u}):
        strides = []
        for u in updates:
            lin = linear_of(u[j]) if j in u else ("linear", j, 0)
            if lin is None or lin[0] != "linear" or lin[1] != j:
                break
            strides.append(lin[2])
        else:
            if any(strides):
                table[j] = tuple(strides)
    return table


@value
class MethodConsts:
    """What the loops of one method share for `dominating_consts`: each
    local defined exactly once in the method, by a non-null constant
    assignment, with that node and value, and the method's dominator tree."""

    sites: dict[str, tuple[int, int]]  # name -> (defining node, value)
    dom: DomTree


def method_consts(g: Cfg) -> MethodConsts:
    """One scan of the method's nodes, and its dominator tree."""
    defs: dict[str, int] = {}
    const_at: dict[str, tuple[int, int]] = {}
    for nid, node in enumerate(g.nodes):
        s = node.stmt
        for name in ast.scalar_writes(s, g.method_id):
            defs[name] = defs.get(name, 0) + 1
        if type(s) is ast.ConstAssign and s.value is not None:
            const_at[s.target] = (nid, s.value)
    sites = {name: at for name, at in const_at.items() if defs[name] == 1}
    return MethodConsts(sites, dominator_tree(g))


def dominating_consts(g: Cfg, loop: LoopInfo, consts: MethodConsts) -> dict[str, int]:
    """The locals that the loop's header and body read and that hold a known
    constant at loop entry: defined exactly once in the method, by a constant
    assignment dominating the header (`consts`, built once per method). In
    the structured CFGs of `build_cfg` the header dominates its body, so no
    body node dominates the header and the loop never writes them. The work
    is proportional to the loop's body."""
    sites, dominates = consts.sites, consts.dom.dominates
    out: dict[str, int] = {}
    for nid in loop.body:
        for name in ast.scalar_reads(g.nodes[nid].stmt):
            at = sites.get(name)
            if at is not None and dominates(at[0], loop.header):
                out[name] = at[1]
    return out


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def check_termination(cs: CycleSet, formulas: tuple, counters: dict) -> TerminationVerdict:
    """Terminating iff some counter advances by a constant nonzero stride in
    one direction in every closing cycle, and every closing cycle's guard
    bounds it (above for increasing, below for decreasing) within the
    64-bit range by a constant or an identifier the loop never writes.

    `formulas` holds the composed `summaries.Transition` of each closing
    cycle of `cs`, and `counters` is their `counter_strides`. Composition has
    substituted earlier updates into later guards, so each guard is tested at
    its place in the path.
    """
    if not formulas:
        return TerminationVerdict(False, reason="no closing cycles")
    guards = [[(linear_of(a.left), a.op, linear_of(a.right)) for a in f.guard] for f in formulas]
    for j, strides in counters.items():
        if not (all(d > 0 for d in strides) or all(d < 0 for d in strides)):
            continue
        increasing, step = strides[0] > 0, max(abs(d) for d in strides)
        bounds = {_guard_bound(tests, j, increasing, step, cs.written_names) for tests in guards}
        if None not in bounds:
            return TerminationVerdict(True, j, strides, ",".join(sorted(bounds)))
    return TerminationVerdict(False, reason="no bounded constant-stride counter")


def _guard_bound(tests: list, j: str, increasing: bool, step: int, written) -> str | None:
    """The first loop-invariant bound on `j` among one closing cycle's guard
    tests, under the 64-bit rule of the module docstring. The tested value
    must be the entry value of `j` itself: a tested offset lets cycles that
    test different values step over each other's exits."""
    strict_rel, weak_rel = ("<", "<=") if increasing else (">", ">=")
    for left, op, right in tests:
        for tested, rel, other in ((left, op, right), (right, _FLIP[op], left)):
            if tested != ("linear", j, 0) or other is None or rel not in (strict_rel, weak_rel):
                continue
            strict = rel == strict_rel
            if other[0] == "const":
                c = other[1]
                room = (ast.INT64_MAX - c if increasing else c - ast.INT64_MIN) + strict
                if room >= step:
                    return str(c)
            elif strict and step == 1 and other[2] == 0 and other[1] not in written:
                return other[1]
    return None

"""Loop termination oracle: cycle extraction and the counter/bound test.

A loop with no nested loops is viewed as a set of single-iteration cycles,
one per acyclic header-to-header path; paths that leave the loop through a
return are kept separately as exits. The oracle judges the loop terminating
only when some variable advances by a nonzero constant stride in the same
direction in every closing cycle and every closing cycle's guard bounds that
variable by an identifier the loop never writes. Those two facts witness a
monotone ranking argument, so the verdict is a sound under-approximation:
`Unknown` never means diverges, only unproven.

The oracle reads the composed cycle transitions that `summaries.cycle_formula`
builds, the same ones the loop summaries rest on: each name's net effect and
each guard side go through `linear_of`. The grammar has no constant
operands, so strides fold through identifiers: constants assigned earlier in
the same cycle, or method locals with a single constant definition that
dominates the loop header and are never written inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import BRANCH, Cfg, LoopInfo, dominators, dominates
from .errors import NestedLoopError, PathExplosionError
from .interp import binop64, unop64
from .lang import ast
from .representatives import Scalar

# a loop with more single-iteration paths than this is left unjudged
MAX_CYCLES = 64

_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


@dataclass(frozen=True, slots=True)
class Atom:
    left: str
    op: str
    right: str

    def negate(self) -> "Atom":
        return Atom(self.left, _NEGATE[self.op], self.right)

    def render(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class OpaqueUpdate:
    """Stand-in for an inner loop folded to its write effect."""

    names: frozenset[str]


@dataclass(frozen=True, slots=True)
class Cycle:
    """One acyclic path through the loop body, as an interleaved step list.

    A step is either ("guard", Atom) for a branch outcome taken at that point
    in the path, an AST statement, or an OpaqueUpdate. The interleaving
    matters: a guard tested after an update constrains the updated value.
    """

    steps: tuple

    @property
    def guard(self) -> tuple[Atom, ...]:
        return tuple(s[1] for s in self.steps if isinstance(s, tuple) and s[0] == "guard")

    @property
    def updates(self) -> tuple:
        return tuple(s for s in self.steps if not (isinstance(s, tuple) and s[0] == "guard"))


@dataclass(frozen=True, slots=True)
class CycleSet:
    header: int
    cycles: tuple[Cycle, ...]  # closing cycles only
    exits: tuple[Cycle, ...]  # paths that leave the loop through a return
    written_names: frozenset[str]  # every scalar the loop body may write


@dataclass(frozen=True, slots=True)
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

    An inner loop is stepped over when `opaque_inner` maps its header to a
    write-effect stand-in, continuing from the inner loop's exit edge; a
    loop with an inner loop that has no stand-in is refused.
    """
    opaque_inner = opaque_inner or {}
    children = {l.header for l in loops if l.parent == loop.id}
    missing = children - set(opaque_inner)
    if missing:
        raise NestedLoopError(
            f"loop at node {loop.header}: no stand-in for inner headers {sorted(missing)}"
        )

    header = loop.header
    head_cond = g.nodes[header].cond
    assert head_cond is not None, "loop header must be a branch"
    head_atom = Atom(head_cond.left, head_cond.op, head_cond.right)

    cycles: list[Cycle] = []
    exits: list[Cycle] = []
    true_succ = g.succs[header][0]

    # DFS over (node, steps); loop bodies are acyclic once the header is
    # removed, except for inner headers which we either refused above or
    # step over, so the walk terminates.
    work: list[tuple[int, tuple]] = [(true_succ, (("guard", head_atom),))]
    while work:
        node, steps = work.pop()
        if len(cycles) + len(exits) > MAX_CYCLES:
            raise PathExplosionError(
                f"more than {MAX_CYCLES} cycles in loop at node {loop.header}"
            )
        if node == header:
            cycles.append(Cycle(steps))
            continue
        if node not in loop.body:
            exits.append(Cycle(steps))
            continue
        if node in children:
            # continue past the inner loop through its false edge
            work.append((g.succs[node][1], steps + (opaque_inner[node],)))
            continue
        n = g.nodes[node]
        if n.kind == BRANCH:
            atom = Atom(n.cond.left, n.cond.op, n.cond.right)
            t, f = g.succs[node]
            work.append((f, steps + (("guard", atom.negate()),)))
            work.append((t, steps + (("guard", atom),)))
        else:
            new_steps = steps + (n.stmt,) if n.stmt is not None else steps
            (succ,) = g.succs[node]
            work.append((succ, new_steps))

    written = _written_names(loop, g, opaque_inner)
    return CycleSet(header, tuple(cycles), tuple(exits), written)


def _written_names(
    loop: LoopInfo, g: Cfg, opaque_inner: dict[int, OpaqueUpdate]
) -> frozenset[str]:
    out: set[str] = set()
    for nid in loop.body:
        s = g.nodes[nid].stmt
        if s is None or g.nodes[nid].kind == BRANCH:
            continue
        target = getattr(s, "target", None)
        if target is not None:
            out.add(target)
        if isinstance(s, ast.Return):
            out.add("ret")
        if isinstance(s, ast.BottomAssign):
            for rep in s.targets:
                if isinstance(rep, Scalar) and rep.method == g.method_id:
                    out.add(rep.name)
    for stand_in in opaque_inner.values():
        out |= stand_in.names
    return frozenset(out)


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


def dominating_consts(g: Cfg, loop: LoopInfo) -> dict[str, int]:
    """Locals holding a known constant at loop entry: defined exactly once in
    the method, by a constant assignment dominating the header, and never
    written inside the loop."""
    writes: dict[str, list[int]] = {}
    const_at: dict[str, tuple[int, int]] = {}
    for nid, node in enumerate(g.nodes):
        s = node.stmt
        if s is None or node.kind == BRANCH:
            continue
        target = getattr(s, "target", None)
        if target is not None:
            writes.setdefault(target, []).append(nid)
            if isinstance(s, ast.ConstAssign) and s.value is not None:
                const_at[target] = (nid, s.value)
        if isinstance(s, ast.BottomAssign):
            for rep in s.targets:
                if isinstance(rep, Scalar) and rep.method == g.method_id:
                    writes.setdefault(rep.name, []).append(nid)

    idom = dominators(g)
    out: dict[str, int] = {}
    for name, sites in writes.items():
        if len(sites) != 1 or name not in const_at:
            continue
        nid, value = const_at[name]
        if nid in loop.body:
            continue
        if dominates(idom, g.entry, nid, loop.header):
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def check_termination(cs: CycleSet, formulas: tuple) -> TerminationVerdict:
    """Terminating iff some counter advances by a constant nonzero stride in
    one direction in every closing cycle, and every closing cycle's guard
    bounds it (above for increasing, below for decreasing) by an identifier
    the loop never writes.

    `formulas` holds the composed `summaries.Transition` of each closing
    cycle of `cs`. Composition has substituted earlier updates into later
    guards, so each guard is tested at its place in the path.
    """
    if not formulas:
        return TerminationVerdict(False, reason="no closing cycles")

    folded = [
        (
            {v: linear_of(e) for v, e in f.updates},
            [(linear_of(a.left), a.op, linear_of(a.right)) for a in f.guard],
        )
        for f in formulas
    ]
    candidates: set[str] = set()
    for net, _ in folded:
        candidates.update(net.keys())

    for j in sorted(candidates):
        nets = [net.get(j, ("linear", j, 0)) for net, _ in folded]
        if any(lin is None or lin[0] != "linear" or lin[1] != j for lin in nets):
            continue
        strides = tuple(lin[2] for lin in nets)
        if all(d > 0 for d in strides):
            increasing = True
        elif all(d < 0 for d in strides):
            increasing = False
        else:
            continue
        bound = _common_bound(cs, folded, j, increasing)
        if bound is not None:
            return TerminationVerdict(True, j, strides, bound)
    return TerminationVerdict(False, reason="no bounded constant-stride counter")


def _common_bound(cs: CycleSet, folded, j: str, increasing: bool) -> str | None:
    """A loop-invariant bound on `j` in every closing cycle's guard.

    Each guard is taken at its evaluation point so the tested value must be
    the entry value of `j` plus a constant; the bound side must be a constant
    or an identifier the loop never writes.
    """
    bounds: list[str] = []
    for _, guard_tests in folded:
        found = None
        for left, op, right in guard_tests:
            for tested, rel, other in ((left, op, right), (right, _FLIP[op], left)):
                if tested is None or tested[0] != "linear" or tested[1] != j or other is None:
                    continue
                wanted = ("<", "<=") if increasing else (">", ">=")
                if rel not in wanted:
                    continue
                if other[0] == "const":
                    found = str(other[1])
                elif other[2] == 0 and other[1] not in cs.written_names:
                    found = other[1]
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        bounds.append(found)
    distinct = sorted(set(bounds))
    return distinct[0] if len(distinct) == 1 else ",".join(distinct)

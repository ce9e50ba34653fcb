"""Loop termination oracle: cycle extraction and the counter/bound test.

A loop with no nested loops is viewed as a set of single-iteration cycles,
one per acyclic header-to-header path; paths that leave the loop through a
return are kept separately as exits. The oracle judges the loop terminating
only when some variable advances by a nonzero constant stride in the same
direction in every closing cycle and every closing cycle's guard bounds that
variable by an identifier the loop never writes. Those two facts witness a
monotone ranking argument, so the verdict is a sound under-approximation:
`Unknown` never means diverges, only unproven.

The grammar has no constant operands, so strides fold through identifiers:
constants assigned earlier in the same cycle, or method locals with a single
constant definition that dominates the loop header and are never written
inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import BRANCH, Cfg, LoopInfo, dominators, dominates
from .errors import NestedLoopError, PathExplosionError
from .interp import div64, wrap64
from .lang import ast
from .representatives import Scalar

DEFAULT_CYCLE_CAP = 64

_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

OPAQUE = ("opaque",)


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
    closes: bool  # False when the path leaves the loop through a return

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
    exits: tuple[Cycle, ...]
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
    policy: str = "basic",
    opaque_inner: dict[int, OpaqueUpdate] | None = None,
    cap: int = DEFAULT_CYCLE_CAP,
) -> CycleSet:
    """Enumerate the loop's single-iteration cycles.

    `policy="basic"` refuses loops containing loops. `policy="summary"` skips
    over an inner loop when `opaque_inner` maps its header to a write-effect
    stand-in, continuing from the inner loop's exit edge.
    """
    children = {l.header for l in loops if l.parent == loop.id}
    if children and policy == "basic":
        raise NestedLoopError(f"loop at node {loop.header} contains nested loops")
    if children and policy == "summary":
        missing = children - set(opaque_inner or {})
        if missing:
            raise NestedLoopError(f"no summary stand-in for inner headers {sorted(missing)}")

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
        if len(cycles) + len(exits) > cap:
            raise PathExplosionError(f"more than {cap} cycles in loop at node {loop.header}")
        if node == header:
            cycles.append(Cycle(steps, closes=True))
            continue
        if node not in loop.body:
            exits.append(Cycle(steps, closes=False))
            continue
        if node in children:
            stand_in = (opaque_inner or {})[node]
            # continue past the inner loop through its false edge
            work.append((g.succs[node][1], steps + (stand_in,)))
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
    loop: LoopInfo, g: Cfg, opaque_inner: dict[int, OpaqueUpdate] | None
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
    for stand_in in (opaque_inner or {}).values():
        out |= stand_in.names
    return frozenset(out)


# ---------------------------------------------------------------------------
# symbolic cycle folding
# ---------------------------------------------------------------------------


def fold_cycle(
    cycle: Cycle, pre_consts: dict[str, int], method_id: str
) -> tuple[dict[str, tuple], list[tuple[tuple, str, tuple]]]:
    """Symbolically run one cycle.

    Returns the net scalar effect (name -> ('const', c) | ('linear', var, off)
    | OPAQUE; unwritten names absent) and each guard test evaluated at its
    position in the path, so a guard after an update constrains the updated
    value, not the entry value.
    """
    env: dict[str, tuple] = {}
    guard_evals: list[tuple[tuple, str, tuple]] = []

    def val(name: str) -> tuple:
        if name in env:
            return env[name]
        if name in pre_consts:
            return ("const", pre_consts[name])
        return ("linear", name, 0)

    for s in cycle.steps:
        if isinstance(s, tuple) and s[0] == "guard":
            atom = s[1]
            guard_evals.append((val(atom.left), atom.op, val(atom.right)))
            continue
        if isinstance(s, OpaqueUpdate):
            for name in s.names:
                env[name] = OPAQUE
        elif isinstance(s, ast.ConstAssign):
            env[s.target] = ("const", s.value) if s.value is not None else OPAQUE
        elif isinstance(s, ast.CopyAssign):
            env[s.target] = val(s.source)
        elif isinstance(s, ast.UnaryAssign):
            v = val(s.operand)
            if s.op == "-" and v[0] == "const":
                env[s.target] = ("const", wrap64(-v[1]))
            elif s.op == "!" and v[0] == "const":
                env[s.target] = ("const", 0 if v[1] != 0 else 1)
            else:
                env[s.target] = OPAQUE
        elif isinstance(s, ast.BinaryAssign):
            env[s.target] = _fold_bin(s.op, val(s.left), val(s.right))
        elif isinstance(s, (ast.FieldRead, ast.ArrayRead, ast.Call)):
            env[s.target] = OPAQUE
        elif isinstance(s, ast.Return):
            env["ret"] = val(s.value)
        elif isinstance(s, ast.BottomAssign):
            for rep in s.targets:
                if isinstance(rep, Scalar) and rep.method == method_id:
                    env[rep.name] = OPAQUE
        # Field/array writes do not change scalar state.
    return env, guard_evals


def _fold_bin(op: str, a: tuple, b: tuple) -> tuple:
    const_a = a[0] == "const"
    const_b = b[0] == "const"
    if op == "+":
        if const_a and const_b:
            return ("const", wrap64(a[1] + b[1]))
        if a[0] == "linear" and const_b:
            return ("linear", a[1], wrap64(a[2] + b[1]))
        if const_a and b[0] == "linear":
            return ("linear", b[1], wrap64(b[2] + a[1]))
    elif op == "-":
        if const_a and const_b:
            return ("const", wrap64(a[1] - b[1]))
        if a[0] == "linear" and const_b:
            return ("linear", a[1], wrap64(a[2] - b[1]))
    elif op == "*":
        if const_a and const_b:
            return ("const", wrap64(a[1] * b[1]))
    elif op in ("/", "%"):
        if const_a and const_b and b[1] != 0:
            return ("const", div64(op, a[1], b[1]))
    return OPAQUE


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


def check_termination(
    cs: CycleSet,
    pre_consts: dict[str, int] | None = None,
    method_id: str = "",
    bidirectional: bool = True,
) -> TerminationVerdict:
    """Terminating iff some counter advances by a constant nonzero stride in
    one direction in every closing cycle, and every closing cycle's guard
    bounds it (above for increasing, below for decreasing) by an identifier
    the loop never writes."""
    pre = pre_consts or {}
    if not cs.cycles:
        return TerminationVerdict(False, reason="no closing cycles")

    folded = [fold_cycle(c, pre, method_id) for c in cs.cycles]
    candidates: set[str] = set()
    for env, _ in folded:
        candidates.update(env.keys())

    for j in sorted(candidates):
        strides: list[int] = []
        ok = True
        for env, _ in folded:
            net = env.get(j, ("linear", j, 0))
            if net[0] == "linear" and net[1] == j:
                strides.append(net[2])
            else:
                ok = False
                break
        if not ok or not strides:
            continue
        if all(d > 0 for d in strides):
            increasing = True
        elif bidirectional and all(d < 0 for d in strides):
            increasing = False
        else:
            continue
        bound = _common_bound(cs, folded, j, increasing)
        if bound is not None:
            return TerminationVerdict(True, j, tuple(strides), bound)
    return TerminationVerdict(False, reason="no bounded constant-stride counter")


def _common_bound(cs: CycleSet, folded, j: str, increasing: bool) -> str | None:
    """A loop-invariant bound on `j` in every closing cycle's guard.

    Each guard is taken at its evaluation point so the tested value must be
    the entry value of `j` plus a constant; the bound side must be a constant
    or an identifier the loop never writes.
    """
    bounds: list[str] = []
    for _, guard_evals in folded:
        found = None
        for left, op, right in guard_evals:
            for tested, rel, other in ((left, op, right), (right, _FLIP[op], left)):
                if tested[0] != "linear" or tested[1] != j:
                    continue
                wanted = ("<", "<=") if increasing else (">", ">=")
                if rel not in wanted:
                    continue
                if other[0] == "const":
                    found = str(other[1])
                elif other[0] == "linear" and other[2] == 0 and other[1] not in cs.written_names:
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

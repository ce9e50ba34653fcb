"""Symbolic loop summaries for dependency-free loops.

A loop body path becomes a transition constraint: a guard over pre-state
variables conjoined with functional updates binding primed variables.
Composing transitions substitutes earlier updates into later guards and
updates, so a whole cycle collapses to one path formula over entry values.

Classification sorts the loop's effects into term types: counters (advance
by a per-cycle constant), the induction variable (advances by exactly one in
every cycle), i-indexed write arrays, and induction guards (predicates over
the induction variable and loop invariants only). A loop whose cycles update
nothing but counters and i-indexed arrays under induction guards is
dependency-free; its exact post-state follows from two inference rules:

  counter:      m' = m + sum_j d_j * num(pi_j[x/i], i, i'-1)
  write-array:  for all j, x in [i..i'-1]:  pi_j[x/i]  ==>  a'[x] = e_j[x/i]

`num(phi, k, l)` counts the integers in [k..l] satisfying phi; it stays
symbolic here. The analysis only needs a summary's shape, so the evaluator
that iterates a summary from a concrete entry state is the tests' reference
(`tests/reference_summaries.py`), which they hold to the interpreter. So is
the pairwise composition of transitions that `path_formula` does in one
pass.
"""

from __future__ import annotations

from .errors import NoInductionVariable, NotDependencyFree
from .lang import ast
from .representatives import Scalar
from .termination import CycleSet, OpaqueUpdate, linear_of
from .values import value

# Expressions are nested tuples:
#   ("num", c) | ("var", x) | ("bin", op, a, b) | ("neg", a) | ("not", a) | OPAQUE
OPAQUE_EXPR = ("opaque",)
# a composed update that `linear_of` cannot fold and that has more nodes than
# this becomes opaque, so formulas stay small however long the loop body is
MAX_UPDATE_NODES = 64


def num_expr(c: int) -> tuple:
    return ("num", c)

def var_expr(x: str) -> tuple:
    return ("var", x)


def _expr_nodes(e: tuple) -> int:
    if e[0] == "bin":
        return 1 + _expr_nodes(e[2]) + _expr_nodes(e[3])
    if e[0] in ("neg", "not"):
        return 1 + _expr_nodes(e[1])
    return 1


def expr_vars(e: tuple) -> set[str]:
    if e[0] == "var":
        return {e[1]}
    if e[0] == "bin":
        return expr_vars(e[2]) | expr_vars(e[3])
    if e[0] in ("neg", "not"):
        return expr_vars(e[1])
    return set()


def is_opaque(e: tuple) -> bool:
    if e == OPAQUE_EXPR:
        return True
    if e[0] == "bin":
        return is_opaque(e[2]) or is_opaque(e[3])
    if e[0] in ("neg", "not"):
        return is_opaque(e[1])
    return False


def subst_expr(e: tuple, updates: dict[str, tuple]) -> tuple:
    if e[0] == "var":
        return updates.get(e[1], e)
    if e[0] == "bin":
        return ("bin", e[1], subst_expr(e[2], updates), subst_expr(e[3], updates))
    if e[0] in ("neg", "not"):
        return (e[0], subst_expr(e[1], updates))
    return e


def render_expr(e: tuple, rename: dict[str, str] | None = None) -> str:
    if e[0] == "num":
        return str(e[1])
    if e[0] == "var":
        return (rename or {}).get(e[1], e[1])
    if e[0] == "bin":
        return f"({render_expr(e[2], rename)} {e[1]} {render_expr(e[3], rename)})"
    if e[0] == "neg":
        return f"(- {render_expr(e[1], rename)})"
    if e[0] == "not":
        return f"(! {render_expr(e[1], rename)})"
    return "?"


@value
class GuardAtom:
    left: tuple
    op: str
    right: tuple

    def substituted(self, updates: dict[str, tuple]) -> "GuardAtom":
        return GuardAtom(subst_expr(self.left, updates), self.op, subst_expr(self.right, updates))

    def vars(self) -> set[str]:
        return expr_vars(self.left) | expr_vars(self.right)

    def opaque(self) -> bool:
        return is_opaque(self.left) or is_opaque(self.right)

    def render(self, rename: dict[str, str] | None = None) -> str:
        return f"{render_expr(self.left, rename)} {self.op} {render_expr(self.right, rename)}"


@value
class Transition:
    """A guard over pre-state variables and the updates it enables."""

    guard: tuple[GuardAtom, ...]
    updates: tuple[tuple[str, tuple], ...]  # (var, expr), each var at most once
    arrays: tuple[tuple[str, tuple, tuple], ...] = ()  # (array, index, value)
    field_writes: tuple[str, ...] = ()

    def update_map(self) -> dict[str, tuple]:
        return dict(self.updates)

    def render(self) -> str:
        parts = [g.render() for g in self.guard]
        parts += [f"{v}' = {render_expr(e)}" for v, e in self.updates]
        parts += [
            f"{a}'[{render_expr(i)}] = {render_expr(e)}" for a, i, e in self.arrays
        ]
        return " and ".join(parts) if parts else "true"


def _canonical_update(e: tuple) -> tuple:
    """`e` as a constant, a variable, or a variable plus or minus a constant
    when `linear_of` folds it; otherwise `e`, or opaque past
    MAX_UPDATE_NODES nodes. Opaque only loses precision, so this is sound."""
    lin = linear_of(e)
    if lin is None:
        return OPAQUE_EXPR if _expr_nodes(e) > MAX_UPDATE_NODES else e
    if lin[0] == "const":
        return num_expr(lin[1])
    _, x, d = lin
    if d == 0:
        return var_expr(x)
    if ast.INT64_MIN < d < 0:
        return ("bin", "-", var_expr(x), num_expr(-d))
    return ("bin", "+", var_expr(x), num_expr(d))


def path_formula(transitions: list[Transition]) -> Transition:
    """The transitions composed in order, in one pass over a running update
    map: each step's guard, updates and array writes are substituted with
    the updates before that step, which eliminates the intermediates.
    Updates are stored in canonical form, so a long path does not build an
    expression that grows with its length."""
    updates: dict[str, tuple] = {}
    guard: list[GuardAtom] = []
    arrays: list[tuple[str, tuple, tuple]] = []
    field_writes: list[str] = []
    for t in transitions:
        guard += [g.substituted(updates) for g in t.guard]
        arrays += [(a, subst_expr(i, updates), subst_expr(e, updates)) for a, i, e in t.arrays]
        field_writes += t.field_writes
        if t.updates:
            updates.update([(v, _canonical_update(subst_expr(e, updates))) for v, e in t.updates])
    return Transition(
        tuple(guard), tuple(sorted(updates.items())), tuple(arrays), tuple(field_writes)
    )


# ---------------------------------------------------------------------------
# cycles -> transitions
# ---------------------------------------------------------------------------


def _operand(name: str, pre_consts: dict[str, int]) -> tuple:
    if name in pre_consts:
        return num_expr(pre_consts[name])
    return var_expr(name)


def step_transition(step, pre_consts: dict[str, int], method_id: str) -> Transition:
    if isinstance(step, ast.Cond):
        return Transition(
            (GuardAtom(_operand(step.left, pre_consts), step.op, _operand(step.right, pre_consts)),),
            (),
        )
    if isinstance(step, OpaqueUpdate):
        return Transition((), tuple((n, OPAQUE_EXPR) for n in sorted(step.names)))
    s = step
    if isinstance(s, ast.ConstAssign):
        e = num_expr(s.value) if s.value is not None else OPAQUE_EXPR
        return Transition((), ((s.target, e),))
    if isinstance(s, ast.CopyAssign):
        return Transition((), ((s.target, _operand(s.source, pre_consts)),))
    if isinstance(s, ast.UnaryAssign):
        kind = "neg" if s.op == "-" else "not"
        return Transition((), ((s.target, (kind, _operand(s.operand, pre_consts))),))
    if isinstance(s, ast.BinaryAssign):
        e = ("bin", s.op, _operand(s.left, pre_consts), _operand(s.right, pre_consts))
        return Transition((), ((s.target, e),))
    if isinstance(s, (ast.FieldRead, ast.ArrayRead, ast.Call)):
        return Transition((), ((s.target, OPAQUE_EXPR),))
    if isinstance(s, ast.Return):
        return Transition((), (("ret", _operand(s.value, pre_consts)),))
    if isinstance(s, ast.ArrayWrite):
        return Transition(
            (), (), ((s.array, _operand(s.index, pre_consts), _operand(s.source, pre_consts)),)
        )
    if isinstance(s, ast.FieldWrite):
        return Transition((), (), (), (f"{s.obj}.{s.field_name}",))
    if isinstance(s, ast.BottomAssign):
        ups = tuple((name, OPAQUE_EXPR) for name in ast.scalar_writes(s, method_id))
        heap = tuple(rep.render() for rep in s.targets if not isinstance(rep, Scalar))
        return Transition((), ups, (), heap)
    raise TypeError(f"no transition for {type(step).__name__}")


def cycle_formula(cycle: tuple, pre_consts: dict[str, int], method_id: str) -> Transition:
    """The composed transition of a cycle's steps (see `CycleSet`)."""
    return path_formula([step_transition(st, pre_consts, method_id) for st in cycle])


# ---------------------------------------------------------------------------
# term types and the dependency-free test
# ---------------------------------------------------------------------------


@value
class TermTypes:
    counters: dict[str, tuple[int, ...]]  # per closing cycle strides (0 = unchanged)
    induction: str
    synthetic_induction: bool
    write_arrays: frozenset[str]
    induction_guards: tuple[GuardAtom, ...]
    formulas: tuple[Transition, ...]  # one per closing cycle


@value
class DfVerdict:
    dependency_free: bool
    violation: int | None = None  # constraint 1, 2, or 3
    witness: str = ""

    def render(self) -> str:
        if self.dependency_free:
            return "dependency-free"
        return f"violation({self.violation}: {self.witness})"


DF_OK = DfVerdict(True)


def classify_terms(
    cs: CycleSet, formulas: tuple[Transition, ...], counters: dict[str, tuple[int, ...]]
) -> TermTypes:
    """Sort the loop's effects into counters, induction variable, write
    arrays, and induction guards; `formulas` holds the `cycle_formula` of
    each closing cycle of `cs` and `counters` their
    `termination.counter_strides`. Raises NoInductionVariable when no counter
    advances by a uniform constant stride in every cycle."""

    # induction variable: stride exactly one in every cycle; prefer one used
    # as an array index, then the lexicographically smallest
    unit = [j for j, ds in counters.items() if all(d == 1 for d in ds)]
    index_vars: set[str] = set()
    for f in formulas:
        for _, idx, _ in f.arrays:
            lin = linear_of(idx)
            if lin is not None and lin[0] == "linear" and lin[2] == 0:
                index_vars.add(lin[1])
    induction = None
    synthetic = False
    for j in unit:
        if j in index_vars:
            induction = j
            break
    if induction is None and unit:
        induction = unit[0]
    if induction is None:
        # normalize a uniform-stride counter to a fresh unit-stride variable
        uniform = [j for j, ds in counters.items() if len(set(ds)) == 1]
        if uniform:
            induction = "%iter"
            synthetic = True
        else:
            raise NoInductionVariable(
                f"loop at node {cs.header}: no uniformly incremented constant-stride counter"
            )

    ct_other = {v for f in formulas for v, _ in f.updates} - {induction}
    write_arrays: set[str] = set()
    array_names: set[str] = set()
    for f in formulas:
        array_names.update(a for a, _, _ in f.arrays)
    for a in sorted(array_names):
        ok = True
        for f in formulas:
            writes = [(i, e) for arr, i, e in f.arrays if arr == a]
            if not writes:
                continue
            if len(writes) != 1 or synthetic:
                ok = False
                break
            idx, val = writes[0]
            lin = linear_of(idx)
            if lin is None or lin != ("linear", induction, 0):
                ok = False
                break
            if is_opaque(val) or (expr_vars(val) & ct_other):
                ok = False
                break
        if ok:
            write_arrays.add(a)

    seen_guards: set = set()
    ig: list[GuardAtom] = []
    for f in formulas:
        for atom in f.guard:
            if atom in seen_guards:
                continue
            seen_guards.add(atom)
            if not atom.opaque() and not (atom.vars() & ((ct_other | write_arrays) - {induction})):
                ig.append(atom)

    return TermTypes(
        counters=counters,
        induction=induction,
        synthetic_induction=synthetic,
        write_arrays=frozenset(write_arrays),
        induction_guards=tuple(ig),
        formulas=formulas,
    )


def df_check(cs: CycleSet, tt: TermTypes, distinct_array_parts=None) -> DfVerdict:
    """The three dependency-freedom constraints, plus two framework
    preconditions folded into them: a path leaving the loop through a return
    updates `ret` (never a counter), and aliased write arrays would make the
    per-name formulas contradict each other."""
    if cs.exits:
        return DfVerdict(False, 1, "ret := ... (loop has a side exit)")
    ig = set(tt.induction_guards)
    for f in tt.formulas:
        for v, e in f.updates:
            if v not in tt.counters:
                return DfVerdict(False, 1, f"{v}' = {render_expr(e)}")
        for a, idx, e in f.arrays:
            if a not in tt.write_arrays:
                return DfVerdict(
                    False, 2, f"{a}'[{render_expr(idx)}] = {render_expr(e)}"
                )
        for w in f.field_writes:
            return DfVerdict(False, 2, f"{w} := ...")
        for atom in f.guard:
            if atom not in ig:
                return DfVerdict(False, 3, atom.render())
    if distinct_array_parts is not None and len(tt.write_arrays) > 1:
        parts = {a: distinct_array_parts(a) for a in tt.write_arrays}
        if len(set(parts.values())) != len(parts):
            return DfVerdict(False, 2, "write arrays may alias")
    return DF_OK


# ---------------------------------------------------------------------------
# summary inference
# ---------------------------------------------------------------------------


@value
class LoopSummary:
    induction: str
    synthetic_induction: bool
    counter_terms: tuple[tuple[str, tuple[tuple[int, tuple[GuardAtom, ...]], ...]], ...]
    array_cases: tuple[tuple[str, tuple[tuple[tuple[GuardAtom, ...], tuple], ...]], ...]
    # exit closure: bounds are common atoms (i rel b); inv_atoms are common
    # invariant-only atoms that gate whether the loop runs at all
    bounds: tuple[tuple[str, tuple], ...] = ()
    inv_atoms: tuple[GuardAtom, ...] = ()
    closable: bool = False

    def render(self) -> str:
        rename = {self.induction: "x"}
        lines = []
        for m, terms in self.counter_terms:
            parts = [
                f"{d} * num({_render_guard(g, rename)}, i, i'-1)" for d, g in terms
            ]
            lines.append(f"{m}' = {m} + " + " + ".join(parts))
        for a, cases in self.array_cases:
            for g, e in cases:
                lines.append(
                    f"forall x in [i..i'-1]: {_render_guard(g, rename)} ==> "
                    f"{a}'[x] = {render_expr(e, rename)}"
                )
        for op, bexpr in self.bounds:
            lines.append(f"exit: i' = first i with not (i {op} {render_expr(bexpr)})")
        return "\n".join(lines) if lines else "identity"


def _render_guard(guard: tuple[GuardAtom, ...], rename: dict[str, str]) -> str:
    return " and ".join(a.render(rename) for a in guard) if guard else "true"


def summarize(cs: CycleSet, tt: TermTypes) -> LoopSummary:
    """Apply the counter and write-array rules to a dependency-free loop."""
    verdict = df_check(cs, tt)
    if not verdict.dependency_free:
        raise NotDependencyFree(verdict.render())

    counter_terms = []
    for m, strides in sorted(tt.counters.items()):
        if m == tt.induction and not tt.synthetic_induction:
            continue  # the induction variable's exit value is i' itself
        terms = [
            (d, tt.formulas[j].guard)
            for j, d in enumerate(strides)
            if d != 0
        ]
        if terms:
            counter_terms.append((m, tuple(terms)))

    array_cases = []
    for a in sorted(tt.write_arrays):
        cases = []
        for f in tt.formulas:
            writes = [(i, e) for arr, i, e in f.arrays if arr == a]
            if writes:
                cases.append((f.guard, writes[0][1]))
        if cases:
            array_cases.append((a, tuple(cases)))

    bounds: list[tuple[str, tuple]] = []
    inv_atoms: list[GuardAtom] = []
    closable = False
    if not tt.synthetic_induction:
        common: set[GuardAtom] | None = None
        for f in tt.formulas:
            here = set(f.guard)
            common = here if common is None else common & here
        closable = True
        for atom in sorted(common or (), key=repr):
            lin_l, lin_r = linear_of(atom.left), linear_of(atom.right)
            if (
                lin_l == ("linear", tt.induction, 0)
                and atom.op in ("<", "<=")
                and lin_r is not None
                and (lin_r[0] == "const" or (lin_r[0] == "linear" and lin_r[2] == 0))
            ):
                bounds.append((atom.op, atom.right))
            elif tt.induction not in atom.vars():
                inv_atoms.append(atom)
            else:
                # a common atom over the induction variable we cannot invert
                closable = False
        if not bounds:
            closable = False

    return LoopSummary(
        induction=tt.induction,
        synthetic_induction=tt.synthetic_induction,
        counter_terms=tuple(counter_terms),
        array_cases=tuple(array_cases),
        bounds=tuple(bounds),
        inv_atoms=tuple(inv_atoms),
        closable=closable,
    )

"""Generator determinism, validity, and density contracts."""

import runpy
from pathlib import Path

from cook.generator import GenParams, generate_df_loop, generate_program
from cook.lang import ast, load, pretty
from cook.pipeline import ProgramModel
import profiles


def test_deterministic_for_fixed_seed():
    a = generate_program(42, GenParams(methods=10))
    b = generate_program(42, GenParams(methods=10))
    assert a == b
    assert pretty(a) == pretty(b)


def test_different_seeds_differ():
    assert generate_program(1) != generate_program(2)


def test_method_count_matches_request():
    p = generate_program(5, GenParams(methods=17))
    assert sum(1 for m in p.methods if not m.extern) == 17


def test_generated_programs_validate():
    for seed in range(30):
        p = generate_program(
            seed,
            GenParams(methods=6, loop=0.3, opaque_loop=0.1, recursion=0.1,
                      extern=0.15, virtual=0.3),
            normalize=False,
        )
        load(pretty(p))  # parses and checks


def test_zero_divergence_densities_give_all_islands(run_pipeline):
    for seed in range(8):
        # no loops, recursion, or API calls: nothing can introduce divergence
        p = generate_program(
            seed,
            GenParams(methods=8, loop=0.0, opaque_loop=0.0, recursion=0.0,
                      extern=0.0, call=0.35),
        )
        model, result = run_pipeline(pretty(p))
        assert not result.swamp, (seed, sorted(result.swamp))


def test_flat_counted_loops_keep_everything_on_islands(run_pipeline):
    for seed in range(6):
        # depth 1 rules out nesting, so every counted loop is provable
        p = generate_program(
            seed,
            GenParams(methods=8, loop=0.35, opaque_loop=0.0, recursion=0.0,
                      extern=0.0, call=0.3, max_depth=1),
        )
        model, result = run_pipeline(pretty(p))
        assert not result.swamp, (seed, sorted(result.swamp))


def test_divergence_knobs_produce_swamp(run_pipeline):
    p = generate_program(
        3, GenParams(methods=10, opaque_loop=0.25, recursion=0.1, extern=0.2)
    )
    model, result = run_pipeline(pretty(p))
    assert result.swamp


def test_grammar_production_coverage():
    """Across a few seeds the corpus exercises every statement form."""
    seen = set()
    for seed in range(25):
        p = generate_program(
            seed,
            GenParams(methods=8, loop=0.3, opaque_loop=0.1, recursion=0.1,
                      extern=0.15, heap=0.5, virtual=0.3),
        )
        for m in p.methods:
            if m.extern:
                continue
            for s in ast.walk(m.body):
                seen.add(type(s).__name__)
    required = {
        "ConstAssign",
        "CopyAssign",
        "UnaryAssign",
        "BinaryAssign",
        "FieldRead",
        "FieldWrite",
        "ArrayRead",
        "ArrayWrite",
        "IfElse",
        "While",
        "Call",
        "Return",
    }
    assert required <= seen, required - seen


def test_df_loop_generator_is_deterministic_and_valid():
    a, mid = generate_df_loop(9)
    b, _ = generate_df_loop(9)
    assert a == b
    p, sym = load(a)
    assert mid in sym.methods


def test_innermost_counted_loops_always_terminate():
    p = generate_program(11, GenParams(methods=8, loop=0.4, opaque_loop=0.0))
    model = ProgramModel(p)
    checked = 0
    for mm in model.methods.values():
        ids_with_children = {lm.info.parent for lm in mm.loops if lm.info.parent is not None}
        for lm in mm.loops:
            if lm.info.id not in ids_with_children:  # innermost
                assert lm.verdict.terminates, mm.method.id
                checked += 1
    assert checked


def test_the_test_profiles_are_the_benchmark_workloads():
    bench = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    for name in ("CENSUS", "ISLANDS", "LOOP_DENSE"):
        assert GenParams(**getattr(profiles, name)) == GenParams(**bench[name]), name

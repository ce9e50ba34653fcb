"""Generator determinism, validity, and density contracts."""

import hashlib
import runpy
from pathlib import Path

import pytest

from cook.generator import GenParams, generate_df_loop, generate_program
from cook.lang import ast, load, pretty
from cook.pipeline import ProgramModel
import profiles

# profiles whose seed-0 to seed-19 texts are pinned below
PINNED = dict(
    census=profiles.CENSUS,
    islands=profiles.ISLANDS,
    loop_dense=profiles.LOOP_DENSE,
    default={},
    dispatch=dict(virtual=0.5, recursion=0.1, extern=0.1, heap=0.5),
)
# the first 16 hex digits of the sha256 of each seed's text, seeds 0 to 19: a
# change that adds, drops or reorders a random draw, or changes a list drawn
# from, changes the text
GOLDEN = {
    "census": (
        "bd547942eeddecc0", "79f955c8bed9d9ef", "9c58d5c255c5dc08", "02032bd9834eaa2c",
        "94016b84bec87ef8", "7a8e4d5483b35d99", "7091ab7336fa32b3", "b4559ee8c527136e",
        "f88e4893bb0f0413", "456bc4fef699ee82", "911412ac75528ff4", "8dc864397e62ce2c",
        "e1ed0fd54d532bda", "7d7ba8226075665b", "60b077e33d0c11d7", "0dbe48eca8abaf23",
        "c7bcb1e40b98105d", "0f632443af9765cf", "891c7e60f92c85ee", "2c8550a4afd5b682",
    ),
    "islands": (
        "34c4ee89854b7e45", "de52a125b8d3a08e", "9089c1b1a8cd8bdc", "034cf89287c4b1ed",
        "56e8fe5d6af3f8be", "46219ae7a61f07a2", "d9f4a289175038ec", "8134a11ad2475699",
        "1213041ac7f53a09", "3dca66479b9b84ad", "db3148311212c1ac", "cc5c2be6f9a6a6f4",
        "062dcc3e4b79d45c", "b94c6062afbbe148", "c4faa33eaed830d8", "2d5042159dc574c7",
        "4da8ee44bdaa272d", "5b84ecb47d56ffad", "7022a71dfb3c1f21", "14a60f9366e8dee8",
    ),
    "loop_dense": (
        "3c137bea08ab1081", "f2afb301c1340856", "c6b3f250da8351b6", "a54398c407e3da61",
        "b1fa88fb4c24fa8b", "e7d208f31b4d5347", "6098c78be5896b05", "5dad57ce1b259231",
        "68607d50a1c091c3", "369c2dbf18589974", "6b2f5ef2d135d525", "dd375c35d85c6471",
        "7834323217c738cf", "ff4e79308ea7f29e", "b3622af0be0540c3", "d64eec678a489702",
        "154c3da61a246e08", "5fc133ed8d01d0b2", "f9f84bece1a00831", "d805702a952f268b",
    ),
    "default": (
        "2c20365d10a8bd8b", "63cae7d8ead24885", "ac7672e5bfb29736", "a0deaa316356becd",
        "03c42a9f3fd98b1f", "9c9b8bf97c4fa276", "716e62c08b2320d5", "59856c90a65d9ca8",
        "fdab385261263210", "3c31cf7bd0b5da5b", "3aaec37d93bc5e7a", "21708da3cee54226",
        "ff447e1a244b1844", "e818cf83f58a23e2", "cebb931b9efcdbe2", "d4ab20eae8e22718",
        "e6da168a0c41f4c2", "25bf1e08d332cb4d", "30f374d491caa64e", "034a4aae9411f012",
    ),
    "dispatch": (
        "1537fca9fc887e10", "b65b252a092d104e", "e198a496ea0d6c88", "622f9fb5e6e86e1f",
        "b9f59b7095571400", "710a83ae23d22d64", "3463eb96530b2b1e", "71057d89e285706e",
        "53acc8d7d2158282", "bfc7b01320b9f8bd", "bf7e740d98c440b1", "87fbaf7c5b80c101",
        "402f53bf83a7a9c7", "cfd5aac6c5eb4f7f", "c756618a0ff5b329", "e69c5502367dd05b",
        "e7a24e9694e7e709", "184a116b8315a089", "faae712aceff5256", "10ffad56d03494ba",
    ),
    "df_loop": (
        "e27d73a48897eaf4", "84fce3762521db43", "8ae82af040360bb2", "5373d0d4c8574a40",
        "e9e2569dec7bf5e9", "9ebed2197d74b029", "c0791b479964d07d", "394090b8d5e65a2e",
        "004b12f2ddcbce93", "794f73cb76b7987e", "7d216c776b1fe628", "f7d95af79966fcbf",
        "d963e18818fd6264", "ea21f38d6e5282e3", "80ed815725b93293", "ada5d059c84a01c7",
        "bc389d843b055ab3", "7a6eb8b1ee18893c", "6305267e2de68f78", "099cd8904c8fe5f8",
    ),
}
GOLDEN_BASELINE_1000 = "5a15093f6f827bd8"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def printed(seed: int, profile: dict) -> str:
    return pretty(generate_program(seed, GenParams(**profile), normalize=False))


@pytest.mark.parametrize("profile", sorted(PINNED))
def test_generated_text_matches_its_golden_digest(profile):
    got = tuple(digest(printed(seed, PINNED[profile])) for seed in range(20))
    assert got == GOLDEN[profile]


def test_df_loop_text_matches_its_golden_digest():
    assert tuple(digest(generate_df_loop(seed)[0]) for seed in range(20)) == GOLDEN["df_loop"]


def test_a_thousand_method_program_matches_its_golden_digest():
    assert digest(printed(0, dict(profiles.BASELINE, methods=1000))) == GOLDEN_BASELINE_1000


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
    for name in ("CENSUS", "ISLANDS", "LOOP_DENSE", "BASELINE"):
        assert GenParams(**getattr(profiles, name)) == GenParams(**bench[name]), name

"""The generator profiles of the benchmark's three workloads and of its
ROADMAP baseline program, as keyword
arguments of `cook.generator.GenParams`, for the tests that check a property
on programs like the benchmark's. `perfbench/workloads.py` defines the same
profiles; `tests/test_generator.py` holds the two equal."""

CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
ISLANDS = dict(methods=50, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1)
# the program the ROADMAP's baseline times were measured on
BASELINE = dict(CENSUS, methods=200, classes=4)
# the `loops` workload's loop-dense programs, analyzed under the summary policy
LOOP_DENSE = dict(methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1)

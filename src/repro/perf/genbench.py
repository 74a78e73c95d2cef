"""Generator-only speed gate: vectorized vs per-case corpus generation.

The full perf report times ``stage("generate")`` inside the pipeline,
where the number is polluted by whatever else the process is doing --
first-touch cache misses, collector pauses charged to the open stage,
scheduler allocations aging the heap.  On a noisy CI box those effects
swamp a generator-only comparison.  This module benchmarks *just* the
front end, the way a microbenchmark should:

* the workload is every distinct generator shape of :data:`PRESET`
  (the ``paper3500`` sweep legs dedupe to its size-sweep values) times
  :data:`COUNT` seeds, the exact serial attempt-seed sequence;
* the two arms -- per-case :func:`repro.synth.corpus.compile_case` and
  vectorized :func:`repro.synth.genvec.compile_cases` -- run
  *interleaved*, shape by shape, repetition by repetition, so machine
  noise hits both arms alike;
* each shape's time is the **best of N repetitions** per arm, the
  standard defense against preemption spikes;
* the compiled corpora are digested and compared: the gate fails on
  any program difference before it ever looks at a ratio.

``python -m repro.perf.genbench`` runs the gate from CI (see the
``scale-gates`` job); it takes no flags, the shape is the module
constants below.  Exit status 1 means the vectorized generator lost
its edge or, worse, changed a program.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

from repro import kernels
from repro.experiments.sweeps import ExperimentPoint, _set_axis
from repro.perf.gctune import batched_gc
from repro.perf.report import PRESETS
from repro.synth import genvec
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

__all__ = ["bench_generate", "generator_shapes", "main"]

PRESET = "paper3500"
#: Seeds per shape: the preset's corpus size.
COUNT = 100
REPS = 3
#: CI acceptance: vectorized generation must beat per-case python by
#: at least this factor over the preset's shapes.
MIN_RATIO = 3.0


def generator_shapes(preset: str) -> list[GeneratorConfig]:
    """The distinct generator configurations a preset sweeps.

    Legs that sweep scheduler axes contribute their (fixed) base
    generator; legs that sweep generator axes contribute one config per
    value.  Order follows first appearance, duplicates collapse -- the
    ``paper3500`` preset's 35 points dedupe to its size-sweep shapes.
    """
    if preset not in PRESETS:
        raise ValueError(
            f"unknown perf preset {preset!r}; expected one of "
            f"{', '.join(sorted(PRESETS))}"
        )
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=20, n_variables=8)
    )
    shapes: dict[GeneratorConfig, None] = {}
    for axis, values, overrides in PRESETS[preset]:
        point = base
        for over_axis, over_value in overrides.items():
            point = _set_axis(point, over_axis, over_value)
        if axis.startswith("generator."):
            for value in values:
                shapes.setdefault(_set_axis(point, axis, value).generator)
        else:
            shapes.setdefault(point.generator)
    return list(shapes)


def _corpus_digest(cases) -> str:
    """Identity of a compiled corpus: seeds and optimized programs."""
    blob = repr([(case.seed, case.program.tuples) for case in cases])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def bench_generate() -> dict:
    """Run the interleaved generator benchmark; return its record.

    The workload is :data:`PRESET`'s shapes x :data:`COUNT` seeds (seed
    0), best of :data:`REPS`.  The record carries per-shape best times
    for both arms, the summed totals, their ratio, and ``identical`` --
    whether every shape's vectorized corpus digested equal to the
    per-case one.
    """
    shapes = generator_shapes(PRESET)
    stream = random.Random(0)  # the serial attempt-seed order
    seeds = [stream.getrandbits(48) for _ in range(COUNT)]
    for config in shapes:
        if not genvec.supported(config):
            raise RuntimeError(
                f"vectorized generator does not cover {config}; "
                "the gate would compare python against itself"
            )
    if not kernels.use_numpy("genvec", COUNT):
        raise RuntimeError(
            "genvec resolves to the python path here "
            f"(count {COUNT}, threshold {kernels.THRESHOLDS['genvec']}, "
            f"numpy importable: {kernels.have_numpy()}); "
            "the gate would compare python against itself"
        )

    best_py = [float("inf")] * len(shapes)
    best_vec = [float("inf")] * len(shapes)
    best_py_cpu = [float("inf")] * len(shapes)
    best_vec_cpu = [float("inf")] * len(shapes)
    identical = True
    # Both arms run under the same collector regime as the deployed
    # pipeline (see :mod:`repro.perf.gctune`), and each corpus is
    # digested and dropped before the other arm is timed -- a hundred
    # live cases in the young generation would otherwise turn every
    # gen-0 collection inside the timed region into a full re-walk.
    with batched_gc():
        for rep in range(max(1, REPS)):
            for i, config in enumerate(shapes):
                c0 = time.process_time()
                t0 = time.perf_counter()
                py_cases = [compile_case(config, s) for s in seeds]
                best_py[i] = min(best_py[i], time.perf_counter() - t0)
                best_py_cpu[i] = min(
                    best_py_cpu[i], time.process_time() - c0
                )
                py_digest = _corpus_digest(py_cases) if rep == 0 else None
                del py_cases
                c0 = time.process_time()
                t0 = time.perf_counter()
                vec_cases = genvec.compile_cases(config, seeds)
                best_vec[i] = min(best_vec[i], time.perf_counter() - t0)
                best_vec_cpu[i] = min(
                    best_vec_cpu[i], time.process_time() - c0
                )
                if rep == 0 and _corpus_digest(vec_cases) != py_digest:
                    identical = False
                del vec_cases
    py_total = sum(best_py)
    vec_total = sum(best_vec)
    return {
        "preset": PRESET,
        "count": COUNT,
        "reps": REPS,
        "shapes": [
            {
                "n_statements": config.n_statements,
                "n_variables": config.n_variables,
                "python_s": best_py[i],
                "python_cpu_s": best_py_cpu[i],
                "vectorized_s": best_vec[i],
                "vectorized_cpu_s": best_vec_cpu[i],
            }
            for i, config in enumerate(shapes)
        ],
        "python_s": py_total,
        "python_cpu_s": sum(best_py_cpu),
        "vectorized_s": vec_total,
        "vectorized_cpu_s": sum(best_vec_cpu),
        "ratio": py_total / vec_total if vec_total else float("inf"),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the gate; any command-line argument is an error (exit 2)."""
    if argv:
        print(
            f"usage: python -m repro.perf.genbench (takes no arguments; the "
            f"shape is the module constants PRESET, COUNT, REPS, MIN_RATIO); got {' '.join(argv)}",
            file=sys.stderr,
        )
        return 2
    record = bench_generate()
    for shape in record["shapes"]:
        ratio = (
            shape["python_s"] / shape["vectorized_s"]
            if shape["vectorized_s"]
            else float("inf")
        )
        print(
            f"S={shape['n_statements']:<3} V={shape['n_variables']:<3} "
            f"python {shape['python_s']:.3f}s  "
            f"vectorized {shape['vectorized_s']:.3f}s  {ratio:.2f}x"
        )
    print(
        f"total ({record['count']} seeds x {len(record['shapes'])} shapes, "
        f"best of {record['reps']}): python {record['python_s']:.3f}s "
        f"({record['python_cpu_s']:.3f}s cpu)  "
        f"vectorized {record['vectorized_s']:.3f}s "
        f"({record['vectorized_cpu_s']:.3f}s cpu)  "
        f"speedup {record['ratio']:.2f}x"
    )
    if not record["identical"]:
        print(
            "generate-gate: vectorized generator changed a compiled "
            "program",
            file=sys.stderr,
        )
        return 1
    if record["ratio"] < MIN_RATIO:
        print(
            f"generate-gate: vectorized generator is not "
            f">={MIN_RATIO:g}x faster ({record['ratio']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

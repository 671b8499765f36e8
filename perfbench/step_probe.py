"""Measure public engine steps one call at a time, outside the traced run.

    python3 perfbench/step_probe.py SCHEMA DATA OUT_DIR VARIANT [...]

First calls ``prepare`` for each variant under ``tracemalloc`` and records
its peak traced allocation (kept out of the traced run, whose timings it
would inflate). Then reloads each ``<variant>.report.txt`` that
``harr cluster`` wrote to OUT_DIR and, for every run in it, refits
prototypes from the final labels with ``update_prototypes``. For the
variants that cluster on the reconstructed space it then calls ``assign``
with the run's final weights, and for HARR-V and HARR-M the matching
``update_weight_*``. Prints one JSON object with the peak bytes of every
``prepare`` and the seconds of every step call.
"""

import json
import sys
import time
import tracemalloc

RECONSTRUCTED = ("HARR-V", "HARR-M", "HAR")


def main() -> int:
    schema, data, out_dir, *variants = sys.argv[1:]
    from harr.bench import load_dataset
    from harr.cluster import (
        Partition,
        WeightMatrix,
        WeightVector,
        assign,
        prepare,
        update_prototypes,
        update_weight_matrix,
        update_weight_vector,
    )
    from harr.report import load_report, variant_slug

    dataset = load_dataset(schema, data)
    peaks = []
    space = None
    for variant in variants:
        tracemalloc.start()
        prep = prepare(dataset, variant)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        space = space or prep.space
        del prep
    results = {"prepare_peak_bytes": peaks, "refit": [], "assign": [], "weight_refresh": []}

    def timed(step, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        results[step].append(time.perf_counter() - start)
        return result

    for variant in variants:
        report = load_report(f"{out_dir}/{variant_slug(variant)}.report.txt")
        for run in report.run_reports:
            partition = Partition(run.labels, run.k)
            protos = timed("refit", update_prototypes, dataset, partition)
            if variant not in RECONSTRUCTED:
                continue
            if run.weight_matrix is not None:
                weights = WeightMatrix(run.weight_matrix)
            else:
                weights = WeightVector(run.weights)
            timed("assign", assign, dataset, space, protos, weights)
            if variant == "HARR-V":
                timed("weight_refresh", update_weight_vector, dataset, space, partition, protos)
            elif variant == "HARR-M":
                timed("weight_refresh", update_weight_matrix, dataset, space, partition, protos)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

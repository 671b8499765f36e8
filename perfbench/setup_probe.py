"""Time the set-up every seeded run of ``harr cluster`` shares.

    python3 perfbench/setup_probe.py SCHEMA DATA VARIANT [VARIANT ...]

Runs in a fresh process, like the CLI: imports ``harr``, loads the dataset
with ``load_dataset`` and calls ``prepare`` once per variant, keeping one
prepared representation alive at a time as ``cmd_cluster`` does. Prints
one JSON object with the seconds of each step and their sum, ``setup_s``.
"""

import json
import sys
import time


def main() -> int:
    schema, data, *variants = sys.argv[1:]
    start = time.perf_counter()
    from harr.bench import load_dataset
    from harr.cluster import prepare

    imported = time.perf_counter()
    dataset = load_dataset(schema, data)
    loaded = time.perf_counter()
    for variant in variants:
        prep = prepare(dataset, variant)
    del prep
    prepared = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "load_s": loaded - imported,
                "prepare_s": prepared - loaded,
                "setup_s": prepared - start,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

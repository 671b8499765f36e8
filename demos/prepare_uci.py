"""
Convert raw public benchmark files into the schema/data/labels layout
=====================================================================

The reproduction tests read three pure-categorical datasets from
``data/uci/<name>/{schema.txt,data.csv,labels.txt}``. Download the raw
files manually (they are not fetched automatically):

* soybean:     soybean-large.data
* solar_flare: flare.data1
* mushroom:    agaricus-lepiota.data

then run, from the repository root:

    python demos/prepare_uci.py soybean path/to/soybean-large.data
    python demos/prepare_uci.py solar_flare path/to/flare.data1
    python demos/prepare_uci.py mushroom path/to/agaricus-lepiota.data

Rows with missing cells ('?') are dropped; attributes that still contain
missing cells afterwards, or that are constant, are dropped column-wise
(mushroom's stalk-root and veil-type). Every attribute is declared nominal.
"""

import argparse
import os
import sys

from harr.report import write_label_file

DATASETS = {
    # name: (delimiter, label column, drop strategy)
    "soybean": (",", 0, "rows"),
    "solar_flare": (None, 0, "rows"),
    "mushroom": (",", 0, "columns"),
}


def read_raw(path, delimiter):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            toks = line.split(delimiter) if delimiter else line.split()
            rows.append([t.strip() for t in toks])
    width = max(len(r) for r in rows)
    return [r for r in rows if len(r) == width]


def convert(rows, label_col, drop):
    labels_raw = [r[label_col] for r in rows]
    data = [[c for i, c in enumerate(r) if i != label_col] for r in rows]
    if drop == "rows":
        keep = [i for i, row in enumerate(data) if "?" not in row]
        data = [data[i] for i in keep]
        labels_raw = [labels_raw[i] for i in keep]
    d = len(data[0])
    keep_cols = []
    for c in range(d):
        column = [row[c] for row in data]
        if "?" in column:
            continue
        if len(set(column)) < 2:
            continue
        keep_cols.append(c)
    data = [[row[c] for c in keep_cols] for row in data]
    class_ids = {}
    labels = [class_ids.setdefault(x, len(class_ids) + 1) for x in labels_raw]
    return data, labels


def write_outputs(name, data, labels, out_root):
    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    d = len(data[0])
    with open(os.path.join(out_dir, "schema.txt"), "w", encoding="utf-8") as fh:
        for c in range(d):
            seen = {}
            for row in data:
                seen.setdefault(row[c], None)
            fh.write(f"attr{c + 1},nom,{'|'.join(seen)}\n")
    with open(os.path.join(out_dir, "data.csv"), "w", encoding="utf-8") as fh:
        for row in data:
            fh.write(",".join(row) + "\n")
    write_label_file(labels, os.path.join(out_dir, "labels.txt"))
    return out_dir


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("name", choices=sorted(DATASETS))
    parser.add_argument("raw_file", help="downloaded raw data file")
    parser.add_argument("--out", default="data/uci", help="output root directory")
    args = parser.parse_args(argv)
    delimiter, label_col, drop = DATASETS[args.name]
    rows = read_raw(args.raw_file, delimiter)
    data, labels = convert(rows, label_col, drop)
    out_dir = write_outputs(args.name, data, labels, args.out)
    print(
        f"{args.name}: {len(data)} objects, {len(data[0])} attributes, "
        f"{len(set(labels))} classes -> {out_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

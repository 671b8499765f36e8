"""Independent brute-force oracles.

Everything here is written as a direct transliteration of the defining
counting/summation rules, in plain Python loops, deliberately sharing no
code with the vectorized implementations it checks.
"""

from __future__ import annotations

import io
import itertools
import math
import warnings

import numpy as np

from harr.schema import AttributeKind, DataError, Dataset, DatasetSchema, OrdinalView


def cpd_oracle(
    codes: np.ndarray, target: int, context: int, v_target: int, v_context: int
) -> np.ndarray:
    """p(context=j | target=g) by explicit counting over rows."""
    n = codes.shape[0]
    probs = np.zeros((v_target, v_context))
    for g in range(1, v_target + 1):
        denom = sum(1 for i in range(n) if codes[i, target] == g)
        if denom == 0:
            continue
        for j in range(1, v_context + 1):
            num = sum(
                1
                for i in range(n)
                if codes[i, context] == j and codes[i, target] == g
            )
            probs[g - 1, j - 1] = num / denom
    return probs


def kappa_nominal_oracle(view: OrdinalView, r: int) -> np.ndarray:
    """Pairwise base distance: total-variation difference of conditional
    distributions, summed over every context attribute (self included).

    Each context's conditional table is counted once and reused across value
    pairs; the pair sums themselves stay explicit loops.
    """
    v = view.bin_counts[r]
    d = len(view.bin_counts)
    tables = [
        cpd_oracle(view.codes, r, s, v, view.bin_counts[s]) for s in range(d)
    ]
    kappa = np.zeros((v, v))
    for g in range(v):
        for h in range(v):
            total = 0.0
            for s in range(d):
                for j in range(view.bin_counts[s]):
                    total += abs(tables[s][g, j] - tables[s][h, j])
            kappa[g, h] = total
    return kappa


def kappa_ordinal_oracle(view: OrdinalView, r: int) -> np.ndarray:
    """Adjacent-rank base distances accumulated along the order."""
    v = view.bin_counts[r]
    d = len(view.bin_counts)
    tables = [
        cpd_oracle(view.codes, r, s, v, view.bin_counts[s]) for s in range(d)
    ]
    adjacent = []
    for t in range(v - 1):
        total = 0.0
        for s in range(d):
            for j in range(view.bin_counts[s]):
                total += abs(tables[s][t, j] - tables[s][t + 1, j])
        adjacent.append(total)
    kappa = np.zeros((v, v))
    for g in range(v):
        for h in range(g + 1, v):
            kappa[g, h] = kappa[h, g] = math.fsum(adjacent[g:h])
    return kappa


def base_distance_table_oracle(
    dataset: Dataset, view: OrdinalView
) -> list[np.ndarray | None]:
    out: list[np.ndarray | None] = []
    for r, attr in enumerate(dataset.schema.attributes):
        if not attr.kind.is_categorical:
            out.append(None)
        elif attr.kind is AttributeKind.ORDINAL:
            out.append(kappa_ordinal_oracle(view, r))
        else:
            out.append(kappa_nominal_oracle(view, r))
    return out


def weight_vector_oracle(
    phi: np.ndarray, labels0: np.ndarray, k: int, epsilon: float
) -> np.ndarray:
    """Shared weight vector from per-attribute object-prototype distances.

    ``phi[i, l, r]`` is the distance between object i and prototype l on
    attribute r of the expanded set.
    """
    n, _, m = phi.shape
    importances = []
    for r in range(m):
        intra = 0.0
        inter = 0.0
        for i in range(n):
            for l in range(k):
                if labels0[i] == l:
                    intra += phi[i, l, r]
                else:
                    inter += phi[i, l, r]
        intra /= n
        inter /= n * (k - 1)
        importances.append(inter / (intra + epsilon))
    total = sum(importances)
    if total == 0:
        return np.full(m, 1.0 / m)
    return np.array([imp / total for imp in importances])


def weight_matrix_oracle(
    phi: np.ndarray, labels0: np.ndarray, k: int, epsilon: float
) -> np.ndarray:
    n, _, m = phi.shape
    out = np.zeros((k, m))
    for l in range(k):
        size = sum(1 for i in range(n) if labels0[i] == l)
        importances = []
        for r in range(m):
            intra = sum(phi[i, l, r] for i in range(n) if labels0[i] == l)
            inter = sum(phi[i, l, r] for i in range(n) if labels0[i] != l)
            intra /= size
            inter /= n - size
            importances.append(inter / (intra + epsilon))
        total = sum(importances)
        if total == 0:
            out[l] = 1.0 / m
        else:
            out[l] = [imp / total for imp in importances]
    return out


def ari_paircount_oracle(labels, pred) -> float:
    """Adjusted agreement by explicit enumeration of all object pairs."""
    labels = list(labels)
    pred = list(pred)
    n = len(labels)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_truth = labels[i] == labels[j]
            same_pred = pred[i] == pred[j]
            if same_truth and same_pred:
                a += 1
            elif same_truth:
                b += 1
            elif same_pred:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        canon = lambda xs: [xs.index(x) for x in xs]  # noqa: E731
        return 1.0 if canon(labels) == canon(pred) else 0.0
    return 2.0 * (a * d - b * c) / denom


def ca_permutation_oracle(labels, pred) -> float:
    """Best accuracy over every one-to-one cluster-to-class mapping."""
    labels = list(labels)
    pred = list(pred)
    classes = sorted(set(labels))
    clusters = sorted(set(pred))
    n = len(labels)
    side = max(len(classes), len(clusters))
    best = 0
    for perm in itertools.permutations(range(side)):
        matched = 0
        for i in range(n):
            b = clusters.index(pred[i])
            mapped = perm[b]
            if mapped < len(classes) and classes[mapped] == labels[i]:
                matched += 1
        best = max(best, matched)
    return best / n


def projection_oracle(kappa: np.ndarray, source: int = 0):
    """Pair-span projection one value pair at a time, then per-span
    normalization, with the same warnings in the same order.

    Returns ``(raw, normalized)``: lists of ``(span, coords, max_span)`` in
    pair order. ``raw`` drops the spans whose spanning pair is at base
    distance zero; ``normalized`` also drops the spans whose coordinates are
    all equal.
    """
    kappa = np.asarray(kappa, dtype=float)
    v = kappa.shape[0]
    raw = []
    dropped = []
    sq = kappa * kappa
    for g in range(v - 1):
        for h in range(g + 1, v):
            c = kappa[g, h]
            if c <= 0.0:
                dropped.append((g + 1, h + 1))
                continue
            coords = (sq[:, g] - sq[:, h] + c * c) / (2.0 * c)
            raw.append(((g + 1, h + 1), coords, float(coords.max() - coords.min())))
    if dropped:
        warnings.warn(
            f"attribute index {source}: dropped degenerate spans "
            f"{dropped} (zero base distance between the spanning pair)",
            RuntimeWarning,
        )
    normalized = []
    for span, coords, _ in raw:
        gap = float(coords.max() - coords.min())
        if gap <= 0.0:
            warnings.warn(
                f"attribute index {source}, span {span}: all coordinates "
                "equal; sub-attribute dropped",
                RuntimeWarning,
            )
            continue
        normalized.append((span, coords / gap, gap))
    return raw, normalized


def _block_gaps(block, u: int, f: int) -> list[float]:
    """Distances between values ``u`` and ``f`` (1-based) under each
    sub-attribute of one block: coordinate gaps, or 0/1 mismatch for the
    Hamming fallback."""
    if block.is_fallback:
        return [float(u != f)]
    return np.abs(block.coords[:, u - 1] - block.coords[:, f - 1]).tolist()


def phi_tensor(dataset, space, protos) -> np.ndarray:
    """Naive per-attribute distances between every object and prototype,
    in the expanded attribute order (numeric pass-throughs first)."""
    n = dataset.n
    k = protos.values.shape[0]
    m = space.d_hat
    phi = np.zeros((n, k, m))
    for i in range(n):
        for l in range(k):
            x, p = dataset.cells[i], protos.values[l]
            row = [abs(x[r] - p[r]) for r in space.numeric_attrs]
            for b in space.blocks:
                row += _block_gaps(b, int(x[b.source]), int(p[b.source]))
            phi[i, l] = row
    return phi


def weighted_distance(dataset, space, protos, weights, x: int, m: int) -> float:
    """Weighted dissimilarity between object ``x`` and prototype ``m``
    (both 0-based indices).

    Numerical pass-through attributes contribute |x - m|; sub-attributes
    contribute the coordinate gap between the object's and the prototype's
    value. With a weight matrix (a ``WeightMatrix``), row ``m`` applies;
    ``None`` weighs every column 1.
    """
    from harr.cluster import WeightMatrix

    if weights is None:
        w = None
    elif isinstance(weights, WeightMatrix):
        w = weights.w[m]
    else:
        w = weights.w
    total = 0.0
    j = 0
    for r in space.numeric_attrs:
        phi = abs(dataset.cells[x, r] - protos.values[m, r])
        total += phi * (w[j] if w is not None else 1.0)
        j += 1
    for block in space.blocks:
        u = int(dataset.cells[x, block.source])
        f = int(protos.values[m, block.source])
        for phi in _block_gaps(block, u, f):
            total += phi * (w[j] if w is not None else 1.0)
            j += 1
    return total


def kmodes_with_table_oracle(
    cells: np.ndarray,
    kinds: list[str],
    tables: list[np.ndarray | None],
    init_idx: list[int],
    max_iter: int = 50,
) -> tuple[list[int], list[float], list[bool]]:
    """Plain alternating loop for the table-distance baseline on a small
    instance: argmin assignment (ties to the lowest cluster), empty-cluster
    re-seeds, mean/mode refits, stop when labels repeat.

    Each empty cluster, in ascending order, takes the single object farthest
    from its assigned prototype among objects whose cluster keeps another
    member (ties to the lowest object index). Returns the final labels, the
    objective after every assignment (a repeated entry closes a converged
    run) and whether each assignment re-seeded.
    """
    n, d = cells.shape
    k = len(init_idx)
    protos = [list(cells[i]) for i in init_idx]
    labels: list[int] | None = None
    trace_z: list[float] = []
    trace_reseeded: list[bool] = []
    for _ in range(max_iter):
        dists = []
        for i in range(n):
            row = []
            for l in range(k):
                total = 0.0
                for r in range(d):
                    if kinds[r] == "num":
                        total += abs(cells[i, r] - protos[l][r])
                    else:
                        total += tables[r][int(cells[i, r]) - 1, int(protos[l][r]) - 1]
                row.append(total)
            dists.append(row)
        new_labels = [row.index(min(row)) for row in dists]
        reseeded = False
        for l in range(k):
            if l in new_labels:
                continue
            reseeded = True
            sizes = [new_labels.count(c) for c in range(k)]
            movable = [i for i in range(n) if sizes[new_labels[i]] > 1]
            if not movable:
                break
            far = max(dists[i][new_labels[i]] for i in movable)
            pick = min(i for i in movable if dists[i][new_labels[i]] == far)
            new_labels[pick] = l
        z = 0.0
        for i in range(n):
            z += dists[i][new_labels[i]]
        trace_z.append(z)
        trace_reseeded.append(reseeded)
        if new_labels == labels:
            trace_z.append(z)
            trace_reseeded.append(False)
            break
        labels = new_labels
        for l in range(k):
            members = [i for i in range(n) if labels[i] == l]
            if not members:
                continue
            for r in range(d):
                if kinds[r] == "num":
                    protos[l][r] = sum(cells[i, r] for i in members) / len(members)
                else:
                    counts: dict[int, int] = {}
                    for i in members:
                        val = int(cells[i, r])
                        counts[val] = counts.get(val, 0) + 1
                    best = min(
                        counts, key=lambda vkey: (-counts[vkey], vkey)
                    )
                    protos[l][r] = best
    return labels, trace_z, trace_reseeded


def alternating_oracle(
    dataset: Dataset,
    space,
    variant: str,
    k: int,
    seed: int,
    inner_cap: int,
    outer_cap: int,
) -> dict:
    """Per-object HARR-V / HARR-M / HAR loop on the reconstructed space.

    Starts from ``k`` seeded objects and uniform weights. Each assignment
    scores every object against every prototype one column at a time, in
    the engine's order: each categorical attribute's sub-attributes summed
    in order and added as one total, then the numerical pass-throughs; ties
    go to the lowest cluster. Empty clusters are re-seeded as in
    ``kmodes_with_table_oracle``. An epoch ends when the labels repeat or
    after ``inner_cap`` assignments; the weights are then refreshed (HARR-V,
    HARR-M) unless the labels equal those of the last refresh or
    ``outer_cap`` refreshes were made. Refits and refreshes call the public
    single-step operations, which their own oracles pin.

    Returns the ``RunReport`` fields it determines, under their names.
    """
    from harr.cluster import (
        Partition,
        Prototypes,
        update_prototypes,
        update_weight_matrix,
        update_weight_vector,
    )

    n = dataset.n
    m = space.d_hat
    protos = dataset.cells[np.random.default_rng(seed).choice(n, size=k, replace=False)]
    if variant == "HARR-M":
        weights = np.full((k, m), 1.0 / m)
    else:
        weights = np.full(m, 1.0 / m)

    def score(i: int, l: int) -> float:
        w = weights[l] if weights.ndim == 2 else weights
        total = 0.0
        j = len(space.numeric_attrs)  # sub-attribute columns follow the numerics
        for block in space.blocks:
            x = int(dataset.cells[i, block.source]) - 1
            p = int(protos[l, block.source]) - 1
            group = 0.0
            for c in range(block.gamma):
                if block.is_fallback:
                    phi = float(x != p)
                else:
                    phi = abs(float(block.coords[c, x]) - float(block.coords[c, p]))
                group += float(w[j]) * phi
                j += 1
            total += group
        for j, r in enumerate(space.numeric_attrs):
            total += float(w[j]) * abs(float(dataset.cells[i, r]) - float(protos[l, r]))
        return total

    labels: list[int] | None = None
    last_refresh: list[int] | None = None
    trace_z: list[float] = []
    trace_updated: list[bool] = []
    trace_reseeded: list[bool] = []
    just_updated = False
    inner = 0
    updates = 0
    converged = False
    while True:
        dists = [[score(i, l) for l in range(k)] for i in range(n)]
        new_labels = [row.index(min(row)) for row in dists]
        reseeded = False
        for l in range(k):
            if l in new_labels:
                continue
            reseeded = True
            sizes = [new_labels.count(c) for c in range(k)]
            movable = [i for i in range(n) if sizes[new_labels[i]] > 1]
            if not movable:
                break
            far = max(dists[i][new_labels[i]] for i in movable)
            pick = min(i for i in movable if dists[i][new_labels[i]] == far)
            new_labels[pick] = l
        # numpy's sum over the objects in object order, as the engine sums
        trace_z.append(float(np.sum([dists[i][new_labels[i]] for i in range(n)])))
        trace_updated.append(just_updated)
        trace_reseeded.append(reseeded)
        just_updated = False
        inner += 1
        changed = new_labels != labels
        labels = new_labels
        partition = Partition(tuple(x + 1 for x in labels), k)
        if changed and inner < inner_cap:
            protos = update_prototypes(dataset, partition).values
            continue
        if variant == "HAR" or labels == last_refresh:
            converged = not changed
            break
        if updates >= outer_cap:
            break
        last_refresh = labels
        if variant == "HARR-M":
            update = update_weight_matrix
        else:
            update = update_weight_vector
        weights = update(dataset, space, partition, Prototypes(protos)).w
        updates += 1
        just_updated = True
        inner = 0
    if converged:
        trace_z.append(trace_z[-1])
        trace_updated.append(False)
        trace_reseeded.append(False)
    return {
        "labels": tuple(x + 1 for x in labels),
        "weights": tuple(weights.tolist()) if weights.ndim == 1 else None,
        "weight_matrix": (
            tuple(map(tuple, weights.tolist())) if weights.ndim == 2 else None
        ),
        "trace_z": tuple(trace_z),
        "trace_weights_updated": tuple(trace_updated),
        "trace_reseeded": tuple(trace_reseeded),
        "inner_iterations": len(trace_z) - converged,
        "weight_updates": updates,
        "converged": converged,
    }


def ohe_oc_oracle(dataset: Dataset) -> np.ndarray:
    """The OHE+OC encoding, attribute by attribute: a numerical attribute
    passes through, an ordinal value t becomes the rank (t-1)/(v-1) and a
    nominal attribute a one-hot block of v columns."""
    cols: list[np.ndarray] = []
    for r, attr in enumerate(dataset.schema.attributes):
        col = dataset.cells[:, r]
        if attr.kind is AttributeKind.NUMERICAL:
            cols.append(col)
        elif attr.kind is AttributeKind.ORDINAL:
            cols.append((col - 1.0) / (attr.v - 1))
        else:
            onehot = np.zeros((dataset.n, attr.v))
            onehot[np.arange(dataset.n), col.astype(np.int64) - 1] = 1.0
            cols.extend(onehot.T)
    return np.column_stack(cols)


def lloyd_oracle(
    points: np.ndarray, init_idx: list[int], max_iter: int = 100
) -> tuple[list[int], list[float]]:
    """Plain k-means on encoded points: squared Euclidean assignment (ties to
    the lowest centre), member-mean refits, stop when labels repeat.

    Returns the final labels and the objective after every assignment.
    Assumes no cluster ever empties (callers skip runs that re-seed).
    """
    n, dims = points.shape
    k = len(init_idx)
    centres = [[float(x) for x in points[i]] for i in init_idx]
    labels: list[int] | None = None
    trace: list[float] = []
    for _ in range(max_iter):
        new_labels = []
        z = 0.0
        for i in range(n):
            dists = [
                sum((points[i, c] - centres[l][c]) ** 2 for c in range(dims))
                for l in range(k)
            ]
            best = dists.index(min(dists))
            new_labels.append(best)
            z += dists[best]
        trace.append(z)
        if new_labels == labels:
            break
        labels = new_labels
        for l in range(k):
            members = [i for i in range(n) if labels[i] == l]
            centres[l] = [
                sum(points[i, c] for i in members) / len(members) for c in range(dims)
            ]
    return labels, trace


def ingest_rowwise_oracle(
    data_text: str, schema: DatasetSchema
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-by-cell CSV ingest: every row is split, stripped and checked in
    turn, raising ``DataError`` at its first bad cell.

    Returns ``(cells, numeric_min, numeric_max)`` as a ``Dataset`` stores
    them.
    """
    lookups = [
        {label: i + 1 for i, label in enumerate(a.possible_values)}
        if a.kind.is_categorical
        else None
        for a in schema.attributes
    ]
    rows: list[np.ndarray] = []
    # Lines end where ``open()`` ends them: at "\n", "\r\n" or "\r".
    lines = io.StringIO(data_text, newline=None)
    for rowno, raw in enumerate(lines, start=1):
        raw = raw.removesuffix("\n")
        if not raw.strip():
            continue
        tokens = [t.strip() for t in raw.split(",")]
        if len(tokens) != schema.d:
            raise DataError(
                f"row {rowno}: expected {schema.d} columns, got {len(tokens)}"
            )
        vals = np.empty(schema.d)
        for c, (tok, attr) in enumerate(zip(tokens, schema.attributes)):
            if tok == "":
                raise DataError(
                    f"row {rowno}, column {attr.name!r}: missing value (empty cell)"
                )
            lookup = lookups[c]
            if lookup is not None:
                idx = lookup.get(tok)
                if idx is None:
                    raise DataError(
                        f"row {rowno}, column {attr.name!r}: unknown value "
                        f"{tok!r}; legal values: {', '.join(attr.possible_values)}"
                    )
                vals[c] = idx
            else:
                try:
                    if "_" in tok:  # float() would accept 1_000
                        raise ValueError
                    x = float(tok)
                except ValueError:
                    raise DataError(
                        f"row {rowno}, column {attr.name!r}: not a number: {tok!r}"
                    ) from None
                if not math.isfinite(x):
                    raise DataError(
                        f"row {rowno}, column {attr.name!r}: non-finite value {tok!r}"
                    )
                vals[c] = x
        rows.append(vals)
    cells = np.vstack(rows) if rows else np.empty((0, schema.d))
    lo = np.full(schema.d, np.nan)
    hi = np.full(schema.d, np.nan)
    if cells.shape[0]:
        for r in schema.numerical_indices():
            lo[r] = cells[:, r].min()
            hi[r] = cells[:, r].max()
    return cells, lo, hi

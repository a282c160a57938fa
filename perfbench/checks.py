"""Output checks shared by the workloads.

Floats agree when |a - b| <= 1e-12 * max(1, |a|, |b|): acceptance
criterion 2's 1e-12 bound, relative above 1. Integers, strings and the
keys named exact compare exactly.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

TOL = 1e-12
# features.csv columns that hold counts, compared exactly
EXACT_COLUMNS = ("node_count", "edge_count")


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def digest(root: Path, rel_paths: list[str]) -> str:
    """SHA-256 over the named files, and every file under the named dirs."""
    h = hashlib.sha256()
    for rel in rel_paths:
        path = root / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(root)).encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def read_table(data: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return rows[0], [r for r in rows[1:] if r]


def table_errors(path: Path, n_rows: int, label: str) -> list[str]:
    """Invariants of a features.csv: row count, finite values, labels."""
    if not path.exists():
        return [f"{path.name}: missing"]
    header, rows = read_table(path.read_bytes())
    errors = []
    if len(rows) != n_rows:
        errors.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    for r in rows:
        if len(r) != len(header):
            errors.append(f"{path.name}: row {r[0]!r} has {len(r)} fields")
            continue
        if r[-1] != label:
            errors.append(f"{path.name}: row {r[0]!r} label {r[-1]!r}, expected {label!r}")
        if not all(math.isfinite(float(v)) for v in r[1:-1]):
            errors.append(f"{path.name}: row {r[0]!r} has a non-finite value")
    return errors[:5]


def column(path: Path, name: str) -> dict[str, float]:
    header, rows = read_table(path.read_bytes())
    i = header.index(name)
    return {r[0]: float(r[i]) for r in rows}


def compare_tables(actual: bytes, ref: bytes, name="table",
                   only_reference_ids=False) -> list[str]:
    ha, ra = read_table(actual)
    hr, rr = read_table(ref)
    if only_reference_ids:
        ids = {r[0] for r in rr}
        ra = [r for r in ra if r[0] in ids]
    if ha != hr:
        return [f"{name}: header differs from reference"]
    if [r[0] for r in ra] != [r[0] for r in rr]:
        return [f"{name}: sample ids differ from reference"]
    errors = []
    for a, r in zip(ra, rr):
        for col, va, vr in zip(ha, a, r):
            if col in ("sample_id", "label"):
                ok = va == vr
            elif col in EXACT_COLUMNS:
                ok = float(va) == float(vr)
            else:
                ok = close(float(va), float(vr))
            if not ok:
                errors.append(f"{name}: {a[0]} {col} = {va}, reference {vr}")
    return errors[:5]


def compare_json(a, b, exact_keys=frozenset(), where="$") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != reference {sorted(b)}"]
        out = []
        for k in a:
            if k in exact_keys and a[k] != b[k]:
                out.append(f"{where}.{k}: {a[k]!r} != reference {b[k]!r}")
            else:
                out += compare_json(a[k], b[k], exact_keys, f"{where}.{k}")
        return out[:5]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != reference {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += compare_json(x, y, exact_keys, f"{where}[{i}]")
            if len(out) >= 5:
                break
        return out
    num = (int, float)
    if isinstance(a, num) and isinstance(b, num) and not isinstance(a, bool) \
            and not isinstance(b, bool):
        if isinstance(a, int) and isinstance(b, int):
            return [] if a == b else [f"{where}: {a} != reference {b}"]
        return [] if close(float(a), float(b)) else [f"{where}: {a!r} != reference {b!r}"]
    return [] if a == b else [f"{where}: {a!r} != reference {b!r}"]


def cdf_errors(report: dict) -> list[str]:
    errors = []
    for corpus in report["corpora"]:
        for metric, points in corpus["cdfs"].items():
            xs = [p[0] for p in points]
            fs = [p[1] for p in points]
            if not points or fs[-1] != 1.0 or any(y <= x for x, y in zip(xs, xs[1:])) \
                    or any(g <= f for f, g in zip(fs, fs[1:])):
                errors.append(f"{corpus['corpus']} {metric}: not a CDF ending at 1")
    return errors


def confusion_errors(payload: dict, n_rows: int, k: int, min_ar: float) -> list[str]:
    cm = payload["confusion_matrix_fold_averaged"]
    errors = []
    if abs(sum(cm.values()) - n_rows / k) > 1e-9:
        errors.append(f"confusion matrix sums to {sum(cm.values())}, expected {n_rows / k}")
    rates = [v for v in payload["metrics"].values() if v is not None]
    if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in rates):
        errors.append(f"rates out of range: {payload['metrics']}")
    ar = payload["metrics"].get("ar")
    if ar is None or ar < min_ar:
        errors.append(f"{payload['kind']} AR {ar} below {min_ar}")
    return errors


def read_reference(path: Path) -> bytes:
    return gzip.decompress(path.read_bytes())


def write_reference(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(data, mtime=0))


def load_json(path: Path):
    return json.loads(path.read_bytes()) if path.exists() else None

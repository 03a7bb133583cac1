"""Local stand-in for the driver's correctness gate.

Runs selected ``queries()`` entries against their ``oracle_sql()`` DuckDB
equivalents at sf0.01 and reports rows / schema / value match, with columns
sorted by name and rows sorted by all columns before compare (the driver's
documented behavior — dtype differences DO count, round-1 caught an
int64-vs-float64 hash mismatch).

Every OK/FAIL line ends with ``sha1=``, a short sha1 of the canonical
frame, so diffing the output of two checkouts on the same tables shows
which query results changed. Run it from the root of the checkout under
test: Ray workers import the package from their working directory.

Usage: python tools/compare_oracle.py [query ...]   (default: all oracled)
Env: GRAFT_SF_DIR (tables, default sf0.01), RAY_GRAFT_CPUS (Ray CPUs, as
bench.py reads it; default 8). Two runs a side at RAY_GRAFT_CPUS=1 and =4
are the CPU-count hash audit.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def digest(df: pd.DataFrame) -> str:
    """Short sha1 of a canonical frame: column names, dtypes and values
    (numeric columns by their bytes, object columns as JSON)."""
    h = hashlib.sha1()
    for c in df.columns:
        v = df[c].to_numpy()
        h.update(f"{c}:{v.dtype};".encode())
        h.update(v.tobytes() if v.dtype != object else json.dumps(
            v.tolist(), default=lambda o: o.tolist() if hasattr(o, "tolist")
            else str(o)).encode())
    return h.hexdigest()[:12]


def compare(name: str, ray_df: pd.DataFrame, ora_df: pd.DataFrame) -> dict:
    out = {"rows_match": len(ray_df) == len(ora_df),
           "schema_match": sorted(ray_df.columns) == sorted(ora_df.columns),
           "dtype_match": None, "value_match": None}
    if not (out["rows_match"] and out["schema_match"]):
        return out
    a, b = canon(ray_df), canon(ora_df)
    out["dtype_match"] = all(str(a[c].dtype) == str(b[c].dtype) for c in a.columns)
    ok = True
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
            if not np.allclose(av.astype(np.float64), bv.astype(np.float64),
                               rtol=1e-9, atol=1e-12, equal_nan=True):
                ok = False
        else:
            if not (av == bv).all():
                ok = False
    out["value_match"] = ok
    return out


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01")
    qs, oracles = e.queries(), e.oracle_sql()
    names = sys.argv[1:] or list(qs)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    failures = 0
    for name in names:
        try:
            if name in oracles:
                ray_df = to_pandas(qs[name](sf))
                ora_df = con.execute(oracles[name]).fetchdf()
                r = compare(name, ray_df, ora_df)
                status = ("OK " if all(v for v in r.values()
                                       if v is not None) else "FAIL")
                if status == "FAIL":
                    failures += 1
                print(f"{status} {name}: {r} sha1={digest(canon(ray_df))}")
            else:
                # rows-only entry: mirror the driver's weaker gate (runs,
                # stable schema, deterministic) — the hard gate is the
                # named test in ROWS_ONLY_EVIDENCE
                if (name == "validate_images"
                        and os.path.basename(os.path.normpath(sf))
                        == "sf0.1"):
                    print(f"SKIP {name}: flagship covered by bench headline")
                    continue
                a, b = canon(to_pandas(qs[name](sf))), \
                    canon(to_pandas(qs[name](sf)))
                det = a.equals(b)
                if not det:
                    failures += 1
                ev = e.ROWS_ONLY_EVIDENCE.get(name, "<MISSING EVIDENCE>")
                print(f"{'OK ' if det else 'FAIL'} {name}: rows-only "
                      f"rows={len(a)} deterministic={det} evidence={ev} "
                      f"sha1={digest(a)}")
        except Exception as ex:  # noqa: BLE001
            failures += 1
            print(f"ERR  {name}: {type(ex).__name__}: {ex}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

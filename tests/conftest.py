import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


def _schema_changes(caplog, run) -> list[str]:
    """The "different schema" records Ray's executor logs while ``run()``
    runs. Ray Data's loggers do not propagate to the root logger caplog
    hooks, so the handler goes on the executor's logger itself."""
    import logging

    executor_log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    executor_log.addHandler(caplog.handler)
    try:
        run()
    finally:
        executor_log.removeHandler(caplog.handler)
    return [r.getMessage() for r in caplog.records
            if "different schema" in r.getMessage()]


def _executions(monkeypatch, run) -> list[list[str]]:
    """The Ray Data executions ``run()`` starts, each as the operator names
    of its plan (output operator first)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    plans, execute = [], StreamingExecutor.execute

    def counted_execute(self, dag, *a, **k):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append(op.name)
            stack.extend(op.input_dependencies)
        plans.append(ops)
        return execute(self, dag, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted_execute)
        run()
    return plans


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


# the categorical GROUP BY keys of the grouped queries
NULL_KEY_COLUMNS = {"lineitem": ["l_returnflag", "l_linestatus"],
                    "events": ["event_type"],
                    "orders": ["o_orderpriority", "o_orderstatus"],
                    "documents": ["lang", "source"]}


@pytest.fixture(scope="session")
def null_key_copy(tmp_path_factory):
    """``copy(sf_dir)``: a copy of ``sf_dir`` whose every 97th row has NULL
    in each of ``NULL_KEY_COLUMNS`` (other tables copied as they are) — the
    NULL-key test bed of the grouped queries, built once per session."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    built = {}

    def copy(sf_dir: str) -> str:
        if sf_dir not in built:
            out = tmp_path_factory.mktemp("sf_null_keys")
            for f in sorted(os.listdir(sf_dir)):
                t = pq.read_table(os.path.join(sf_dir, f))
                nulled = pa.array(np.arange(t.num_rows) % 97 == 0)
                for c in NULL_KEY_COLUMNS.get(f.removesuffix(".parquet"), []):
                    t = t.set_column(t.schema.get_field_index(c), c, pc.if_else(
                        nulled, pa.scalar(None, t[c].type), t[c]))
                pq.write_table(t, str(out / f))
            built[sf_dir] = str(out)
        return built[sf_dir]

    return copy

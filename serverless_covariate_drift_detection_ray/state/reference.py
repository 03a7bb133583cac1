"""Frozen reference-window state — the engine's fitted detector artifact.

The reference pipeline freezes a reference sample at fit time
(``detector.fit(X=X_ref)``, /root/reference/ml/training.py:131-148) and every
compare is a two-sample test against it
(/root/reference/detector_api/app/detector.py:58-61). Here the frozen state is
the merged ``PartialState`` of the designated reference partitions plus the
median-heuristic RBF bandwidth σ (/root/reference/ml/training.py:123-129),
persisted as plain bytes + JSON (no pickle — SURVEY.md §2.1 S5).
"""

from __future__ import annotations

import json
import os

from ..functions.phash import phash_to_embedding
from ..functions.stats import median_heuristic_sigma
from .atomic import atomic_write_bytes, atomic_write_json
from .partials import PartialState

STATE_FILE = "reference_state.bin"
META_FILE = "reference_meta.json"


class ReferenceState:
    def __init__(self, state: PartialState, sigma: float, meta: dict | None = None):
        self.state = state
        self.sigma = float(sigma)
        self.meta = meta or {}

    @classmethod
    def fit(cls, merged: PartialState, meta: dict | None = None) -> "ReferenceState":
        sigma = median_heuristic_sigma(phash_to_embedding(merged.sample_phash))
        return cls(merged, sigma, meta)

    def save(self, out_dir: str) -> None:
        import hashlib

        os.makedirs(out_dir, exist_ok=True)
        blob = self.state.to_bytes()
        atomic_write_bytes(os.path.join(out_dir, STATE_FILE), blob)
        meta = dict(self.meta)
        meta.update({"sigma": self.sigma, "n_rows": self.state.n_rows,
                     "n_sample": int(self.state.sample_phash.shape[0]),
                     # pairs the two files: a crash between the replaces
                     # leaves a detectable tear instead of silently-stale
                     # meta next to new state (in-place refit would then
                     # double-merge partitions)
                     "state_sha": hashlib.sha256(blob).hexdigest()})
        atomic_write_json(os.path.join(out_dir, META_FILE), meta, indent=1)

    @classmethod
    def load(cls, in_dir: str) -> "ReferenceState":
        import hashlib

        with open(os.path.join(in_dir, STATE_FILE), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(in_dir, META_FILE)) as fh:
            meta = json.load(fh)
        sha = meta.get("state_sha")
        if sha is not None and hashlib.sha256(blob).hexdigest() != sha:
            raise ValueError(
                f"torn reference state in {in_dir}: state file does not "
                "match meta fingerprint (crash mid-save?) — refit or "
                "restore before reusing this window")
        state = PartialState.from_bytes(blob)
        return cls(state, meta["sigma"], meta)

    @staticmethod
    def stored_sha(in_dir: str) -> str | None:
        """The ``state_sha`` fingerprint ``save`` wrote for the state now in
        ``in_dir`` (None for a state saved without one): a refit or
        ``extend_reference`` into the same directory changes it."""
        with open(os.path.join(in_dir, META_FILE)) as fh:
            return json.load(fh).get("state_sha")

"""Corruption-based negative generation with closure filtering.

Negatives corrupt the consequent slot of an axiom (the superclass of GCI0
and GCI3, the filler of GCI2, the conjunction superclass of GCI1) with a
uniform draw from a candidate pool.  With filtering enabled, corruptions
that are entailed (closure members) or asserted are rejected and resampled
up to a retry budget, after which the slot is dropped.  A nonzero
``entailed_ratio`` instead injects that fraction of negatives uniformly
from the entailed-but-not-asserted axioms of the same form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import ARITY, CONSEQUENT_SLOT, Axiom, Form
from .closure import DeductiveClosure
from .dataset import KnowledgeBase


class SamplingError(Exception):
    pass


@dataclass
class SamplerConfig:
    filter_with_closure: bool = False
    entailed_ratio: float = 0.0
    max_resample_attempts: int = 10
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.entailed_ratio <= 1.0:
            raise ValueError("entailed_ratio must lie in [0, 1]")
        if self.max_resample_attempts < 1:
            raise ValueError("max_resample_attempts must be positive")


@dataclass
class SampleStats:
    requested: int = 0
    produced: int = 0
    dropped: int = 0
    entailed_injected: int = 0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.requested if self.requested else 0.0


class NegativeSampler:
    """Stateful sampler: one rng stream, the KB's "all" pool and per-form entailed pools."""

    def __init__(self, kb: KnowledgeBase, cfg: SamplerConfig,
                 dc: DeductiveClosure | None = None,
                 rng: np.random.Generator | None = None):
        if (cfg.filter_with_closure or cfg.entailed_ratio > 0.0) and dc is None:
            raise SamplingError(
                "closure filtering / entailed_ratio requires a deductive closure")
        self.kb = kb
        self.cfg = cfg
        self.dc = dc
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.stats = SampleStats()
        self._pool = np.asarray(sorted(kb.pool("all")), dtype=np.int64)
        self._entailed_pools: dict[Form, np.ndarray] = {}

    def _entailed_pool(self, form: Form) -> np.ndarray:
        """The form's entailed-but-not-asserted id tuples as a sorted (k, arity) array."""
        pool = self._entailed_pools.get(form)
        if pool is None:
            pool = np.array(sorted(self.dc.sets[form] - self.dc.asserted[form]),
                            dtype=np.int64).reshape(-1, ARITY[form])
            self._entailed_pools[form] = pool
        return pool

    def _rejected(self, form: Form, args: tuple[int, ...]) -> bool:
        return args in self.dc.asserted[form] or self.dc.contains(Axiom(form, args))

    def corrupt_ids(self, form: Form, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized corruption of a (B, arity) id matrix.

        Returns (corrupted rows, keep mask); rows whose filter retries are
        exhausted get masked out.  Rows replaced from the entailed pool are
        always kept.
        """
        slot = CONSEQUENT_SLOT[form]
        pool = self._pool
        if len(pool) < 2:
            raise SamplingError("pool exhausted")
        B = len(rows)
        out = rows.copy()
        original = rows[:, slot]

        # Uniform draw from pool minus the original: draw an index into the
        # pool with one slot removed, then skip past the original's position.
        def draw(idx: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(pool, original[idx])
            in_pool = pool[np.minimum(pos, len(pool) - 1)] == original[idx]
            k = self.rng.integers(0, len(pool) - 1, size=len(idx))
            k = np.where(in_pool & (k >= pos), k + 1, k)
            full = self.rng.integers(0, len(pool), size=len(idx))
            return np.where(in_pool, pool[k], pool[full])

        active = np.arange(B)
        out[:, slot] = draw(active)
        keep = np.ones(B, dtype=bool)
        if self.cfg.filter_with_closure:
            attempts = self.cfg.max_resample_attempts
            for attempt in range(1, attempts + 1):
                bad = [i for i, args in zip(active.tolist(), out[active].tolist())
                       if self._rejected(form, tuple(args))]
                if not bad:
                    break
                active = np.asarray(bad)
                if attempt == attempts:
                    keep[active] = False
                else:
                    out[active, slot] = draw(active)

        if self.cfg.entailed_ratio > 0.0:
            ent_pool = self._entailed_pool(form)
            if len(ent_pool):
                mask = self.rng.random(B) < self.cfg.entailed_ratio
                picks = self.rng.integers(0, len(ent_pool), size=B)
                out[mask] = ent_pool[picks[mask]]
                keep |= mask
                self.stats.entailed_injected += int(mask.sum())
        self.stats.requested += B
        self.stats.produced += int(keep.sum())
        self.stats.dropped += B - int(keep.sum())
        return out, keep

"""Epoch training loop: per-form batching, frequency weighting, Adam, plateau decay.

Each epoch shuffles every normal form's axiom list and walks the forms
round-robin in fixed order, one batch at a time, taking an optimizer step per
batch.  Positive batches of the corruptible forms are paired with sampled
negative batches.  The per-term weights come from the counts sampled during
an epoch (all lists are iterated fully, so the counts are known upfront) and
the total objective is the weighted sum of per-term mean losses.

Validation loss (positive GCI2 loss on the valid split) drives a
reduce-on-plateau schedule and early stopping; the best-validation parameter
snapshot is returned.  Without a valid split the loop runs all epochs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .axioms import GCI_FORMS, Form
from .closure import DeductiveClosure
from .dataset import KnowledgeBase
from .geometry import EmbeddingModel, GradientBuffer, loss_term
from .sampling import NegativeSampler, SamplerConfig

FORM_ORDER = GCI_FORMS

POS_TERM = {
    Form.GCI0: "gci0_pos", Form.GCI1: "gci1_pos", Form.GCI2: "gci2_pos",
    Form.GCI3: "gci3_pos", Form.GCI0_BOT: "gci0_bot", Form.GCI1_BOT: "gci1_bot",
    Form.GCI3_BOT: "gci3_bot",
}
NEG_TERM = {
    Form.GCI0: "gci0_neg", Form.GCI1: "gci1_neg",
    Form.GCI2: "gci2_neg", Form.GCI3: "gci3_neg",
}

DEFAULT_GRIDS = {
    "margin": (-0.1, -0.01, 0.0, 0.01, 0.1),
    "dim": (50, 100, 200, 400),
    "reg_radius": (1.0, 2.0),
    "lr": (0.01, 0.001, 0.0001),
}


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    batch_size: int = 32768
    lr: float = 0.01
    margin: float = 0.1
    dim: int = 50
    reg_mode: str = "strict"
    reg_radius: float = 1.0
    activation: str = "relu"
    leaky_slope: float = 0.01
    weighting: str = "inverse_frequency"     # | proportional | uniform
    neg_forms: tuple[str, ...] = ("gci2",)   # forms that get negative losses
    filter_negatives: bool = False
    entailed_ratio: float = 0.0
    max_resample_attempts: int = 10
    plateau_factor: float = 0.1
    plateau_patience: int = 10
    early_stop_patience: int = 20
    seed: int = 42

    def __post_init__(self):
        if self.plateau_patience <= 0 or self.early_stop_patience <= 0:
            raise ValueError("patience values must be positive")
        for f in self.neg_forms:
            if f not in ("gci0", "gci1", "gci2", "gci3"):
                raise ValueError(f"negative losses exist only for gci0..gci3, got {f!r}")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["neg_forms"] = list(self.neg_forms)
        return d


@dataclass
class TrainReport:
    epochs: list[dict] = field(default_factory=list)
    stop_epoch: int = 0
    best_epoch: int = -1
    seed: int = 0
    weights: dict[str, float] = field(default_factory=dict)
    sampler_stats: dict = field(default_factory=dict)
    checkpoint_path: str | None = None

    def to_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.epochs:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    def summary(self) -> dict:
        return {
            "stop_epoch": self.stop_epoch,
            "best_epoch": self.best_epoch,
            "seed": self.seed,
            "weights": self.weights,
            "sampler": self.sampler_stats,
            "checkpoint": self.checkpoint_path,
        }


def compute_weights(counts: dict[str, int], mode: str = "inverse_frequency") -> dict[str, float]:
    """Per-term weights from per-term sampled-axiom counts.

    inverse_frequency: w_g proportional to 1/N_g, normalized so the active
    terms' weights sum to their number.  proportional: w_g = N_g / sum(N).
    uniform: w_g = 1.  Terms with zero count always get weight 0.
    """
    if any(n < 0 for n in counts.values()):
        raise ValueError("negative count")
    active = {g: n for g, n in counts.items() if n > 0}
    if not active:
        raise ValueError("all counts are zero")
    weights = {g: 0.0 for g in counts}
    if mode == "inverse_frequency":
        inv_sum = sum(1.0 / n for n in active.values())
        for g, n in active.items():
            weights[g] = (1.0 / n) * len(active) / inv_sum
    elif mode == "proportional":
        total = sum(active.values())
        for g, n in active.items():
            weights[g] = n / total
    elif mode == "uniform":
        for g in active:
            weights[g] = 1.0
    else:
        raise ValueError(f"unknown weighting mode: {mode!r}")
    return weights


class Adam:
    """Dense Adam over the model's flat parameter vector."""

    def __init__(self, model: EmbeddingModel, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)

    def step(self, grads: GradientBuffer, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, g = self.m, self.v, grads.flat
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        self.model.params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def validation_loss(model: EmbeddingModel, rows: np.ndarray) -> float:
    """Mean positive GCI2 loss over the valid split's (k, 3) id matrix; nan if k is 0."""
    if not len(rows):
        return float("nan")
    return float(loss_term(model, "gci2_pos", rows.T).mean())


def train(kb: KnowledgeBase, cfg: TrainConfig, dc: DeductiveClosure | None = None,
          checkpoint_path: str | None = None) -> tuple[EmbeddingModel, TrainReport]:
    """Train an embedding; deterministic for a fixed config seed."""
    if (cfg.filter_negatives or cfg.entailed_ratio > 0.0) and dc is None:
        raise TrainingError("filtered or entailed-biased negatives need a deductive closure")

    seq = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss, sampler_ss = seq.spawn(3)
    model = EmbeddingModel.create(
        kb.sig, dim=cfg.dim, margin=cfg.margin, reg_mode=cfg.reg_mode,
        reg_radius=cfg.reg_radius, activation=cfg.activation,
        leaky_slope=cfg.leaky_slope, seed=cfg.seed,
        rng=np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)
    sampler = NegativeSampler(
        kb,
        SamplerConfig(filter_with_closure=cfg.filter_negatives,
                      entailed_ratio=cfg.entailed_ratio,
                      max_resample_attempts=cfg.max_resample_attempts,
                      seed=cfg.seed),
        dc, rng=np.random.default_rng(sampler_ss))

    data = {form: np.array([ax.args for ax in kb.axioms[form]], dtype=np.int64)
            for form in FORM_ORDER if kb.axioms[form]}
    # a list, not a set: its order fixes the order of the float sums over terms
    neg_enabled = [form for form in data if form.value.lower() in cfg.neg_forms]
    val_rows = np.array([ax.args for ax in kb.valid], dtype=np.int64).reshape(-1, 3)

    counts = {POS_TERM[form]: len(rows) for form, rows in data.items()}
    for form in neg_enabled:
        counts[NEG_TERM[form]] = len(data[form])
    weights = compute_weights(counts, cfg.weighting) if counts else {}

    report = TrainReport(seed=cfg.seed, weights=weights)
    adam = Adam(model)
    lr = cfg.lr
    best_val = float("inf")
    best_params: EmbeddingModel | None = None
    bad_epochs = 0
    plateau_bad = 0
    epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = {form: shuffle_rng.permutation(len(rows)) for form, rows in data.items()}
        cursor = {form: 0 for form in data}
        sums = {term: 0.0 for term in counts}
        seen = {term: 0 for term in counts}
        batch_index = 0
        while any(cursor[form] < len(rows) for form, rows in data.items()):
            for form, rows in data.items():   # in FORM_ORDER
                lo = cursor[form]
                if lo >= len(rows):
                    continue
                cursor[form] = hi = min(lo + cfg.batch_size, len(rows))
                pos = rows[order[form][lo:hi]]
                parts = [(POS_TERM[form], pos)]
                if form in neg_enabled:
                    neg_rows, keep = sampler.corrupt_ids(form, pos)
                    parts.append((NEG_TERM[form], neg_rows[keep]))
                grad = GradientBuffer(model)
                batch_loss = 0.0
                for term, ids in parts:
                    if not len(ids):
                        continue
                    vals = loss_term(model, term, ids.T, grad=grad,
                                     coef=weights[term] / len(ids))
                    batch_loss += weights[term] * float(vals.mean())
                    sums[term] += float(vals.sum())
                    seen[term] += len(ids)
                if not np.isfinite(batch_loss):
                    raise TrainingError(f"non-finite loss in a {form.value} batch "
                                        f"(epoch {epoch}, batch {batch_index})")
                adam.step(grad, lr)
                batch_index += 1
        if not model.all_finite():
            raise TrainingError(f"non-finite parameters after epoch {epoch}")

        breakdown = {term: (sums[term] / seen[term] if seen[term] else 0.0)
                     for term in counts}
        total = sum(weights[t] * breakdown[t] for t in breakdown)
        val = validation_loss(model, val_rows)
        report.epochs.append({
            "epoch": epoch, "total": total, "breakdown": breakdown,
            "val_loss": None if np.isnan(val) else val, "lr": lr,
        })
        if not np.isnan(val):
            if val < best_val:
                best_val = val
                best_params = model.copy()
                report.best_epoch = epoch
                bad_epochs = 0
                plateau_bad = 0
            else:
                bad_epochs += 1
                plateau_bad += 1
                if plateau_bad > cfg.plateau_patience:
                    lr *= cfg.plateau_factor
                    plateau_bad = 0
            if bad_epochs >= cfg.early_stop_patience:
                break

    report.stop_epoch = epoch if cfg.epochs > 0 else 0
    report.sampler_stats = {**asdict(sampler.stats), "drop_rate": sampler.stats.drop_rate}
    final = best_params if best_params is not None else model
    if checkpoint_path is not None:
        from .geometry import save_model
        save_model(final, checkpoint_path)
        report.checkpoint_path = checkpoint_path
    return final, report


@dataclass
class GridResult:
    entries: list[tuple[dict, float]] = field(default_factory=list)   # ranked
    failures: list[tuple[dict, str]] = field(default_factory=list)

    def to_table(self) -> str:
        lines = ["rank\tmetric\tconfig"]
        for i, (cfg, metric) in enumerate(self.entries, 1):
            lines.append(f"{i}\t{metric:.4f}\t{json.dumps(cfg, sort_keys=True)}")
        for cfg, err in self.failures:
            lines.append(f"FAILED\t{err}\t{json.dumps(cfg, sort_keys=True)}")
        return "\n".join(lines) + "\n"


def grid_search(kb: KnowledgeBase, base_cfg: TrainConfig,
                grids: dict[str, tuple] | None = None,
                dc: DeductiveClosure | None = None) -> GridResult:
    """Train every grid combination and rank by validation macro mean rank."""
    from .evaluation import macro_mean_rank

    grids = dict(DEFAULT_GRIDS) if grids is None else grids
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("grids must be non-empty")
    keys = sorted(grids)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(grids[k] for k in keys))]

    result = GridResult()
    for combo in combos:
        try:
            model, _ = train(kb, replace(base_cfg, **combo), dc)
            result.entries.append((combo, macro_mean_rank(model, kb)))
        except Exception as exc:  # per-run failures are recorded, not fatal
            result.failures.append((combo, f"{type(exc).__name__}: {exc}"))
    result.entries.sort(key=lambda e: (e[1], json.dumps(e[0], sort_keys=True)))
    return result

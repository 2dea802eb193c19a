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
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .axioms import GCI_FORMS, Form
from .closure import DeductiveClosure
from .dataset import KnowledgeBase
from .geometry import ACTIVATIONS, REG_MODES, EmbeddingModel, GradientBuffer, loss_term, save_model
from .manifest import write_atomic
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

WEIGHTINGS = ("inverse_frequency", "proportional", "uniform")

# Elements per pass of Adam's update: the six slices a pass touches stay in L2.
ADAM_BLOCK = 32768


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
    weighting: str = "inverse_frequency"     # one of WEIGHTINGS
    neg_forms: tuple[str, ...] = ("gci2",)   # forms that get negative losses
    filter_negatives: bool = False
    entailed_ratio: float = 0.0
    max_resample_attempts: int = 10
    plateau_factor: float = 0.1
    plateau_patience: int = 10
    early_stop_patience: int = 20
    seed: int = 42

    def __post_init__(self):
        for name in ("lr", "margin", "reg_radius", "leaky_slope", "plateau_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)!r}")
        if self.epochs < 0 or self.lr <= 0:
            raise ValueError(f"epochs must be >= 0 and lr > 0: {self.epochs}, {self.lr}")
        if not 0 < self.plateau_factor <= 1:
            raise ValueError(f"plateau_factor must lie in (0, 1]: {self.plateau_factor}")
        if self.plateau_patience <= 0 or self.early_stop_patience <= 0:
            raise ValueError("patience values must be positive")
        if self.batch_size < 1 or self.dim < 1:
            raise ValueError(f"batch_size and dim must be positive: {self.batch_size}, {self.dim}")
        for f in self.neg_forms:
            if f not in {form.value.lower() for form in NEG_TERM}:
                raise ValueError(f"negative losses exist only for gci0..gci3, got {f!r}")
        for key, allowed in (("reg_mode", REG_MODES), ("activation", ACTIVATIONS),
                             ("weighting", WEIGHTINGS)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"unknown {key}: {getattr(self, key)!r}")
        self.sampler_config()   # its own range checks

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(self.filter_negatives, self.entailed_ratio,
                             self.max_resample_attempts, self.seed)

    @property
    def needs_closure(self) -> bool:
        """Whether the sampler reads a deductive closure (filtered or entailed negatives)."""
        return self.filter_negatives or self.entailed_ratio > 0.0


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
        write_atomic(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in self.epochs))

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
    if mode not in WEIGHTINGS:
        raise ValueError(f"unknown weighting mode: {mode!r}")
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
    else:
        weights.update(dict.fromkeys(active, 1.0))
    return weights


class Adam:
    """Dense Adam over the model's flat parameter vector, updated in place block by
    block in the operation order of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: EmbeddingModel):
        self.model = model
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        self.scratch = np.empty((2, min(len(model.params), ADAM_BLOCK)))

    def step(self, grads: GradientBuffer, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for lo in range(0, len(self.m), ADAM_BLOCK):
            cut = slice(lo, lo + ADAM_BLOCK)
            m, v, g, p = self.m[cut], self.v[cut], grads.flat[cut], self.model.params[cut]
            a, b = self.scratch[:, :len(m)]
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=a), g, out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), self.eps, out=b)
            p -= np.divide(np.multiply(lr, np.divide(m, bc1, out=a), out=a), b, out=a)


def validation_loss(model: EmbeddingModel, rows: np.ndarray) -> float:
    """Mean positive GCI2 loss over the valid split's (k, 3) id matrix; nan if k is 0."""
    if not len(rows):
        return float("nan")
    return float(loss_term(model, "gci2_pos", rows.T).mean())


def _batches(data: dict, rng: np.random.Generator, size: int) -> list[tuple[Form, np.ndarray]]:
    """One epoch's (form, row indices) batches: each form's rows permuted (drawn
    in ``data``'s order) and cut into batches of at most ``size``, the forms
    taken round-robin in that order until every form has run out."""
    cuts = [[(form, perm[lo:lo + size]) for lo in range(0, len(perm), size)]
            for form, perm in [(form, rng.permutation(len(rows))) for form, rows in data.items()]]
    return [batch for turn in itertools.zip_longest(*cuts) for batch in turn if batch is not None]


@np.errstate(over="ignore", invalid="ignore")   # a diverging run ends in TrainingError
def train(kb: KnowledgeBase, cfg: TrainConfig, dc: DeductiveClosure | None = None,
          checkpoint_path: str | None = None) -> tuple[EmbeddingModel, TrainReport]:
    """Train an embedding; deterministic for a fixed config seed."""
    if cfg.needs_closure and dc is None:
        raise TrainingError("filtered or entailed-biased negatives need a deductive closure")

    init_ss, shuffle_ss, sampler_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    model = EmbeddingModel.create(
        kb.sig, dim=cfg.dim, margin=cfg.margin, reg_mode=cfg.reg_mode,
        reg_radius=cfg.reg_radius, activation=cfg.activation,
        leaky_slope=cfg.leaky_slope, seed=cfg.seed,
        rng=np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)
    sampler = NegativeSampler(kb, cfg.sampler_config(), dc,
                              rng=np.random.default_rng(sampler_ss))

    data = {form: kb.axioms[form].ids for form in FORM_ORDER if kb.axioms[form]}
    # a list, not a set: its order fixes the order of the float sums over terms
    neg_enabled = [form for form in data if form.value.lower() in cfg.neg_forms]
    val_rows = kb.valid.ids

    counts = {POS_TERM[form]: len(rows) for form, rows in data.items()}
    for form in neg_enabled:
        counts[NEG_TERM[form]] = len(data[form])
    weights = compute_weights(counts, cfg.weighting) if counts else {}

    report = TrainReport(seed=cfg.seed, weights=weights)
    adam = Adam(model)
    grad = GradientBuffer(model)   # zeroed in place before each batch
    lr = cfg.lr
    best_val = float("inf")
    best_params: EmbeddingModel | None = None
    bad_epochs = 0
    epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        sums = {term: 0.0 for term in counts}
        seen = {term: 0 for term in counts}
        for batch_index, (form, idx) in enumerate(_batches(data, shuffle_rng, cfg.batch_size)):
            pos = data[form][idx]
            parts = [(POS_TERM[form], pos)]
            if form in neg_enabled:
                neg_rows, keep = sampler.corrupt_ids(form, pos)
                parts.append((NEG_TERM[form], neg_rows[keep]))
            grad.flat.fill(0.0)
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
            else:
                bad_epochs += 1
                # every plateau_patience + 1 bad epochs in a row decay the rate
                if bad_epochs % (cfg.plateau_patience + 1) == 0:
                    lr *= cfg.plateau_factor
            if bad_epochs >= cfg.early_stop_patience:
                break

    report.stop_epoch = epoch
    report.sampler_stats = {**asdict(sampler.stats), "drop_rate": sampler.stats.drop_rate}
    final = best_params if best_params is not None else model
    if checkpoint_path is not None:
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


def grid_runs(base_cfg: TrainConfig, grids: dict | None = None) -> list[tuple[dict, TrainConfig]]:
    """Each combination of the ``grids`` axes (``DEFAULT_GRIDS`` when None) and its config."""
    grids = dict(DEFAULT_GRIDS) if grids is None else grids
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("grids must be non-empty")
    keys = sorted(grids)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(grids[k] for k in keys))]
    return [(combo, replace(base_cfg, **combo)) for combo in combos]


def grid_search(kb: KnowledgeBase, base_cfg: TrainConfig,
                grids: dict[str, tuple] | None = None,
                dc: DeductiveClosure | None = None) -> GridResult:
    """Train every grid combination and rank by validation macro mean rank."""
    from .evaluation import EvaluationError, evaluate

    runs = grid_runs(base_cfg, grids)   # a bad value fails before any run
    if not kb.valid:
        raise EvaluationError("valid split is empty")
    result = GridResult()
    for combo, cfg in runs:
        try:
            model, _ = train(kb, cfg, dc)
        except TrainingError as exc:   # a diverged run is recorded, not fatal
            result.failures.append((combo, f"{type(exc).__name__}: {exc}"))
        else:
            result.entries.append((combo, evaluate(model, kb, split="valid").macro_mr))
    result.entries.sort(key=lambda e: (e[1], json.dumps(e[0], sort_keys=True)))
    return result

"""Ball-embedding parameters, loss terms, the completion score, and their gradients.

Classes are open n-balls (center x, raw and possibly negative radius r) and
relations are translation vectors v.  Each loss term (seven positive, four
negative) and the completion score is one row of ``SPECS``, and one
forward/backward pass in :func:`loss_term` computes them all.

Reading a row: ``_spec(kinds, hinges, reg, sign, act)`` names the id columns
in axiom order (``c`` class, ``r`` relation).  Each ``Hinge(norm, vec, rad,
margin, rmin)`` is one hinge argument, ``vec`` and ``rad`` holding a sign or 0
per slot::

    norm * ||sum_k vec[k] * x_k|| + sum_k rad[k] * r_k + margin * gamma
                                  [+ min(r_i, r_j) when rmin = (i, j)]

with x_k slot k's center or translation and gamma the model margin.  A
sample's value is ``sign * sum(act(hinge)) + sum(reg(x_k) for k in reg)``;
``act=False`` keeps the raw argument, so the BOT terms return a radius.  So
``_spec("crc", (Hinge(1, (1, 1, -1), (1, 0, -1), -1),), reg=(0, 2))`` reads
act(||x_c + v_r - x_d|| + r_c - r_d - gamma) + reg(x_c) + reg(x_d).
Regularization is ``| ||x|| - 1 |`` when ``strict`` (centers on the unit
sphere) and ``max(0, ||x|| - R)`` when ``relaxed`` (centers in the R-ball).

Gradients accumulate analytically into a :class:`GradientBuffer`.
Subgradient conventions: activation kinks take the derivative of the negative
side at 0 (0 for relu, the slope for leaky_relu), a zero-norm summed vector
gets a zero direction, regularization kinks get 0, and ``min(r_i, r_j)``
passes its gradient to ``r_i`` on ties.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .axioms import BOT_NAME, TOP_NAME, Signature


class Hinge(NamedTuple):
    norm: int
    vec: tuple[int, ...]
    rad: tuple[int, ...]
    margin: int
    rmin: tuple[int, ...] = ()


class Spec(NamedTuple):
    """A table row as coefficient matrices over its slots, class slots first."""

    slots: tuple[int, ...]   # id columns in gather order: class slots, then relation slots
    nc: int                  # number of class slots
    vec: np.ndarray          # (norm rows + reg slots, slots): vectors whose norms are taken
    nreg: int                # trailing rows of vec that are regularized centers
    norm: np.ndarray         # (hinges, rows of vec): signs of the norms in each hinge
    rad: np.ndarray          # (hinges, class slots)
    margin: np.ndarray       # (hinges, 1)
    rmin: tuple[tuple[int, int, int], ...]   # (hinge, i, j) over class slots
    sign: float
    act: bool


def _spec(kinds: str, hinges, reg=(), sign=1.0, act=True) -> Spec:
    cls = tuple(k for k, kind in enumerate(kinds) if kind == "c")
    slots = cls + tuple(k for k, kind in enumerate(kinds) if kind == "r")
    normed = [i for i, h in enumerate(hinges) if h.norm]
    vec = [[hinges[i].vec[k] for k in slots] for i in normed]
    vec += [[int(k == j) for k in slots] for j in reg]
    norm = np.zeros((len(hinges), len(vec)))
    for row, i in enumerate(normed):
        norm[i, row] = hinges[i].norm
    rmin = tuple((i, cls.index(h.rmin[0]), cls.index(h.rmin[1]))
                 for i, h in enumerate(hinges) if h.rmin)
    return Spec(slots=slots, nc=len(cls),
                vec=np.array(vec, dtype=np.float64).reshape(len(vec), len(slots)),
                nreg=len(reg), norm=norm,
                rad=np.array([[h.rad[k] for k in cls] for h in hinges], dtype=np.float64),
                margin=np.array([[h.margin] for h in hinges], dtype=np.float64),
                rmin=rmin, sign=sign, act=act)


# both penalize ball overlap: act(r_c + r_d - ||x_c - x_d|| + gamma)
_OVERLAP = _spec("cc", (Hinge(-1, (1, -1), (1, 1), 1),), reg=(0, 1))

SPECS = {
    "gci0_pos": _spec("cc", (Hinge(1, (1, -1), (1, -1), -1),), reg=(0, 1)),
    "gci1_pos": _spec("ccc", (
        Hinge(1, (1, -1, 0), (-1, -1, 0), -1),         # the two balls must meet
        Hinge(1, (1, 0, -1), (1, 0, -1), -1),          # c inside e
        Hinge(1, (0, 1, -1), (0, 1, -1), -1),          # d inside e
        Hinge(0, (0, 0, 0), (0, 0, -1), -1, rmin=(0, 1)),
    ), reg=(0, 1, 2)),
    "gci2_pos": _spec("crc", (Hinge(1, (1, 1, -1), (1, 0, -1), -1),), reg=(0, 2)),
    "gci3_pos": _spec("rcc", (Hinge(1, (-1, 1, -1), (0, -1, -1), -1),), reg=(1, 2)),
    "gci0_bot": _spec("c", (Hinge(0, (0,), (1,), 0),), act=False),
    "gci1_bot": _OVERLAP,
    "gci3_bot": _spec("rc", (Hinge(0, (0, 0), (0, 1), 0),), act=False),
    "gci0_neg": _OVERLAP,
    "gci1_neg": _spec("ccc", (
        Hinge(1, (1, -1, 0), (-1, -1, 0), -1),         # penalize non-overlap of c and d
        Hinge(-1, (1, 0, -1), (1, 0, 0), 1),           # e's center outside ball c
        Hinge(-1, (0, 1, -1), (0, 1, 0), 1),           # e's center outside ball d
    ), reg=(0, 1, 2)),
    "gci2_neg": _spec("crc", (Hinge(-1, (1, 1, -1), (1, 0, 1), 1),), reg=(0, 2)),
    "gci3_neg": _spec("rcc", (Hinge(-1, (-1, 1, -1), (0, 1, 1), 1),), reg=(1, 2)),
    # the completion score: -act(||x_c + v_r - x_d|| - r_c - r_d - gamma), no regularization
    "score_gci2": _spec("crc", (Hinge(1, (1, 1, -1), (-1, 0, -1), -1),), sign=-1.0),
}

TERMS = tuple(SPECS)

# Number of id columns each term consumes (relation slots included).
TERM_ARITY = {term: len(spec.slots) for term, spec in SPECS.items()}

# Columns holding relation ids (all other columns are class ids).
TERM_RELATION_SLOTS = {term: spec.slots[spec.nc:] for term, spec in SPECS.items()
                       if len(spec.slots) > spec.nc}

# Rows per pass of the loss loop: bounds the gathered and gradient blocks a
# call holds at once, whatever the batch size.
CHUNK = 1024

CHECKPOINT_MAGIC = b"ELGEO\x00"
CHECKPOINT_VERSION = 1
# checkpoint header field -> the exact JSON value types it may hold (so no bool); None: any
HEADER_TYPES = {
    "version": None, "reg_mode": None, "activation": None,
    "dim": (int,), "n_classes": (int,), "n_relations": (int,), "seed": (int,),
    "margin": (int, float), "reg_radius": (int, float), "leaky_slope": (int, float),
}


def param_size(n_classes: int, n_relations: int, dim: int) -> int:
    """Length of the flat parameter vector of a model."""
    return (n_classes + n_relations) * dim + n_classes


@dataclass
class EmbeddingModel:
    sig: Signature
    dim: int
    margin: float
    reg_mode: str            # "strict" | "relaxed"
    reg_radius: float
    activation: str          # "relu" | "leaky_relu"
    leaky_slope: float
    seed: int
    params: np.ndarray       # flat float64, cut by views() into the three below
    # table sizes of the block, fixed when it is built (default: the
    # signature's then); names interned into sig later have no parameters
    n_classes: int | None = None
    n_relations: int | None = None
    centers: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)
    rel_vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.reg_mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown reg_mode: {self.reg_mode!r}")
        if self.activation not in ("relu", "leaky_relu"):
            raise ValueError(f"unknown activation: {self.activation!r}")
        if self.n_classes is None:
            self.n_classes = self.sig.n_classes
        if self.n_relations is None:
            self.n_relations = self.sig.n_relations
        size = param_size(self.n_classes, self.n_relations, self.dim)
        if self.params.shape != (size,):
            raise ValueError(f"params has shape {self.params.shape}, expected ({size},)")
        self.centers, self.radii, self.rel_vectors = self.views(self.params)

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut a vector laid out like params into (centers, radii, relation vectors).

        The one place that knows the layout, which is also the checkpoint's
        byte order: centers (n_classes, dim) row-major, radii (n_classes,),
        relation vectors (n_relations, dim).
        """
        nc, nr, dim = self.n_classes, self.n_relations, self.dim
        k = nc * dim
        return flat[:k].reshape(nc, dim), flat[k:k + nc], flat[k + nc:].reshape(nr, dim)

    @classmethod
    def create(cls, sig: Signature, dim: int, margin: float = 0.1,
               reg_mode: str = "strict", reg_radius: float = 1.0,
               activation: str = "relu", leaky_slope: float = 0.01,
               seed: int = 42, rng: np.random.Generator | None = None) -> "EmbeddingModel":
        """Initialize parameters i.i.d. uniform on [-1/sqrt(dim), 1/sqrt(dim)]."""
        if rng is None:
            rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(dim)
        params = rng.uniform(-bound, bound, size=param_size(sig.n_classes, sig.n_relations, dim))
        return cls(sig=sig, dim=dim, margin=margin, reg_mode=reg_mode,
                   reg_radius=reg_radius, activation=activation,
                   leaky_slope=leaky_slope, seed=seed, params=params)

    def copy(self) -> "EmbeddingModel":
        return replace(self, params=self.params.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.params).all())

    def score_tails(self, c, r, tails: np.ndarray) -> np.ndarray:
        """Completion score of (c, r, t) for every candidate tail t; ``c`` and ``r``
        are ids or per-tail id arrays, broadcast to ``tails``."""
        tails = np.asarray(tails, dtype=np.int64)
        return loss_term(self, "score_gci2",
                         (np.broadcast_to(c, tails.shape), np.broadcast_to(r, tails.shape), tails))


class GradientBuffer:
    """Dense parameter gradients laid out like the model's params (repeated ids add up).

    Each ``add_*`` is one ``np.add.at`` with 1-D offsets into a 1-D view of
    its table: NumPy's fast path, several times quicker than adding 2-D rows.
    ``add.at`` applies its updates in index order, so every element gets the
    same sums in the same order as a row-by-row loop.  An id past the table
    raises IndexError before any update, so no offset reaches a neighbouring
    table.
    """

    def __init__(self, model: EmbeddingModel):
        self.flat = np.zeros_like(model.params)
        self.centers, self.radii, self.rels = model.views(self.flat)

    @staticmethod
    def _add_rows(table, ids, g):
        """Add row ``g[k]`` to ``table[ids[k]]`` for each k, in order."""
        dim = table.shape[1]
        offsets = np.asarray(ids, dtype=np.int64)[:, None] * dim + np.arange(dim)
        np.add.at(table.reshape(-1), offsets.ravel(), np.reshape(g, -1))

    def add_center(self, ids, g):
        self._add_rows(self.centers, ids, g)

    def add_radius(self, ids, g):
        np.add.at(self.radii, ids, g)

    def add_rel(self, ids, g):
        self._add_rows(self.rels, ids, g)


def loss_term(model: EmbeddingModel, term: str, cols, grad: GradientBuffer | None = None,
              coef=1.0) -> np.ndarray:
    """Per-sample values of one loss term; optionally accumulate `coef` x gradient.

    ``cols`` holds one id array per slot in the term's axiom layout
    (relation slots included in order).  ``coef`` may be a scalar or a
    per-sample array and scales only the gradient, not the returned values.
    """
    p = SPECS.get(term)
    if p is None:
        raise ValueError(f"unknown loss term: {term!r}")
    if len(cols) != len(p.slots):
        raise ValueError(f"{term} takes {len(p.slots)} id columns, got {len(cols)}")
    ids = np.array([cols[k] for k in p.slots], dtype=np.int64)
    nc, dim = p.nc, model.dim
    # largest id per column; a negative id wraps past every table size
    top = ids.view(np.uint64).max(axis=1).tolist() if ids.shape[1] else []
    for tops, table, what in ((top[:nc], model.centers, "class"),
                              (top[nc:], model.rel_vectors, "relation")):
        if tops and max(tops) >= len(table):
            raise KeyError(f"unknown {what} id in batch (valid range 0..{len(table) - 1})")
    strict = model.reg_mode == "strict"
    # the activation's slope below 0; 1 keeps the raw argument (the BOT terms)
    neg = (0.0 if model.activation == "relu" else model.leaky_slope) if p.act else 1.0
    coef = np.asarray(coef, dtype=np.float64)
    out = np.empty(ids.shape[1])
    # one block for the gathered vectors and one for their sums, reused by every chunk
    block = min(len(out), CHUNK) * dim
    xbuf, ybuf = np.empty(len(ids) * block), np.empty(len(p.vec) * block)

    for lo in range(0, len(out), CHUNK):
        chunk = ids[:, lo:lo + CHUNK]
        r = model.radii.take(chunk[:nc])
        arg = p.rad @ r + p.margin * model.margin
        for h, i, j in p.rmin:
            arg[h] += np.minimum(r[i], r[j])
        if len(p.vec):
            # ids are checked above, so "clip" never clips; it lets take fill x in place
            x = xbuf[:chunk.size * dim].reshape(chunk.shape + (dim,))
            model.centers.take(chunk[:nc], axis=0, out=x[:nc], mode="clip")
            model.rel_vectors.take(chunk[nc:], axis=0, out=x[nc:], mode="clip")
            y = ybuf[:len(p.vec) * chunk.shape[1] * dim].reshape(len(p.vec), -1, dim)
            np.matmul(p.vec, x.reshape(len(x), -1), out=y.reshape(len(y), -1))
            nrm = np.sqrt(np.einsum("ijk,ijk->ij", y, y))
            arg += p.norm @ nrm
            reg = nrm[len(nrm) - p.nreg:] - (1.0 if strict else model.reg_radius)
        val = np.maximum(arg, 0.0) if neg == 0.0 else np.where(arg > 0.0, arg, neg * arg)
        val = p.sign * np.add.reduce(val, axis=0)
        if p.nreg:
            val += np.add.reduce(np.abs(reg) if strict else np.maximum(reg, 0.0), axis=0)
        out[lo:lo + CHUNK] = val
        if grad is None:
            continue

        w = coef[lo:lo + CHUNK] if coef.ndim else coef
        u = np.where(arg > 0.0, 1.0, neg) * (w * p.sign)
        dr = p.rad.T @ u
        for h, i, j in p.rmin:
            first = r[i] <= r[j]
            dr[i] += u[h] * first
            dr[j] += u[h] * ~first
        grad.add_radius(chunk[:nc].ravel(), dr.ravel())
        if len(p.vec):
            dn = p.norm.T @ u
            if p.nreg:
                dn[len(dn) - p.nreg:] = w * (np.sign(reg) if strict else reg > 0.0)
            # d value / d y = dn * y / ||y||, zero where the norm is 0; the slot
            # gradients then overwrite x
            y *= np.divide(dn, nrm, out=np.zeros_like(nrm), where=nrm > 0.0)[..., None]
            np.matmul(p.vec.T, y.reshape(len(y), -1), out=x.reshape(len(x), -1))
            grad.add_center(chunk[:nc].ravel(), x[:nc].reshape(-1, dim))
            if nc < len(chunk):
                grad.add_rel(chunk[nc:].ravel(), x[nc:].reshape(-1, dim))
    return out


# --- checkpoint format -------------------------------------------------------

def save_model(model: EmbeddingModel, path: str):
    """Binary checkpoint: header JSON, the raw little-endian float64 params, id tables."""
    header = {
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "n_classes": model.n_classes,
        "n_relations": model.n_relations,
        "margin": model.margin,
        "reg_mode": model.reg_mode,
        "reg_radius": model.reg_radius,
        "activation": model.activation,
        "leaky_slope": model.leaky_slope,
        "seed": model.seed,
    }
    tables = {
        "classes": list(model.sig.class_names[:model.n_classes]),
        "relations": list(model.sig.relation_names[:model.n_relations]),
    }
    hblob = json.dumps(header, sort_keys=True).encode("utf-8")
    tblob = json.dumps(tables, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(hblob)))
        f.write(hblob)
        f.write(np.ascontiguousarray(model.params, dtype="<f8").tobytes())
        f.write(struct.pack("<Q", len(tblob)))
        f.write(tblob)


def load_model(path: str) -> EmbeddingModel:
    """Read a checkpoint; a file cut short, overlong, malformed or holding a
    non-finite parameter raises ValueError naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    off = len(CHECKPOINT_MAGIC)

    def take(nbytes: int) -> memoryview:
        nonlocal off
        if off + nbytes > len(blob):
            raise ValueError(f"truncated checkpoint: {path} ends at byte {len(blob)}, "
                             f"expected at least {off + nbytes}")
        off += nbytes
        return memoryview(blob)[off - nbytes:off]

    def take_json():
        (n,) = struct.unpack("<Q", take(8))
        text = take(n)
        try:
            return json.loads(str(text, "utf-8"))
        except ValueError as exc:   # bad UTF-8 or JSON
            raise ValueError(f"corrupt checkpoint: {path}: {exc}") from None

    header = take_json()
    if not (isinstance(header, dict) and set(HEADER_TYPES) <= set(header) and all(
            t is None or type(header[k]) in t for k, t in HEADER_TYPES.items())
            and header["dim"] >= 1 and header["n_classes"] >= 2 and header["n_relations"] >= 0):
        raise ValueError(f"corrupt checkpoint header: {path}: {header!r}")
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version in {path}: {header['version']!r}")
    nc, nr, dim = header["n_classes"], header["n_relations"], header["dim"]
    params = np.frombuffer(take(param_size(nc, nr, dim) * 8), dtype="<f8").copy()
    tables = take_json()
    if off != len(blob):
        raise ValueError(f"corrupt checkpoint: {path} has {len(blob) - off} bytes "
                         f"past its identifier tables")
    if not np.isfinite(params).all():   # NaN compares false, so every rank would be 1
        raise ValueError(f"corrupt checkpoint: {path} has non-finite parameters")
    try:   # tables of the wrong shape, bad names, a bad reg_mode or activation
        if tables["classes"][:2] != [TOP_NAME, BOT_NAME]:
            raise ValueError(f"class names start with {tables['classes'][:2]!r}")
        sig = Signature()
        for name in tables["classes"][2:]:   # TOP and BOT are pre-interned
            sig.intern_class(name)
        for name in tables["relations"]:
            sig.intern_relation(name)
        return EmbeddingModel(
            sig=sig, dim=dim, margin=header["margin"], reg_mode=header["reg_mode"],
            reg_radius=header["reg_radius"], activation=header["activation"],
            leaky_slope=header["leaky_slope"], seed=header["seed"], params=params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt checkpoint: {path}: {exc}") from None

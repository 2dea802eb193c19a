"""Ball-embedding parameters, loss terms and their gradients, and the completion score.

Classes are open n-balls (center x, raw and possibly negative radius r) and relations are
translation vectors v.  Each loss term (seven positive, four negative) is a row of ``SPECS``,
computed forward and backward by :func:`loss_term`; the completion score is minus ``SCORE``.

Reading a row: ``_spec(form, hinges, reg, act)`` takes its id columns in
``form``'s slot order, which ``axioms.LAYOUT`` states (``c`` class, ``r``
relation).  Each ``Hinge(norm, vec, rad, margin, rmin)`` is one hinge
argument, ``vec`` and ``rad`` holding a sign or 0 per slot::

    norm * ||sum_k vec[k] * x_k|| + sum_k rad[k] * r_k + margin * gamma
                                  [+ min(r_i, r_j) when rmin = (i, j)]

with x_k slot k's center or translation and gamma the model margin.  A
sample's value is ``sum(act(hinge)) + sum(reg(x_k) for k in reg)``;
``act=False`` keeps the raw argument, so the BOT terms return a radius.  So
over GCI2's layout ``"crc"``,
``_spec(Form.GCI2, (Hinge(1, (1, 1, -1), (1, 0, -1), -1),), reg=(0, 2))`` reads
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
import math
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .axioms import BOT_NAME, LAYOUT, TOP_NAME, Form, Signature
from .manifest import write_atomic


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
    act: bool


def _spec(form: Form, hinges, reg=(), act=True) -> Spec:
    kinds = LAYOUT[form]
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
                rmin=rmin, act=act)


# both penalize ball overlap: act(r_c + r_d - ||x_c - x_d|| + gamma)
_OVERLAP = _spec(Form.GCI1_BOT, (Hinge(-1, (1, -1), (1, 1), 1),), reg=(0, 1))

SPECS = {
    "gci0_pos": _spec(Form.GCI0, (Hinge(1, (1, -1), (1, -1), -1),), reg=(0, 1)),
    "gci1_pos": _spec(Form.GCI1, (
        Hinge(1, (1, -1, 0), (-1, -1, 0), -1),         # the two balls must meet
        Hinge(1, (1, 0, -1), (1, 0, -1), -1),          # c inside e
        Hinge(1, (0, 1, -1), (0, 1, -1), -1),          # d inside e
        Hinge(0, (0, 0, 0), (0, 0, -1), -1, rmin=(0, 1)),
    ), reg=(0, 1, 2)),
    "gci2_pos": _spec(Form.GCI2, (Hinge(1, (1, 1, -1), (1, 0, -1), -1),), reg=(0, 2)),
    "gci3_pos": _spec(Form.GCI3, (Hinge(1, (-1, 1, -1), (0, -1, -1), -1),), reg=(1, 2)),
    "gci0_bot": _spec(Form.GCI0_BOT, (Hinge(0, (0,), (1,), 0),), act=False),
    "gci1_bot": _OVERLAP,
    "gci3_bot": _spec(Form.GCI3_BOT, (Hinge(0, (0, 0), (0, 1), 0),), act=False),
    "gci0_neg": _OVERLAP,
    "gci1_neg": _spec(Form.GCI1, (
        Hinge(1, (1, -1, 0), (-1, -1, 0), -1),         # penalize non-overlap of c and d
        Hinge(-1, (1, 0, -1), (1, 0, 0), 1),           # e's center outside ball c
        Hinge(-1, (0, 1, -1), (0, 1, 0), 1),           # e's center outside ball d
    ), reg=(0, 1, 2)),
    "gci2_neg": _spec(Form.GCI2, (Hinge(-1, (1, 1, -1), (1, 0, 1), 1),), reg=(0, 2)),
    "gci3_neg": _spec(Form.GCI3, (Hinge(-1, (-1, 1, -1), (0, 1, 1), 1),), reg=(1, 2)),
}

TERMS = tuple(SPECS)

# minus the completion score, not a loss term: act(||x_c + v_r - x_t|| - r_c - r_t - gamma)
SCORE = _spec(Form.GCI2, (Hinge(1, (1, 1, -1), (-1, 0, -1), -1),))

# Rows per pass of the loss loop: bounds the gathered and gradient blocks a
# call holds at once, whatever the batch size.
CHUNK = 1024

REG_MODES, ACTIVATIONS = ("strict", "relaxed"), ("relu", "leaky_relu")

CHECKPOINT_MAGIC = b"ELGEO\x00"
CHECKPOINT_VERSION = 1
# checkpoint header field -> the exact JSON value types it may hold (so no bool); None: any
HEADER_TYPES = {
    "version": None, "reg_mode": None, "activation": None,
    "dim": (int,), "n_classes": (int,), "n_relations": (int,), "seed": (int,),
    "margin": (int, float), "reg_radius": (int, float), "leaky_slope": (int, float),
}
# the model settings a header carries: every field but the format version and table sizes
SETTINGS = tuple(key for key in HEADER_TYPES if key not in ("version", "n_classes", "n_relations"))


def param_size(n_classes: int, n_relations: int, dim: int) -> int:
    """Length of the flat parameter vector of a model."""
    return (n_classes + n_relations) * dim + n_classes


@dataclass
class EmbeddingModel:
    sig: Signature
    dim: int
    margin: float
    reg_mode: str            # one of REG_MODES
    reg_radius: float
    activation: str          # one of ACTIVATIONS
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
        # a NaN here makes every score NaN, which compares false, so every rank would be 1
        for name in ("margin", "reg_radius", "leaky_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)!r}")
        if self.reg_mode not in REG_MODES:
            raise ValueError(f"unknown reg_mode: {self.reg_mode!r}")
        if self.activation not in ACTIVATIONS:
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

    def score_tails(self, c, r, tails) -> np.ndarray:
        """The completion score: minus ``loss_term``'s ``SCORE`` row, the same bits however batched,
        over the broadcast (c, r, t) ids: one per entry, or (q, 1) heads and rels by (n,) tails."""
        ids = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (c, r, tails)))
        return -loss_term(self, SCORE, [a.ravel() for a in ids]).reshape(ids[0].shape)

    def score_bounds(self, tails):
        """Approximate scores against the (n,) ``tails``, each with a bound on its error.

        Returns ``bounds(c, r) -> (scores, err)`` over (q,) heads and relations.  With
        a = x_c + v_r the squared distance ||a - x_t||^2 is one matrix product of K = dim + 2
        terms, [-2a | ||a||^2 | 1] times the tails' [x_t | 1 | ||x_t||^2], whose side is
        packed once, here.  ``err`` bounds |scores - score_tails(c[:, None], r[:, None],
        tails)| on every entry, whatever the summation order of either, from Higham's
        |fl(p.q) - p.q| <= gamma_K |p|.|q| (gamma_K = K u / (1 - K u), u the unit roundoff).
        With M = ||a|| + the pool's largest ||x_t||, the terms sum to at most M^2 and each
        computed squared norm is off by at most gamma_dim of itself, so the product is off
        by at most E = c1 M^2, c1 a little over (2 dim + 4) u, plus what underflow adds,
        and its root by at most min(sqrt(E), E / root); the rounding of a, of the pinned
        path and of the adds of radii, margin and norm add (dim + 14) u per unit of M, 2 u
        per unit of ||v_r|| and 6 u per unit of |r_c|, |gamma| and the pool's largest |r_t|.
        So every term of ``err`` but E / root is one per head, all times max(1, |slope|),
        and ``err`` costs three passes.  It is 0 only where relu's argument is certainly
        <= 0, so that both scores are -0.0, and inf or NaN where the expansion overflows."""
        t = _check_ids(np.asarray(tails, dtype=np.int64), self.centers, "class")
        rt, side = self.radii.take(t), np.ones((self.dim + 2, len(t)))
        side[:-2] = self.centers.take(t, axis=0).T
        with np.errstate(over="ignore"):
            side[-1] = np.einsum("ij,ij->j", side[:-2], side[:-2])
        u, slope = 2.0 ** -53, 0.0 if self.activation == "relu" else self.leaky_slope
        c1 = (2 * self.dim + 4) * u * (1 + 2 ** -10)
        under = 16 * self.dim * 2.0 ** -1074   # more than underflow adds to a squared norm
        lin = (self.dim + 8) * u * (1 + 2 ** -10) + 6 * u * (1 + np.sqrt(c1))   # per unit of M
        xt = np.sqrt(side[-1].max(initial=0.0))
        lin_t = lin * xt + 6 * u * np.abs(rt).max(initial=0.0)
        lipschitz = max(1.0, abs(slope))

        def bounds(c, r):
            c = _check_ids(np.asarray(c, dtype=np.int64), self.centers, "class")
            r = _check_ids(np.asarray(r, dtype=np.int64), self.rel_vectors, "relation")
            # an overflowing square leaves err inf or NaN, which the caller rescores
            with np.errstate(over="ignore", invalid="ignore"):
                v = self.rel_vectors.take(r, axis=0)
                a = self.centers.take(c, axis=0) + v
                head = np.ones((len(c), self.dim + 2))
                aa = head[:, -2] = np.einsum("ij,ij->i", a, a)
                np.multiply(a, -2.0, out=head[:, :-2])
                rc = self.radii.take(c)
                root = np.matmul(head, side)
                np.sqrt(np.maximum(root, 0.0, out=root), out=root)
                # minus the argument: -(((-r_c + -r_t) + -gamma) + root) up to its rounding
                neg = np.add((rc + self.margin)[:, None], rt)
                neg -= root
                se = np.sqrt(c1 * aa + under) + np.sqrt(c1) * xt   # at least sqrt(E)
                lin_c = (lin * np.sqrt(aa) + 2 * u * np.sqrt(np.einsum("ij,ij->i", v, v))
                         + 3 * np.sqrt(under) + 6 * u * (np.abs(rc) + abs(self.margin)) + lin_t)
                # lipschitz * (min(sqrt(E), E / root) + lin_c)
                err = np.divide((lipschitz * se * se)[:, None],
                                np.maximum(root, se[:, None], out=root), out=root)
                err += (lipschitz * lin_c)[:, None]
                if slope == 0.0:   # -max(arg, 0), and err 0 where arg + err <= 0
                    err[np.subtract(neg, err) >= 0.0] = 0.0
                    return np.minimum(neg, -0.0, out=neg), err
                if 0.0 < slope <= 1.0:   # -max(arg, slope * arg), the pinned where() then
                    return np.minimum(neg, np.multiply(neg, slope), out=neg), err
                return -np.where(neg < 0.0, -neg, slope * -neg), err

        return bounds


class GradientBuffer:
    """Dense parameter gradients laid out like the model's params (repeated ids add up).

    Each ``add_*`` is one ``np.add.at`` with 1-D offsets into a 1-D view of
    its table: NumPy's fast path, several times quicker than adding 2-D rows.
    ``add.at`` applies its updates in index order, so every element gets the
    same sums in the same order as a row-by-row loop.  Rows of even width
    are added as complex pairs: a complex add is two float adds, so half the
    offsets give the same bits.  An id past the table raises IndexError
    before any update, so no offset reaches a neighbouring table.
    """

    def __init__(self, model: EmbeddingModel):
        self.flat = np.zeros_like(model.params)
        self.centers, self.radii, self.rels = model.views(self.flat)

    @staticmethod
    def _add_rows(table, ids, g):
        """Add row ``g[k]`` to ``table[ids[k]]`` for each k, in order."""
        flat, g, width = table.reshape(-1), np.asarray(g, np.float64).ravel(), table.shape[1]
        if width % 2 == 0:
            flat, g, width = flat.view(np.complex128), g.view(np.complex128), width // 2
        offsets = np.asarray(ids, dtype=np.int64)[:, None] * width + np.arange(width)
        np.add.at(flat, offsets.ravel(), g)

    def add_center(self, ids, g):
        self._add_rows(self.centers, ids, g)

    def add_radius(self, ids, g):
        np.add.at(self.radii, ids, g)

    def add_rel(self, ids, g):
        self._add_rows(self.rels, ids, g)


def _check_ids(ids: np.ndarray, table: np.ndarray, what: str) -> np.ndarray:
    """``ids``, or KeyError unless each is a row of ``table`` (a negative id wraps past all)."""
    if ids.size and ids.view(np.uint64).max() >= len(table):
        raise KeyError(f"unknown {what} id in batch (valid range 0..{len(table) - 1})")
    return ids


def loss_term(model: EmbeddingModel, term: str | Spec, cols, grad: GradientBuffer | None = None,
              coef: float = 1.0) -> np.ndarray:
    """Per-sample values of one loss term; optionally accumulate `coef` x gradient.

    ``term`` is a ``SPECS`` key or a row such as ``SCORE``; ``cols`` holds one id array
    per slot in its axiom layout (relation slots included in order).  ``coef``, one
    weight for every sample, scales only the gradient, not the returned values.
    """
    p = term if isinstance(term, Spec) else SPECS.get(term)
    if p is None:
        raise ValueError(f"unknown loss term: {term!r}")
    if len(cols) != len(p.slots):
        raise ValueError(f"{term} takes {len(p.slots)} id columns, got {len(cols)}")
    ids = np.array([cols[k] for k in p.slots], dtype=np.int64)
    nc, dim = p.nc, model.dim
    _check_ids(ids[:nc], model.centers, "class")
    _check_ids(ids[nc:], model.rel_vectors, "relation")
    strict = model.reg_mode == "strict"
    # the activation's slope below 0; 1 keeps the raw argument (the BOT terms)
    neg = (0.0 if model.activation == "relu" else model.leaky_slope) if p.act else 1.0
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
        val = np.add.reduce(val, axis=0)
        if p.nreg:
            val += np.add.reduce(np.abs(reg) if strict else np.maximum(reg, 0.0), axis=0)
        out[lo:lo + CHUNK] = val
        if grad is None:
            continue

        u = np.where(arg > 0.0, 1.0, neg) * coef
        dr = p.rad.T @ u
        for h, i, j in p.rmin:
            first = r[i] <= r[j]
            dr[i] += u[h] * first
            dr[j] += u[h] * ~first
        grad.add_radius(chunk[:nc].ravel(), dr.ravel())
        if len(p.vec):
            dn = p.norm.T @ u
            if p.nreg:
                dn[len(dn) - p.nreg:] = coef * (np.sign(reg) if strict else reg > 0.0)
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
    header = {"version": CHECKPOINT_VERSION, "n_classes": model.n_classes,
              "n_relations": model.n_relations, **{key: getattr(model, key) for key in SETTINGS}}
    tables = {
        "classes": list(model.sig.class_names[:model.n_classes]),
        "relations": list(model.sig.relation_names[:model.n_relations]),
    }
    hblob = json.dumps(header, sort_keys=True).encode("utf-8")
    tblob = json.dumps(tables, sort_keys=True).encode("utf-8")
    write_atomic(path, [CHECKPOINT_MAGIC, struct.pack("<Q", len(hblob)), hblob,
                        np.ascontiguousarray(model.params, dtype="<f8").tobytes(),
                        struct.pack("<Q", len(tblob)), tblob])


def load_model(path: str) -> EmbeddingModel:
    """Read a checkpoint; a file cut short, overlong, malformed or holding a
    non-finite parameter or header float raises ValueError naming it."""
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
    try:   # tables of the wrong shape, bad names, a bad reg_mode, activation or float
        if tables["classes"][:2] != [TOP_NAME, BOT_NAME]:
            raise ValueError(f"class names start with {tables['classes'][:2]!r}")
        sig = Signature()
        for name in tables["classes"][2:]:   # TOP and BOT are pre-interned
            sig.intern_class(name)
        for name in tables["relations"]:
            sig.intern_relation(name)
        # the tables, not the header, size the model: a mismatch fails the params check
        return EmbeddingModel(sig=sig, params=params, **{key: header[key] for key in SETTINGS})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"corrupt checkpoint: {path}: {exc}") from None

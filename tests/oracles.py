"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the library's indexed/worklist code paths: the
reasoner oracle rescans every rule over every class until nothing changes,
the closure oracle applies the slot-rewrite rules by exhaustive loops, and
the metric oracle recomputes every aggregate with plain Python loops.
"""

from __future__ import annotations

from collections import defaultdict

from elgeo.axioms import BOT, TOP, Form


def rescan_saturate(kb):
    """Queue-free fixpoint: apply all completion rules by full rescan."""
    n = kb.sig.n_classes
    S = {c: {c, TOP} for c in range(n)}
    R = defaultdict(set)
    gci0 = [ax.args for ax in kb.axioms[Form.GCI0]]
    gci1 = [ax.args for ax in kb.axioms[Form.GCI1]]
    gci2 = [ax.args for ax in kb.axioms[Form.GCI2]]
    gci3 = [ax.args for ax in kb.axioms[Form.GCI3]]
    gci0b = [ax.args for ax in kb.axioms[Form.GCI0_BOT]]
    gci1b = [ax.args for ax in kb.axioms[Form.GCI1_BOT]]
    gci3b = [ax.args for ax in kb.axioms[Form.GCI3_BOT]]
    changed = True
    while changed:
        changed = False

        def add(c, d):
            nonlocal changed
            if d not in S[c]:
                S[c].add(d)
                changed = True

        for c in range(n):
            for (d, e) in gci0:
                if d in S[c]:
                    add(c, e)
            for (d1, d2, e) in gci1:
                if d1 in S[c] and d2 in S[c]:
                    add(c, e)
            for (d, r, e) in gci2:
                if d in S[c] and (c, e) not in R[r]:
                    R[r].add((c, e))
                    changed = True
            for (d,) in gci0b:
                if d in S[c]:
                    add(c, BOT)
            for (d1, d2) in gci1b:
                if d1 in S[c] and d2 in S[c]:
                    add(c, BOT)
        for r, pairs in list(R.items()):
            for (c, d) in list(pairs):
                for (rr, dp, e) in gci3:
                    if rr == r and dp in S[d]:
                        add(c, e)
                for (rr, dp) in gci3b:
                    if rr == r and dp in S[d]:
                        add(c, BOT)
                if BOT in S[d]:
                    add(c, BOT)
    return S


def rescan_closure(kb, S):
    """Single pass of the slot-rewrite rules with exhaustive premise loops."""
    n = kb.sig.n_classes
    unsat = {c for c in range(n) if BOT in S[c]}

    def subs_of(c):
        return ({cp for cp in range(n) if c in S[cp]} | unsat) - {BOT}

    def sups_of(c):
        return set(range(n)) if c in unsat else set(S[c])

    out = {form: set() for form in
           (Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3,
            Form.GCI0_BOT, Form.GCI1_BOT, Form.GCI3_BOT)}

    def put(form, args):
        # canonical bucket for BOT right-hand sides, mirroring reference_make_axiom
        if form is Form.GCI0 and args[1] == BOT:
            out[Form.GCI0_BOT].add((args[0],))
        elif form is Form.GCI2 and args[2] == BOT:
            out[Form.GCI0_BOT].add((args[0],))
        elif form is Form.GCI3 and args[2] == BOT:
            out[Form.GCI3_BOT].add((args[0], args[1]))
        elif form is Form.GCI1 and args[2] == BOT:
            out[Form.GCI1_BOT].add((args[0], args[1]))
        else:
            out[form].add(args)

    for c in range(n):
        if c == BOT:
            continue
        for d in sups_of(c):
            put(Form.GCI0, (c, d))
    for ax in kb.axioms[Form.GCI1]:
        c, d, e = ax.args
        for cp in subs_of(c):
            put(Form.GCI1, (cp, d, e))
    for ax in kb.axioms[Form.GCI2]:
        c, r, d = ax.args
        for cp in subs_of(c):
            for dp in sups_of(d):
                put(Form.GCI2, (cp, r, dp))
    for ax in kb.axioms[Form.GCI3]:
        r, c, d = ax.args
        for cp in subs_of(c):
            for dp in sups_of(d):
                put(Form.GCI3, (r, cp, dp))
    for ax in kb.axioms[Form.GCI0_BOT]:
        for cp in subs_of(ax.args[0]):
            put(Form.GCI0_BOT, (cp,))
    for ax in kb.axioms[Form.GCI3_BOT]:
        r, c = ax.args
        for cp in subs_of(c):
            put(Form.GCI3_BOT, (r, cp))
    for ax in kb.axioms[Form.GCI1_BOT]:
        put(Form.GCI1_BOT, ax.args)
    return out


# the class slots left of the inclusion, by GCI form
LEFT_SLOTS = {Form.GCI0: (0,), Form.GCI1: (0, 1), Form.GCI2: (0,), Form.GCI3: (1,),
              Form.GCI0_BOT: (0,), Form.GCI1_BOT: (0, 1), Form.GCI3_BOT: (1,)}


def rescan_contains(kb, S, strict=False):
    """Per-row closure membership, answered from the subsumers S of rescan_saturate.

    Returns ``contains(form, args)``.  A row with BOT in a class slot left of
    the inclusion (any class slot but GCI0..GCI3's consequent) is a tautology.
    Subsumption premises come from S (every class is below itself and TOP; an
    unsatisfiable class is below everything), stored rows from
    ``rescan_closure``.  Unless ``strict``, GCI1 is looked up in either conjunct
    order, and an asserted disjointness of A and B covers every pair of their
    subclasses, in either order.
    """
    n = kb.sig.n_classes
    unsat = {c for c in range(n) if BOT in S[c]}
    stored = rescan_closure(kb, S)
    disjoint = [ax.args for ax in kb.axioms[Form.GCI1_BOT]]

    def below(c, d):
        return d in S[c] or c in unsat

    def contains(form, args):
        if any(args[k] == BOT for k in LEFT_SLOTS[form]):
            return True
        if form is Form.GCI0:
            return below(*args) or args in stored[form]
        if form is Form.GCI0_BOT:
            return args[0] in unsat or args in stored[form]
        if strict:
            return args in stored[form]
        if form is Form.GCI1:
            c, d, e = args
            return args in stored[form] or (d, c, e) in stored[form]
        if form is Form.GCI1_BOT:
            c, d = args
            if args in stored[form] or (d, c) in stored[form]:
                return True
            return any((below(c, a) and below(d, b)) or (below(c, b) and below(d, a))
                       for a, b in disjoint)
        return args in stored[form]

    return contains


def brute_loss(model, term, ids):
    """One loss term's value at one axiom, each formula written out in plain Python.

    ``ids`` holds the axiom's slot ids in the term's column order.  This is
    the forward reference for the table-driven engine in ``elgeo.geometry``:
    the finite-difference check only compares that engine with itself, so a
    wrong but self-consistent table row passes it and fails here.
    """
    import math

    g = model.margin

    def x(i):
        return [float(t) for t in model.centers[i]]

    def v(i):
        return [float(t) for t in model.rel_vectors[i]]

    def r(i):
        return float(model.radii[i])

    def norm(a):
        return math.sqrt(sum(t * t for t in a))

    def comb(*signed):
        """Sum of (sign, vector) pairs, coordinate by coordinate."""
        return [sum(s * vec[k] for s, vec in signed) for k in range(model.dim)]

    def act(a):
        if a > 0.0:
            return a
        return 0.0 if model.activation == "relu" else model.leaky_slope * a

    def reg(i):
        n = norm(x(i))
        if model.reg_mode == "strict":
            return abs(n - 1.0)
        return max(0.0, n - model.reg_radius)

    if term == "gci0_pos":
        c, d = ids
        return act(norm(comb((1, x(c)), (-1, x(d)))) + r(c) - r(d) - g) + reg(c) + reg(d)
    if term == "gci1_pos":
        c, d, e = ids
        meet = act(norm(comb((1, x(c)), (-1, x(d)))) - r(c) - r(d) - g)
        c_in_e = act(norm(comb((1, x(c)), (-1, x(e)))) + r(c) - r(e) - g)
        d_in_e = act(norm(comb((1, x(d)), (-1, x(e)))) + r(d) - r(e) - g)
        smaller = act(min(r(c), r(d)) - r(e) - g)
        return meet + c_in_e + d_in_e + smaller + reg(c) + reg(d) + reg(e)
    if term == "gci2_pos":
        c, rel, d = ids
        dist = norm(comb((1, x(c)), (1, v(rel)), (-1, x(d))))
        return act(dist + r(c) - r(d) - g) + reg(c) + reg(d)
    if term == "gci3_pos":
        rel, c, d = ids
        dist = norm(comb((1, x(c)), (-1, v(rel)), (-1, x(d))))
        return act(dist - r(c) - r(d) - g) + reg(c) + reg(d)
    if term == "gci0_bot":
        (c,) = ids
        return r(c)
    if term == "gci3_bot":
        rel, c = ids
        return r(c)
    if term in ("gci1_bot", "gci0_neg"):
        c, d = ids
        return act(r(c) + r(d) - norm(comb((1, x(c)), (-1, x(d)))) + g) + reg(c) + reg(d)
    if term == "gci1_neg":
        c, d, e = ids
        apart = act(norm(comb((1, x(c)), (-1, x(d)))) - r(c) - r(d) - g)
        e_out_c = act(r(c) - norm(comb((1, x(c)), (-1, x(e)))) + g)
        e_out_d = act(r(d) - norm(comb((1, x(d)), (-1, x(e)))) + g)
        return apart + e_out_c + e_out_d + reg(c) + reg(d) + reg(e)
    if term == "gci2_neg":
        c, rel, d = ids
        dist = norm(comb((1, x(c)), (1, v(rel)), (-1, x(d))))
        return act(r(c) + r(d) - dist + g) + reg(c) + reg(d)
    if term == "gci3_neg":
        rel, c, d = ids
        dist = norm(comb((1, x(c)), (-1, v(rel)), (-1, x(d))))
        return act(r(c) + r(d) - dist + g) + reg(c) + reg(d)
    raise ValueError(f"unknown loss term: {term!r}")


def brute_score(model, c, rel, d):
    """The completion score -act(||x_c + v_rel - x_d|| - r_c - r_d - gamma) of one
    (c, rel, d), written out in plain Python: the reference for ``score_tails``."""
    import math

    diff = [float(model.centers[c][k]) + float(model.rel_vectors[rel][k])
            - float(model.centers[d][k]) for k in range(model.dim)]
    a = (math.sqrt(sum(t * t for t in diff)) - float(model.radii[c]) - float(model.radii[d])
         - model.margin)
    if a > 0.0:
        return -a
    return 0.0 if model.activation == "relu" else -model.leaky_slope * a


def finite_difference(fn, model, h=1e-6):
    """Central finite differences of a scalar fn over all model parameters.

    Returns (centers_grad, radii_grad, rels_grad) arrays.
    """
    import numpy as np

    grads = []
    for arr in (model.centers, model.radii, model.rel_vectors):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn()
            flat[i] = orig - h
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return tuple(grads)


def brute_rank(scores, idx, tie_mode="optimistic"):
    s = scores[idx]
    greater = sum(1 for x in scores if x > s)
    if tie_mode == "optimistic":
        return 1 + greater
    ties = sum(1 for x in scores if x == s) - 1
    return 1 + greater + ties / 2.0


def brute_trapezoid_auc(ranks, n):
    """Threshold-enumeration AUC: grid over distinct observed ranks plus n."""
    xs = sorted(set(ranks))
    pts = []
    for k in xs:
        tpr = sum(1 for r in ranks if r <= k) / len(ranks)
        pts.append((k / n, tpr))
    pts.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def brute_aggregate(records, n):
    """All twelve aggregates from (head, rank, frank) triples by plain loops."""
    ranks = [r for (_, r, _) in records]
    franks = [f for (_, _, f) in records]
    heads = sorted({h for (h, _, _) in records})
    per_head = {h: [(r, f) for (hh, r, f) in records if hh == h] for h in heads}
    out = {
        "hits@10": sum(1 for r in ranks if r <= 10) / len(ranks),
        "hits@100": sum(1 for r in ranks if r <= 100) / len(ranks),
        "fhits@10": sum(1 for f in franks if f <= 10) / len(franks),
        "fhits@100": sum(1 for f in franks if f <= 100) / len(franks),
        "macro_mr": sum(ranks) / len(ranks),
        "macro_fmr": sum(franks) / len(franks),
        "macro_auc": brute_trapezoid_auc(ranks, n),
        "macro_fauc": brute_trapezoid_auc(franks, n),
    }
    head_mr = [sum(r for r, _ in per_head[h]) / len(per_head[h]) for h in heads]
    head_fmr = [sum(f for _, f in per_head[h]) / len(per_head[h]) for h in heads]
    head_auc = [brute_trapezoid_auc([r for r, _ in per_head[h]], n) for h in heads]
    head_fauc = [brute_trapezoid_auc([f for _, f in per_head[h]], n) for h in heads]
    out["micro_mr"] = sum(head_mr) / len(head_mr)
    out["micro_fmr"] = sum(head_fmr) / len(head_fmr)
    out["micro_auc"] = sum(head_auc) / len(head_auc)
    out["micro_fauc"] = sum(head_fauc) / len(head_fauc)
    return out

import numpy as np

from elgeo.dataset import build_kb
from elgeo.axioms import Signature, parse_normalized, rows_of


def random_kb(rng: np.random.Generator, n_classes=8, n_relations=2, n_axioms=20,
              bot_forms=True):
    """Random normalized KB over fresh identifiers (ids 2..n_classes+1)."""
    sig = Signature()
    classes = [sig.intern_class(f"K{i}") for i in range(n_classes)]
    rels = [sig.intern_relation(f"q{i}") for i in range(n_relations)]
    forms = [Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3]
    if bot_forms:
        forms += [Form.GCI0_BOT, Form.GCI1_BOT, Form.GCI3_BOT]
    axioms = []
    seen = set()
    for _ in range(n_axioms):
        form = forms[rng.integers(len(forms))]
        c = classes[rng.integers(n_classes)]
        d = classes[rng.integers(n_classes)]
        e = classes[rng.integers(n_classes)]
        r = rels[rng.integers(n_relations)]
        args = {
            Form.GCI0: (c, d),
            Form.GCI1: (c, d, e),
            Form.GCI2: (c, r, d),
            Form.GCI3: (r, c, d),
            Form.GCI0_BOT: (c,),
            Form.GCI1_BOT: (c, d),
            Form.GCI3_BOT: (r, c),
        }[form]
        ax = reference_make_axiom(form, args)
        if ax not in seen:
            seen.add(ax)
            axioms.append(ax)
    return build_kb(sig, as_rows(axioms))


def as_rows(axioms):
    """A list of Axioms as the Rows that build_kb takes."""
    return rows_of((ax.form, ax.args) for ax in axioms)


def as_axioms(rows):
    """Rows as a list of Axioms, in order."""
    return [Axiom(form, args) for form, args in rows.in_order()]


def parse_axioms(text, sig=None):
    """parse_normalized's rows as a list of Axioms, and the signature."""
    rows, sig = parse_normalized(text, sig)
    return as_axioms(rows), sig


def split_entailed(dc, axioms):
    """Partition axioms into (entailed, novel) by closure membership, order kept."""
    entailed, novel = [], []
    for ax in axioms:
        (entailed if dc.contains(ax) else novel).append(ax)
    return entailed, novel


def decode_all_closure_positives(dc, kb, split, heads, candidates):
    """``evaluate``'s closure positives by decoding every GCI2 key of ``dc``: the rows
    whose head is in ``heads``, relation in ``split``'s and tail in ``candidates``,
    in key order, less every axiom of the train, valid and test splits."""
    rows = dc.ids(Form.GCI2, dc.keys[Form.GCI2])
    rows = rows[np.isin(rows[:, 0], heads) & np.isin(rows[:, 1], split.ids[:, 1])
                & np.isin(rows[:, 2], candidates)]
    skip = {tuple(row) for ids in (kb.train_gci2.ids, kb.valid.ids, kb.test.ids)
            for row in ids.tolist()}
    return [row for row in map(tuple, rows.tolist()) if row not in skip]


def is_subsumed(closure, c, d):
    """True when c is a (derived) subclass of d in a SubsumptionClosure; KeyError
    for an id outside its signature."""
    n = closure.sig.n_classes
    if not (0 <= c < n and 0 <= d < n):
        raise KeyError(f"class id out of range: {(c, d)}")
    return d in closure.subsumers[c] or c in closure.unsat


def loss_value(model, term, ids):
    """Single-axiom loss value."""
    from elgeo.geometry import loss_term

    return float(loss_term(model, term, [[i] for i in ids])[0])


def gradient(model, term, ids):
    """Sparse analytic gradient of one term at one axiom.

    Keys are ("center", id), ("radius", id), ("relation", id); only the rows
    whose gradient is nonzero appear, so a touched row that sums to zero is
    left out.
    """
    from elgeo.geometry import GradientBuffer, loss_term

    buf = GradientBuffer(model)
    loss_term(model, term, [[i] for i in ids], grad=buf)
    out: dict = {}
    for i in np.flatnonzero(np.abs(buf.centers).sum(axis=1)):
        out[("center", int(i))] = buf.centers[i].copy()
    for i in np.flatnonzero(buf.radii):
        out[("radius", int(i))] = float(buf.radii[i])
    for i in np.flatnonzero(np.abs(buf.rels).sum(axis=1)):
        out[("relation", int(i))] = buf.rels[i].copy()
    return out


def gradcheck_max_error(draws=100, dim=8, seed=0, h=1e-6):
    """Worst relative error, analytic vs central finite differences.

    Sweeps every loss term under both activations and both regularization
    modes, re-randomizing parameters each draw.  Relative error uses a unit
    floor so zero-gradient coordinates compare absolutely.
    """
    from elgeo.axioms import Signature
    from elgeo.geometry import (
        SPECS, TERMS, EmbeddingModel, GradientBuffer, loss_term,
    )

    rng = np.random.default_rng(seed)
    sig = Signature()
    sig.intern_class("g0")
    sig.intern_class("g1")
    sig.intern_relation("r0")
    sig.intern_relation("r1")
    worst = 0.0
    for term in TERMS:
        rel_slots = SPECS[term].slots[SPECS[term].nc:]
        for activation in ("relu", "leaky_relu"):
            for reg_mode in ("strict", "relaxed"):
                model = EmbeddingModel.create(
                    sig, dim=dim, reg_mode=reg_mode, reg_radius=1.0,
                    activation=activation, leaky_slope=0.1, seed=seed)
                for _ in range(draws):
                    model.centers[:] = rng.uniform(-1.5, 1.5, model.centers.shape)
                    model.radii[:] = rng.uniform(-0.8, 0.8, model.radii.shape)
                    model.rel_vectors[:] = rng.uniform(-1.5, 1.5, model.rel_vectors.shape)
                    model.margin = float(rng.uniform(-0.15, 0.15))
                    ids = tuple(
                        int(rng.integers(model.sig.n_relations)) if j in rel_slots
                        else int(rng.integers(model.sig.n_classes))
                        for j in range(len(SPECS[term].slots)))
                    buf = GradientBuffer(model)
                    cols = tuple(np.array([i]) for i in ids)
                    loss_term(model, term, cols, grad=buf)
                    fd = finite_difference(lambda: loss_value(model, term, ids), model, h=h)
                    for analytic, numeric in zip((buf.centers, buf.radii, buf.rels), fd):
                        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
                        err = np.abs(analytic - numeric) / scale
                        worst = max(worst, float(err.max()))
    return worst


# --- loader references: the per-line parser and split checks of the Axiom-list loader ---

from elgeo.axioms import ARITY, LAYOUT, Axiom, ParseError, format_row  # noqa: E402


def reference_make_axiom(form, args):
    """The BOT-consequent rewrite, one branch per form."""
    if form is Form.GCI0 and args[1] == BOT:
        return Axiom(Form.GCI0_BOT, (args[0],))
    if form is Form.GCI1 and args[2] == BOT:
        return Axiom(Form.GCI1_BOT, (args[0], args[1]))
    if form is Form.GCI2 and args[2] == BOT:
        return Axiom(Form.GCI0_BOT, (args[0],))
    if form is Form.GCI3 and args[2] == BOT:
        return Axiom(Form.GCI3_BOT, (args[0], args[1]))
    return Axiom(form, args)


def unsafe_name(name):
    """The identifier rule, written out: a name that is empty, holds a TAB, a newline
    or a lone surrogate, or ends in a CR."""
    return (not name or "\t" in name or "\n" in name or name.endswith("\r")
            or any("\ud800" <= ch <= "\udfff" for ch in name))


def reference_parse_normalized(text, sig=None):
    """Per-line parse into Axioms, interning slot by slot through the Signature."""
    if sig is None:
        sig = Signature()
    axioms = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        raw = raw.rstrip("\r")
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        try:
            form = Form(fields[0])
        except ValueError:
            raise ParseError(f"unknown form tag: {fields[0]!r}", lineno) from None
        expected = ARITY[form] + 1
        if len(fields) != expected:
            raise ParseError(f"expected {expected} fields, got {len(fields)}", lineno)
        rel_slots = [k for k, kind in enumerate(LAYOUT[form]) if kind == "r"]
        args = []
        for slot, name in enumerate(fields[1:]):
            if not name:
                raise ParseError("empty identifier", lineno)
            if unsafe_name(name):
                raise ParseError(f"identifier {name!r} holds a TAB, a newline, a final CR "
                                 "or a lone surrogate", lineno)
            if slot in rel_slots:
                args.append(sig.intern_relation(name))
            else:
                args.append(sig.intern_class(name))
        axioms.append(reference_make_axiom(form, tuple(args)))
    return axioms, sig


def reference_split_error(sig, train, valid, test):
    """The message of the first split error of Axiom lists, checked axiom by axiom
    (held-out splits GCI2 only and disjoint, train apart from both); None if none."""
    def line(ax):
        return format_row(ax.form, ax.args, sig)

    held_out = {}
    for split_name, split in (("valid", valid), ("test", test)):
        for ax in split:
            if ax.form is not Form.GCI2:
                return f"{split_name} split must contain GCI2 only: {line(ax)}"
            prev = held_out.setdefault(ax.args, split_name)
            if prev != split_name:
                return f"axiom appears in both {prev} and {split_name}: {line(ax)}"
    for ax in train:
        prev = held_out.get(ax.args) if ax.form is Form.GCI2 else None
        if prev is not None:
            return f"axiom appears in both train and {prev}: {line(ax)}"
    return None


class ReferenceSampler:
    """``NegativeSampler.corrupt_ids`` with the per-row filter loop it used to run:
    each corrupted row is tested on its own, against the KB's asserted id tuples and
    the brute-force membership of ``rescan_contains``, and the entailed pool comes
    from ``rescan_closure``.  The draws, their order and the stats are the sampler's."""

    def __init__(self, kb, cfg):
        from elgeo.sampling import SampleStats

        S = rescan_saturate(kb)
        self.kb, self.cfg = kb, cfg
        self.contains = rescan_contains(kb, S)
        self.closure = rescan_closure(kb, S)
        self.rng = np.random.default_rng(cfg.seed)
        self.stats = SampleStats()
        self.pool = np.asarray(sorted(kb.pool("all")), dtype=np.int64)

    def rejected(self, form, args):
        return args in {ax.args for ax in self.kb.axioms[form]} or self.contains(form, args)

    def corrupt_ids(self, form, rows):
        from elgeo.axioms import CONSEQUENT_SLOT

        slot, pool, rng = CONSEQUENT_SLOT[form], self.pool, self.rng
        B = len(rows)
        out = rows.copy()
        original = rows[:, slot]

        def draw(idx):
            pos = np.searchsorted(pool, original[idx])
            in_pool = pool[np.minimum(pos, len(pool) - 1)] == original[idx]
            k = rng.integers(0, len(pool) - 1, size=len(idx))
            k = np.where(in_pool & (k >= pos), k + 1, k)
            full = rng.integers(0, len(pool), size=len(idx))
            return np.where(in_pool, pool[k], pool[full])

        active = np.arange(B)
        out[:, slot] = draw(active)
        keep = np.ones(B, dtype=bool)
        if self.cfg.filter_with_closure:
            attempts = self.cfg.max_resample_attempts
            for attempt in range(1, attempts + 1):
                bad = [i for i, args in zip(active.tolist(), out[active].tolist())
                       if self.rejected(form, tuple(args))]
                if not bad:
                    break
                active = np.asarray(bad)
                if attempt == attempts:
                    keep[active] = False
                else:
                    out[active, slot] = draw(active)

        if self.cfg.entailed_ratio > 0.0:
            asserted = {ax.args for ax in self.kb.axioms[form]}
            ent_pool = np.array(sorted(self.closure[form] - asserted),
                                dtype=np.int64).reshape(-1, ARITY[form])
            if len(ent_pool):
                mask = rng.random(B) < self.cfg.entailed_ratio
                picks = rng.integers(0, len(ent_pool), size=B)
                out[mask] = ent_pool[picks[mask]]
                keep |= mask
                self.stats.entailed_injected += int(mask.sum())
        self.stats.requested += B
        self.stats.produced += int(keep.sum())
        self.stats.dropped += B - int(keep.sum())
        return out, keep

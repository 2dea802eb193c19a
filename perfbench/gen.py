"""Seeded input generators for the three benchmark workloads.

The generators belong to the benchmark, not to ``elgeo.toygen``, so a change
to the library cannot change the inputs.  Each one returns the files of a
dataset directory (name -> text) and a JSON-able ground truth that the
correctness checks compare the program's outputs against.  Only numpy and
the standard library are used; nothing here imports ``elgeo``.

scale_gci2
    Random GCI2 edges ``C<i> r C<j>`` over ``n_classes`` classes, distinct
    pairs, split into train / valid / test in draw order.

hierarchy_filtered
    ``n_chains`` subclass chains ``T<c>_0 < T<c>_1 < ... < T<c>_<depth-1>``
    and ``n_heads`` head classes.  Head ``i`` asserts an edge to the bottom
    of chain ``i mod n_chains`` plus ``extra`` random edges at random
    levels; every edge to ``T<c>_k`` entails the edges to ``T<c>_j`` for
    ``j > k`` (and to TOP).  valid and test take one edge per head: an
    entailed but unasserted edge in one and a novel edge in the other.  A ``probe`` pool of
    ``n_probe`` heads feeds the closure positives of the evaluation.

ontology_mixed
    A general-axiom ontology in s-expressions.  Classes ``K<b>_<i>`` form
    ``n_branches`` shallow trees; relation ``r<b>`` is owned by branch
    ``b``: only branch-``b`` classes have ``r<b>`` edges and only
    branch-``b`` classes are derived from ``r<b>`` restrictions.  Defined
    classes ``E<b>_<i>`` are equivalent to a conjunction with an
    existential.  Every axiom keeps subsumption inside one branch, so
    disjointness between classes of different branches never makes a class
    unsatisfiable.
    Relation ``never`` appears only in ``(some never X) -> bot`` axioms.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("scale_gci2", "hierarchy_filtered", "ontology_mixed")

# Sizes of the benchmark inputs; the tests build reduced instances.
SIZES = {
    "scale_gci2": dict(n_classes=3000, n_train=300_000, n_valid=1000, n_test=500),
    "hierarchy_filtered": dict(n_chains=40, depth=40, n_heads=600, extra=20, n_probe=1),
    "ontology_mixed": dict(n_branches=6, fanout=(5, 5, 5), n_exist=6000, n_left=1500,
                           n_conj=1500, n_equiv=600, n_disjoint=300, n_never=30,
                           n_complex=600, n_valid=500, n_test=500),
}


def _tsv(rows) -> str:
    return "".join("\t".join(r) + "\n" for r in rows)


def _distinct_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct (h, t) pairs in [0, n)^2, in draw order."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = rng.integers(0, n * n, size=count + count // 4, dtype=np.int64)
        keys = np.concatenate([keys, draw])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:count]
    return np.stack([keys // n, keys % n], axis=1)


def scale_gci2(seed: int, n_classes: int, n_train: int, n_valid: int, n_test: int):
    rng = np.random.default_rng([seed, 1])
    pairs = _distinct_pairs(rng, n_classes, n_train + n_valid + n_test)
    names = [f"C{i:05d}" for i in range(n_classes)]

    def rows(block):
        return [("GCI2", names[h], "r", names[t]) for h, t in block.tolist()]

    files = {
        "train.tsv": _tsv(rows(pairs[:n_train])),
        "valid.tsv": _tsv(rows(pairs[n_train:n_train + n_valid])),
        "test.tsv": _tsv(rows(pairs[n_train + n_valid:])),
    }
    truth = {"n_classes": n_classes, "n_train": n_train, "n_test": n_test}
    return files, truth


def hierarchy_edges(n_chains: int, depth: int, edges) -> set[tuple[str, str]]:
    """Every (head, tail) pair entailed by asserted (head, chain, level) edges.

    Includes the asserted pairs themselves and the edge to TOP.
    """
    lowest: dict[tuple[str, int], int] = {}
    for head, chain, level in edges:
        key = (head, chain)
        lowest[key] = min(level, lowest.get(key, depth))
    out = set()
    for (head, chain), level in lowest.items():
        out.add((head, "TOP"))
        for k in range(level, depth):
            out.add((head, f"T{chain}_{k}"))
    return out


def hierarchy_filtered(seed: int, n_chains: int, depth: int, n_heads: int,
                       extra: int, n_probe: int):
    rng = np.random.default_rng([seed, 2])
    heads = [f"H{i}" for i in range(n_heads)]
    edges = {(h, i % n_chains, 0) for i, h in enumerate(heads)}
    chains = rng.integers(0, n_chains, size=(n_heads, extra))
    levels = rng.integers(0, depth, size=(n_heads, extra))
    for i, h in enumerate(heads):
        for c, k in zip(chains[i].tolist(), levels[i].tolist()):
            edges.add((h, c, k))
    edges = sorted(edges, key=lambda e: (int(e[0][1:]), e[1], e[2]))
    entailed = hierarchy_edges(n_chains, depth, edges)
    asserted = {(h, f"T{c}_{k}") for h, c, k in edges}

    # per head, one held-out edge in valid and one in test: an entailed but
    # unasserted edge in one split and a novel edge in the other, alternating
    by_head: dict[str, list[str]] = {h: [] for h in heads}
    for h, t in sorted(entailed - asserted):
        if t != "TOP":
            by_head[h].append(t)
    held: dict[str, list] = {"valid": [], "test": []}
    for i, h in enumerate(heads):
        ent = by_head[h][int(rng.integers(len(by_head[h])))]
        while True:
            c, k = (int(x) for x in rng.integers(0, (n_chains, depth)))
            novel = f"T{c}_{k}"
            if (h, novel) not in entailed:
                break
        first, second = (ent, novel) if i % 2 == 0 else (novel, ent)
        held["valid"].append((h, first))
        held["test"].append((h, second))

    train = [("GCI0", f"T{c}_{k}", f"T{c}_{k + 1}")
             for c in range(n_chains) for k in range(depth - 1)]
    train += [("GCI2", h, "r", f"T{c}_{k}") for h, c, k in edges]
    probe = sorted(rng.choice(n_heads, size=n_probe, replace=False).tolist())
    pools = [("tails", f"T{c}_{k}") for c in range(n_chains) for k in range(depth)]
    pools += [("probe", heads[i]) for i in probe]
    files = {
        "train.tsv": _tsv(train),
        "valid.tsv": _tsv(("GCI2", h, "r", t) for h, t in held["valid"]),
        "test.tsv": _tsv(("GCI2", h, "r", t) for h, t in held["test"]),
        "pools.tsv": _tsv(pools),
    }
    truth = {"n_chains": n_chains, "depth": depth,
             "edges": [list(e) for e in edges],
             "probe": [heads[i] for i in probe]}
    return files, truth


def _tree(b: int, fanout) -> tuple[list[str], dict[str, str]]:
    """Class names of branch b and their parent links, root first."""
    root = f"K{b}_0"
    names, parent = [root], {}
    level = [root]
    for width in fanout:
        nxt = []
        for p in level:
            for _ in range(width):
                name = f"K{b}_{len(names)}"
                names.append(name)
                parent[name] = p
                nxt.append(name)
        level = nxt
    return names, parent


def ontology_mixed(seed: int, n_branches: int, fanout, n_exist: int, n_left: int,
                   n_conj: int, n_equiv: int, n_disjoint: int, n_never: int,
                   n_complex: int, n_valid: int, n_test: int):
    rng = np.random.default_rng([seed, 3])
    branches, parent = [], {}
    for b in range(n_branches):
        names, links = _tree(b, fanout)
        branches.append(names)
        parent.update(links)
    every = [c for names in branches for c in names]
    # Rules fire on classes of the two lowest tree levels and conclude classes
    # of the two highest, which carry no edges, so a derived subsumer brings
    # no new edges, derivation chains stay short and the closure grows
    # linearly with the input.
    n_high = 1 + fanout[0]
    n_low = int(np.prod(fanout)) + int(np.prod(fanout[:-1]))
    high = [names[:n_high] for names in branches]
    low = [names[-n_low:] for names in branches]

    def pick(names):
        return names[int(rng.integers(len(names)))]

    def some_branch():
        return int(rng.integers(n_branches))

    lines = [f"(subclassof {c} {p})" for c, p in parent.items()]
    exist: set[tuple[str, str, str]] = set()
    while len(exist) < n_exist + n_valid + n_test:
        b = some_branch()
        exist.add((pick(low[b]), f"r{b}", pick(every)))
    exist_list = sorted(exist)
    drawn = [exist_list[i] for i in rng.permutation(len(exist_list))]
    train_exist = drawn[:n_exist]
    valid = drawn[n_exist:n_exist + n_valid]
    test = drawn[n_exist + n_valid:]
    lines += [f"(subclassof {a} (some {r} {t}))" for a, r, t in train_exist]
    for _ in range(n_complex):
        b, f = some_branch(), some_branch()
        lines.append(f"(subclassof {pick(low[b])} "
                     f"(some r{b} (and {pick(branches[f])} {pick(branches[f])})))")
    for _ in range(n_left):
        b = some_branch()
        lines.append(f"(subclassof (some r{b} {pick(low[some_branch()])}) {pick(high[b])})")
    for _ in range(n_conj):
        b = some_branch()
        lines.append(f"(subclassof (and {pick(low[b])} {pick(branches[b])}) {pick(high[b])})")
    defined = []
    for i in range(n_equiv):
        b = some_branch()
        name = f"E{b}_{i}"
        defined.append((name, b))
        lines.append(f"(equivalent {name} "
                     f"(and {pick(low[b])} (some r{b} {pick(low[some_branch()])})))")
    for _ in range(n_disjoint):
        a, b = rng.choice(n_branches, size=2, replace=False).tolist()
        lines.append(f"(subclassof (and {pick(branches[a])} {pick(branches[b])}) bot)")
    for _ in range(n_never):
        lines.append(f"(subclassof (some never {pick(every)}) bot)")
    files = {
        "ontology.sexp": "\n".join(lines) + "\n",
        "valid.tsv": _tsv(("GCI2",) + e for e in valid),
        "test.tsv": _tsv(("GCI2",) + e for e in test),
    }
    branch = {c: b for b, names in enumerate(branches) for c in names}
    branch.update(defined)
    truth = {"branch": branch, "parent": parent}
    return files, truth


def generate(workload: str, seed: int, **overrides):
    """Files and ground truth of one workload; ``overrides`` resize it."""
    params = dict(SIZES[workload], **overrides)
    return globals()[workload](seed, **params)

"""Outputs pinned byte for byte: the toy datasets ``elgeo gen-toy`` writes at seed 0,
and ``elgeo normalize`` on a fixture whose nested existentials fix the order in
which relations, and so their ids, are interned."""

import hashlib

import pytest

from elgeo.cli import main
from elgeo.normalize import normalize
from elgeo.sexpr import parse_general

TOY_SHA256 = {
    "basic": {
        "train.tsv": "6193e55c8abfc21c21f8a31a582b642f88d2e3400ba4c7db10f6292d0085cfa1",
        "valid.tsv": "cf5f272a002f16f3c4e5f0f9578519fd716c22af0d020ec0abf72da2e6910172",
        "test.tsv": "25bc18b01babf24fd91eaae9511183b1673e53521827bc4c2f934f786cc70057",
    },
    "hierarchy": {
        "train.tsv": "41cc50127f25545ccaa14a824334268982a115481c79a1c6b5071cff8255f771",
        "test.tsv": "db89f22e162135014711d6ba141670fdcbf4299716ee3280685d0dec1a55a024",
        "pools.tsv": "e9929f3e541900eb49155242d8f56a8cb3483fa1f4b70a43cb029e31b1212a34",
    },
    "skew": {
        "train.tsv": "2ff2bb9c31d31f86f69c5ff6dc72a9ef4f8f94b360d99ea3e92fabf2a1b99e42",
        "test.tsv": "6bbd4b5ae4d6ed6eebe5138d3425a42d0d7d2bc3bb430ccdb95a26c267571149",
        "pools.tsv": "a49ea352c3371f03120b76892bc3532f908a15a8f0b311f701633b884862bad4",
    },
}

FIXTURE = """\
(subclassof A (some r1 (some r2 (and B (some r3 C)))))
(subclassof (some s1 (and D (some s2 E))) F)
(subclassof (and G (some t1 H) (some t2 (some t3 I))) (and J (some u1 K)))
(equivalent L (and M (some v1 (some v2 N))))
(subclassof O bot)
(subclassof (some w1 P) bot)
(subclassof (and Q R) bot)
(subclassof S (some x1 bot))
(subclassof (and T bot) U)
(subclassof (some y1 (some y2 top)) (some y3 (and V (some y4 W))))
(subrole r1 s1)
(rolechain r1 r2 z1)
(subclassof top X)
(subclassof Y (one y))
"""
NORMALIZED_SHA256 = "cf9ed5fcde07d16ebb1a321c857d063927c6c35c312c3f542999acf945d30777"
RELATIONS = ("r1", "r2", "r3", "s1", "s2", "t1", "t2", "t3", "u1", "v1", "v2", "w1", "x1",
             "y1", "y2", "y3", "y4", "z1")
CLASSES = ("TOP", "BOT", "_N2", "B", "C", "_N1", "A", "E", "_N4", "D", "_N3", "F", "H", "_N7",
           "G", "_N6", "I", "_N9", "_N8", "_N5", "J", "K", "L", "M", "_N10", "N", "_N12",
           "_N11", "O", "P", "Q", "R", "S", "_N14", "_N13", "_N15", "V", "W", "X", "Y", "{y}")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(TOY_SHA256))
def test_gen_toy_writes_the_pinned_bytes(preset, tmp_path):
    out = tmp_path / preset
    assert main(["gen-toy", str(out), "--preset", preset, "--seed", "0"]) == 0
    assert {p.name: sha256(p) for p in out.iterdir()} == TOY_SHA256[preset]


def test_normalize_writes_the_pinned_bytes(tmp_path):
    (tmp_path / "in.sexp").write_text(FIXTURE, encoding="utf-8")
    assert main(["normalize", str(tmp_path / "in.sexp"), str(tmp_path / "out.tsv")]) == 0
    assert sha256(tmp_path / "out.tsv") == NORMALIZED_SHA256


def test_normalize_interns_in_the_pinned_order():
    _, sig = normalize(parse_general(FIXTURE))
    assert sig.relation_names == RELATIONS
    assert sig.class_names == CLASSES

"""Outputs pinned byte for byte: the toy datasets ``elgeo gen-toy`` writes at seed 0,
``elgeo normalize`` on a fixture whose nested existentials fix the order in
which relations, and so their ids, are interned, the report and curves of
``elgeo naive --out`` on those toys, the subsumptions ``elgeo reason`` writes
for two of them, the closure dumps ``elgeo closure`` writes for the toys and
for the normalized fixture, the checkpoint and per-epoch report of
``elgeo train`` on two of them, one run's summary (but its checkpoint path) and
its manifest's keys and config digest, the report and curves of ``elgeo evaluate
--out`` on those checkpoints, whatever the number of BLAS threads, the bytes of
completion scores on random models, and the coefficients of every loss-term row."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elgeo.axioms import Form, Signature, rows_of
from elgeo.cli import main
from elgeo.dataset import build_kb, load_dataset, save_dataset
from elgeo.geometry import SPECS, EmbeddingModel, save_model
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

# (toy, tie mode, --symmetric) -> sha256 of naive_report.json and naive_roc.csv; None where
# the run must exit 2 (a hierarchy train head lies outside the tails pool, so it has no mirror)
NAIVE_SHA256 = {
    ("basic", "optimistic", False): (
        "0dcfe004f1012abf0e3733f5fe46b991cc1023440647cb86b6562c3edd11f82a",
        "667b57d074574657b31d0215d2dedc6d053dfe6a672d13b0ad855a3b4a7b2688"),
    ("basic", "optimistic", True): (
        "9b5df120ab36f8ad8c9f28ff9240ce7473e9a70456f230849067a8a83d91bf6e",
        "7f534b53fa2af5279376f0506e8aff402eb5e148cc38603d1ab33ee7793a3ccd"),
    ("basic", "average", False): (
        "3dd467d584c6565e44c86e966a6e613631f810fb040e3a5250633d2679b9c820",
        "aa7cfec5d9d2a0b3193c485748b603c62ee95fb9db054a658e36bfd3250319e9"),
    ("basic", "average", True): (
        "15e8a373da66565f82e61519ad6e17d633dc213baf2186a0ed32f101206923c0",
        "7f534b53fa2af5279376f0506e8aff402eb5e148cc38603d1ab33ee7793a3ccd"),
    ("hierarchy", "optimistic", False): (
        "d8ee500ee266d486ce646b0442dc9128a63aa84458151bd9535bc0c96dc9fc24",
        "074265ec1f4b097ce97597344f7100d4ca0280d2685ab8ede5c0024b3155c2fc"),
    ("hierarchy", "optimistic", True): None,
    ("hierarchy", "average", False): (
        "e2dddbeddf463294cb9a62dbef28baeb95380601a7d8ad6d8063a00efe7841fc",
        "b53064712b6e9bfebf3203f538b4e08d6cdc46d76fc0ccb8007ea45c2f2104c2"),
    ("hierarchy", "average", True): None,
    ("skew", "optimistic", False): (
        "7eb7b16eda7169ca3eb271ce98992a7b21ab2135dfc7244f25caf51bd7e6be90",
        "b002a85ae7f5d99a1a5bc615b915ad578b259990b7e59d860bf4e25cee27f2e3"),
    ("skew", "optimistic", True): (
        "dd45156fb0d3a5070a9880c9b0f3afbeda146dd2aa6a49a1548a75dc0dc44eba",
        "ae620353a3d1775839bef3fb5301c69b45e58efe8ab026bd2f43e73c04843bc9"),
    ("skew", "average", False): (
        "a6abae8794da5bf6e20b9dd063835b3e010b221a8ed7390cc7adc55a3db14ede",
        "cb074a53620df963cc087976ce31e1fb3463dce7ffeff81d6d2b8be7dc839643"),
    ("skew", "average", True): (
        "5f548caa4c5b36f492f7ab0702c71460478128a73a5e9f36b7cc8391b57d32c8",
        "ad5234da4e45f79f98795a0b8c37a636441d686357a3b07bb748dd4c9b2dcddf"),
}
NAIVE_POOL = {"basic": [], "hierarchy": ["--pool", "tails"], "skew": []}

# a run that decays the rate twice and then stops early
FULL_SCHEDULE = ("basic", "0", "--preset neg-filter --set train.epochs=40 --set train.dim=8 "
                 "--set train.batch_size=7 --set train.plateau_patience=1 "
                 "--set train.early_stop_patience=6")
HIERARCHY = ("hierarchy", "2", "--preset neg-filter --set train.epochs=10 --set train.dim=8 "
             "--set train.batch_size=4 --set train.entailed_ratio=0.3")
HIERARCHY_RELU = ("hierarchy", "2", "--preset relu-original --set train.epochs=10 "
                  "--set train.dim=5 --set train.batch_size=4")
SKEW_RELU = ("skew", "0", "--preset relu-original --set train.epochs=10 --set train.dim=6 "
             "--set train.batch_size=8")
SKEW_LEAKY = ("skew", "0", "--preset neg-losses --set train.epochs=10 --set train.dim=7 "
              "--set train.batch_size=8")
# (toy, its --seed, train arguments) -> sha256 of checkpoint.bin and report.jsonl; an
# even dim scatters gradient rows as complex pairs, an odd one as floats, so both widths
# are pinned
TRAIN_SHA256 = {
    FULL_SCHEDULE: (
        "ad2facb7c4635d018c0d3e75bc9c330b7c3a4ae0ec791462790733caee29a6ef",
        "df975b114629ec28c3318e378384a475cf099a0cc1b26cc50281b48357ccddc9"),
    ("basic", "0", "--preset neg-losses --set train.epochs=15 --set train.dim=8 "
     "--set train.batch_size=5"): (
        "24c0452ae85aeb9966c69e6c5174a002261e1ed0d8b0ac2e42c77abad8cfb4ba",
        "d039356cc141bb8168b5bf9051abb23c42ee988d8f90a77a66be6b371c2d51d5"),
    ("basic", "0", "--preset neg-losses --set train.epochs=10 --set train.dim=5 "
     "--set train.batch_size=5"): (
        "f2a557fe5f025f2c7ae241b6255428a1414ec78960ddd0a9d76ff3379f90937e",
        "19e2a14a178f632920407f53827cd260f4beaf8d234b1f472b13bb5e22413b89"),
    HIERARCHY: (
        "8d795ecab078f47a4e3479298643e2a069b586596a7b8113b11f2d87d3830c4d",
        "ac63e8662a4311f0bcbe4411db9ecb9a7eba5f2dd2e11a8bd5cf3fb212a6dcba"),
    HIERARCHY_RELU: (
        "20a25fe9ff528d5e9b832ed63a95d46a6736b2b9cb4a684dc6b3e66890bdb757",
        "1de693ee555e9eccfa84ecee1c0fc194a3d6a35507ccc61dfa8c036b884ce52c"),
    SKEW_RELU: (
        "5e501b6edae763746a4f8acf8766c1da95b3a8be9239998b1931878df6a1a87d",
        "1c1369ae14592e217b7377d70b58ffce5813ea579408391b4d00ed04ecfc6b67"),
    SKEW_LEAKY: (
        "97e979cf7e9c619b916593a886298089a6f1f477d7c70cc24aefb08111bcf4b0",
        "c3ef8445313740c85174465a25ba465b92f36290e482f4e604bc8fd8de7f3f04"),
}
# FULL_SCHEDULE's summary.json without "checkpoint", the path of the run directory, as
# sha256 of write_json's layout; the keys of its manifest.json, and the config_digest there
SUMMARY_SHA256 = "e1f398608254fbd5160fabd6eeb19fc208e070ef785608b04a40545a52b0acb4"
MANIFEST_KEYS = ["command", "config", "config_digest", "finished", "inputs", "outputs", "seed",
                 "started", "version"]
CONFIG_DIGEST = "3c78542f1c9c9f060caab0ceb5611593abfe0fea7f67361623f0847913afde6d"
# (pinned train run, evaluate arguments) -> sha256 of eval_report.json and roc.csv: both
# activations, both dim parities, both tie modes, the whole pool and the tails pool,
# with a closure dump (``elgeo closure`` of the toy) after each --closure-dir
EVAL_SHA256 = {
    (SKEW_RELU, ""): (
        "acc6d55a4a128cb59870e31e4770e95e1b2a8f2c6c25d084a6aca187ba6d2900",
        "360afb8e693f40c1cf3b33638faae5a0a3bedfba07812abe5406d537dbc536ef"),
    (SKEW_RELU, "--pool tails --tie-mode average"): (
        "4bc6423f309fd25977aa03fc9e1aab7d3f0374caef02ee60c9dbb8980d79f534",
        "023ca8c164225c47949d2c8a7aa43835d20d1d29c7a30980a970b29000a3e154"),
    (SKEW_LEAKY, ""): (
        "711d665cd8e4ece0323bc3fdebb7e110c157e917f39dd4cf7221e34d756fe23f",
        "687887dbfb6664bdbbe4328d8fc678176de0c0d3fb98ba59c9e8070923bd8ba0"),
    (SKEW_LEAKY, "--tie-mode average"): (
        "47a5dd2fe832d54a972b8872035f234d67b2e5dc645e8cd174c562b02b7292de",
        "687887dbfb6664bdbbe4328d8fc678176de0c0d3fb98ba59c9e8070923bd8ba0"),
    (HIERARCHY, "--pool tails --closure-dir --closure-positives"): (
        "110b563960b003f9d6f95318f561f920c46eac59a37346728933be5a52567fb3",
        "f4981f4d1cbdc56c0aed0982e6c37f531a4f69c7522d3956dab0b9835cabfdce"),
    (HIERARCHY, "--closure-dir --closure-positives --tie-mode average"): (
        "568490ae4f05f36091b2aabbb0b7cdbb78c90bb7b8b25e7d7074ea398ce5390f",
        "39a188856177b7a141340c6ad8617447580690ef6b3e45a793b65be3857ad0a9"),
    (HIERARCHY_RELU, "--pool tails --closure-dir --closure-positives --tie-mode average"): (
        "2bd989236f9cdfe971263832de55f835a85e78ad254b0ef1920d3a755fa5b894",
        "0db8b59ade80e585ce95e46243ec118ea3cc2bd037d2bc7249695685c98924ca"),
    (HIERARCHY_RELU, "--closure-dir --closure-positives"): (
        "e9bf2f3d6829e87cae1f9345aa687cc268260bcbbdab4f6cdbfd473645424a88",
        "1386f407bb89829b95e35c9b55af8b10feaaa8370727418a35862de40702ee4e"),
}


# (toy, its --seed) -> sha256 of what ``elgeo reason --out`` writes: each class's
# subsumers in id order
REASON_SHA256 = {
    ("basic", "0"): "5e19bc81de928b7aeca039241fe97492fafe326c00e707590c48919c9d7b49c5",
    ("hierarchy", "2"): "b0a0ca36bb865162836ecb1ada3d2a94b0c8dea46394b8bf135b60329a101062",
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# (toy, its --seed) -> sha256 of each file ``elgeo closure`` writes; ("fixture", None) is
# the normalized FIXTURE as a train split, whose unsatisfiable classes and bottom forms
# fill every form
CLOSURE_SHA256 = {
    ("basic", "0"): {
        "closure_gci0.tsv": "1abc4d14575aafd073af61cf5aa813da11a5ac583cf040a6530b64d791be3642",
        "closure_gci0_bot.tsv": EMPTY,
        "closure_gci1.tsv": "acb5179ee5ae7f0bf0874315abccb518461eb031bcf6d151cac377bbb28756b0",
        "closure_gci1_bot.tsv": "ee3c578d9af8de3037dffe648ba1b65ca3a8e9b705854456bd257ae8e50654c7",
        "closure_gci2.tsv": "4d1e57ddad9cba5f6acd3daa6edba06241bb36d2d39affcf8832b768a5aaf8fa",
        "closure_gci3.tsv": "4a3dbdee2b5ac88d21c76c91feb6773d893d5006684d76f0042eabb93f27548c",
        "closure_gci3_bot.tsv": EMPTY,
        "closure_stats.json": "92f2754a0dd2f818c9ca31fec5cf4217deef5d6405dc688b0236e5d2bd08546f",
    },
    ("hierarchy", "0"): {
        "closure_gci0.tsv": "be10d945e79c5587d8dfbc8f6e92cf9289d4bce6a7948c11d2f67e18f1937983",
        "closure_gci0_bot.tsv": EMPTY, "closure_gci1.tsv": EMPTY,
        "closure_gci1_bot.tsv": EMPTY,
        "closure_gci2.tsv": "6440140c2464d3a8fe75540516a434685565cecd48c4fe6dfda48aa38f993794",
        "closure_gci3.tsv": EMPTY, "closure_gci3_bot.tsv": EMPTY,
        "closure_stats.json": "a0abaa0e38b67cef2ad8c07261bf5dae0f9d790a3ba18e645546e228902fc5de",
    },
    ("hierarchy", "2"): {
        "closure_gci0.tsv": "be10d945e79c5587d8dfbc8f6e92cf9289d4bce6a7948c11d2f67e18f1937983",
        "closure_gci0_bot.tsv": EMPTY, "closure_gci1.tsv": EMPTY,
        "closure_gci1_bot.tsv": EMPTY,
        "closure_gci2.tsv": "75b0f4349668123a795d2c98731a9b56cdffb030a38e99e5e830a2c960cbb1a0",
        "closure_gci3.tsv": EMPTY, "closure_gci3_bot.tsv": EMPTY,
        "closure_stats.json": "1cd4ee326c69bb85c31e2b02132f5ccebdb2deb0fc8cf36d919c0d1e695c6d63",
    },
    ("skew", "0"): {
        "closure_gci0.tsv": "77c257896956aac1ce9bf10203220d10216dd818441d93fbad7f6a6522bd76be",
        "closure_gci0_bot.tsv": EMPTY, "closure_gci1.tsv": EMPTY,
        "closure_gci1_bot.tsv": EMPTY,
        "closure_gci2.tsv": "20e9093ab5fd9591a62c6302e41b2b61d427cb305f826026b492bd634ae8bace",
        "closure_gci3.tsv": EMPTY, "closure_gci3_bot.tsv": EMPTY,
        "closure_stats.json": "3964253c66d58e45ddaa3c985ef432a59f4ac93523dc816310ae57f7a35b1b9e",
    },
    ("fixture", None): {
        "closure_gci0.tsv": "bd6d3f0e3614ec4fec63c1513f33a78e834979eaa77ca0b4e88e614215b24e04",
        "closure_gci0_bot.tsv": "dda2c65d10c5235c24aa89e77fce291d7dec83c7e8e907dd945877ec4ee74e1f",
        "closure_gci1.tsv": "c380cc221353f379856f446fe90453fcdb6bd223f6e381bacb09f484b8b99810",
        "closure_gci1_bot.tsv": "5eac478916f8e9ca5da1c5df2cbc26f2637808880e960b7bf9474789e6e332d8",
        "closure_gci2.tsv": "42c58e0eb294b4af83d4c42ee71dda987a8e13f02fc0463b9a596723a5f7cae3",
        "closure_gci3.tsv": "3093061fe322681b02b97ebdf97d06259e81af315edb29218eaec3bef2f332e6",
        "closure_gci3_bot.tsv": "a7b7a236bc77f0f905393394f9a0e0548471df34abbdb802876857acf2538dcd",
        "closure_stats.json": "88b4f0bfb42a4ba1d334514d7b39ef33f80ae420362e0119fd85533107f7894d",
    },
}

# (activation, dim, margin) -> sha256 of the float64 scores of 5 queries against a pool
# of 1,100 tails, longer than one chunk, on a random model (see completion_scores);
# relu at margin -0.05 scores 1,235 of them -0.0
SCORE_SHA256 = {
    ("relu", 1, -0.05): "3c94c06e0193a78ce91d629684e2a87e5a979ba268b9232836707b2a0f5caa69",
    ("relu", 7, 0.1): "5bde7ca54391207a8da8d3ce22c6c99fed3c99b0c22df6910a6135287e19c463",
    ("leaky_relu", 2, 0.0): "0aafcd842677882703594cde0980c8e60d71346f5b0b51ca2c036d638804d38f",
    ("leaky_relu", 50, -0.1): "b9e0a4c3fc210aaa8fb7d5993e88b8884e2469ece2baa5fb07199d097c4cab3a",
}

# loss term -> sha256 of its SPECS row, field by field (see spec_sha256)
SPEC_SHA256 = {
    "gci0_pos": "a076ffbd97ddf5be8b155e255ac6762bb0be2f604d4ad612857f2d0f7d0e5c74",
    "gci1_pos": "37dd705b65ea046992e7ea8470eb0168747245d14b8f80a1762cb5a36704a9e4",
    "gci2_pos": "a3cc2dd0922965caea095d610ae5adba76297b71c79956ae91073fe21c83bd54",
    "gci3_pos": "04b4dd1a104c391d63e3a5a6b315d6fe26460dbd7f00dd087a44613b31d3a459",
    "gci0_bot": "0f9194d022b891546492f74c5b9d00de07209192e95f415ab492b053b418dc41",
    "gci1_bot": "7b67428f3964c60081e69e6af399b4a903f0e88c24f1cf961f534f411c852c9a",
    "gci3_bot": "3ce4b1417e33501abe7eccfde1f1b3fb9ecd7ddc8466abaec9af04974740dd56",
    "gci0_neg": "7b67428f3964c60081e69e6af399b4a903f0e88c24f1cf961f534f411c852c9a",
    "gci1_neg": "e73b2ed62e613f0e935717266fa1f6fa90a72b95ca0d5b81049c97430b4be436",
    "gci2_neg": "ae6ff402b957f46adb7a5827cd9c175940380be2594db3156a5a754134868344",
    "gci3_neg": "9034c7356ab750f236e3554413f073f4b9e85b45a71e3b92c9d244ac792040a5",
}


def completion_scores(activation, dim, margin):
    rng = np.random.default_rng([dim, len(activation)])
    sig = Signature()
    for i in range(38):
        sig.intern_class(f"k{i}")
    for i in range(3):
        sig.intern_relation(f"r{i}")
    m = EmbeddingModel.create(sig, dim=dim, margin=margin, activation=activation, leaky_slope=0.1)
    m.params[:] = rng.normal(size=m.params.shape)
    heads, rels = rng.integers(40, size=5), rng.integers(3, size=5)
    return m.score_tails(heads[:, None], rels[:, None], rng.integers(40, size=1100))


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


@pytest.mark.parametrize("preset,seed", sorted(REASON_SHA256))
def test_reason_writes_the_pinned_bytes(preset, seed, tmp_path):
    toy = tmp_path / preset
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["reason", str(toy), "--out", str(tmp_path / "pairs.tsv")]) == 0
    assert sha256(tmp_path / "pairs.tsv") == REASON_SHA256[preset, seed]


@pytest.mark.parametrize("preset,seed", CLOSURE_SHA256, ids=str)
def test_closure_writes_the_pinned_bytes(preset, seed, tmp_path):
    data, out = tmp_path / "data", tmp_path / "closure"
    if seed is None:
        (tmp_path / "in.sexp").write_text(FIXTURE, encoding="utf-8")
        data.mkdir()
        assert main(["normalize", str(tmp_path / "in.sexp"), str(data / "train.tsv")]) == 0
    else:
        assert main(["gen-toy", str(data), "--preset", preset, "--seed", seed]) == 0
    assert main(["closure", str(data), str(out)]) == 0
    assert {p.name: sha256(p) for p in out.iterdir()} == CLOSURE_SHA256[preset, seed]


@pytest.mark.parametrize("preset,tie_mode,symmetric", sorted(NAIVE_SHA256))
def test_naive_writes_the_pinned_bytes(preset, tie_mode, symmetric, tmp_path):
    toy, out = tmp_path / preset, tmp_path / "naive"
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", "0"]) == 0
    argv = ["naive", str(toy), "--tie-mode", tie_mode, "--out", str(out), *NAIVE_POOL[preset]]
    pinned = NAIVE_SHA256[preset, tie_mode, symmetric]
    if pinned is None:
        assert main(argv + ["--symmetric"]) == 2
        assert not out.exists()
        return
    assert main(argv + ["--symmetric"] * symmetric) == 0
    assert (sha256(out / "naive_report.json"), sha256(out / "naive_roc.csv")) == pinned


@pytest.mark.parametrize("preset,seed,args", sorted(TRAIN_SHA256))
def test_train_writes_the_pinned_bytes(preset, seed, args, tmp_path):
    toy, out = tmp_path / preset, tmp_path / "run"
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["train", str(toy), str(out), *args.split()]) == 0
    assert (sha256(out / "checkpoint.bin"), sha256(out / "report.jsonl")) == \
        TRAIN_SHA256[preset, seed, args]


@pytest.mark.parametrize("run,args", sorted(EVAL_SHA256))
def test_evaluate_writes_the_pinned_bytes(run, args, tmp_path):
    (preset, seed, train_args), toy = run, tmp_path / run[0]
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["train", str(toy), str(tmp_path / "run"), *train_args.split()]) == 0
    argv = args.split()
    if "--closure-dir" in argv:
        assert main(["closure", str(toy), str(tmp_path / "closure")]) == 0
        argv.insert(argv.index("--closure-dir") + 1, str(tmp_path / "closure"))
    out = tmp_path / "eval"
    assert main(["evaluate", str(tmp_path / "run" / "checkpoint.bin"), str(toy),
                 "--out", str(out), *argv]) == 0
    assert (sha256(out / "eval_report.json"), sha256(out / "roc.csv")) == \
        EVAL_SHA256[run, args]


def test_a_pinned_train_run_decays_the_rate_twice_and_stops_early(tmp_path):
    preset, seed, args = FULL_SCHEDULE
    toy, out = tmp_path / preset, tmp_path / "run"
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["train", str(toy), str(out), *args.split()]) == 0
    epochs = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert json.loads((out / "summary.json").read_text())["stop_epoch"] == len(epochs) == 13
    assert sorted({rec["lr"] for rec in epochs}, reverse=True) == pytest.approx([1e-2, 1e-3, 1e-4])


def test_a_pinned_train_run_writes_the_pinned_summary_and_manifest(tmp_path):
    preset, seed, args = FULL_SCHEDULE
    toy, out = tmp_path / preset, tmp_path / "run"
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["train", str(toy), str(out), *args.split()]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary.pop("checkpoint") == str(out / "checkpoint.bin")
    layout = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(layout.encode()).hexdigest() == SUMMARY_SHA256
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == MANIFEST_KEYS
    assert manifest["config_digest"] == summary["config_digest"] == CONFIG_DIGEST


@pytest.mark.parametrize("activation,dim,margin", sorted(SCORE_SHA256))
def test_completion_scores_keep_the_pinned_bytes(activation, dim, margin):
    scores = completion_scores(activation, dim, margin)
    assert hashlib.sha256(np.ascontiguousarray(scores, dtype="<f8").tobytes()).hexdigest() == \
        SCORE_SHA256[activation, dim, margin]


def spec_sha256(spec):
    """sha256 of a ``Spec`` over its fields in order: slots, nc, vec, nreg, norm, rad,
    margin, rmin and act, each array as its shape and little-endian float64 bytes."""
    h = hashlib.sha256()
    for name, value in spec._asdict().items():
        if isinstance(value, np.ndarray):
            value = (value.shape, np.ascontiguousarray(value, dtype="<f8").tobytes().hex())
        h.update(f"{name}={value!r};".encode())
    return h.hexdigest()


def test_every_loss_term_keeps_its_pinned_coefficients():
    assert {term: spec_sha256(spec) for term, spec in SPECS.items()} == SPEC_SHA256


def wide_run(tmp_path):
    """A seeded dim-64 relu checkpoint over 700 classes, and its dataset: 60 test queries
    fit in one block, whose matrix product is large enough for a threaded BLAS to split."""
    rng = np.random.default_rng(83)
    sig = Signature()
    classes = [sig.intern_class(f"c{i:03d}") for i in range(700)]
    rel = sig.intern_relation("r")
    pairs = rng.choice(classes, size=(4000, 2))
    pairs = pairs[np.unique(pairs, axis=0, return_index=True)[1]]
    kb = build_kb(sig, rows_of((Form.GCI2, (h, rel, t)) for h, t in pairs[60:].tolist()),
                  test=rows_of((Form.GCI2, (h, rel, t)) for h, t in pairs[:60].tolist()))
    save_dataset(str(tmp_path / "wide"), kb)
    sig = load_dataset(str(tmp_path / "wide")).sig   # the names in the order the files give
    save_model(EmbeddingModel.create(sig, dim=64, margin=0.8, seed=9), str(tmp_path / "wide.bin"))
    return [str(tmp_path / "wide.bin"), str(tmp_path / "wide"), "--tie-mode", "average"]


def pinned_run(tmp_path):
    """A pinned train run and the evaluate arguments of one of its pins."""
    (preset, seed, train_args), toy = SKEW_RELU, tmp_path / "skew"
    assert main(["gen-toy", str(toy), "--preset", preset, "--seed", seed]) == 0
    assert main(["train", str(toy), str(tmp_path / "run"), *train_args.split()]) == 0
    return [str(tmp_path / "run" / "checkpoint.bin"), str(toy), "--pool", "tails",
            "--tie-mode", "average"]


@pytest.mark.parametrize("run", [pinned_run, wide_run], ids=["pinned", "wide"])
def test_evaluate_bytes_do_not_depend_on_blas_threads(run, tmp_path):
    """``elgeo evaluate`` writes the same report and curves with one BLAS thread and
    with two: the matrix product's summation order may change, its error bound does not."""
    argv = run(tmp_path)
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"eval{threads}"
        proc = subprocess.run([sys.executable, "-m", "elgeo.cli", "evaluate", *argv,
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        written.append([sha256(out / name) for name in ("eval_report.json", "roc.csv")])
    assert written[0] == written[1]
    if run is pinned_run:
        assert tuple(written[0]) == EVAL_SHA256[SKEW_RELU, "--pool tails --tie-mode average"]

import pytest

from elgeo.axioms import Form
from elgeo.dataset import DatasetError, load_dataset, save_dataset
from elgeo.toygen import basic_kb, scale_kb


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")


TRAIN = """GCI0\tA\tB
GCI0\tB\tC
GCI2\tA\tr\tB
GCI2\tB\tr\tC
GCI2\tC\tr\tA
GCI2\tA\tr\tC
"""


class TestLoad:
    def test_counts_and_splits(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        write(tmp_path, "valid.tsv", "GCI2\tA\tr\tA\n")
        write(tmp_path, "test.tsv", "GCI2\tB\tr\tB\n")
        kb = load_dataset(str(tmp_path))
        assert kb.form_counts() == {"GCI0": 2, "GCI2": 4}
        assert len(kb.valid) == 1 and len(kb.test) == 1

    def test_missing_train(self, tmp_path):
        with pytest.raises(DatasetError, match="missing train.tsv"):
            load_dataset(str(tmp_path))

    def test_non_gci2_in_test(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        write(tmp_path, "test.tsv", "GCI0\tA\tB\n")
        with pytest.raises(DatasetError, match="test split must contain GCI2 only"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("first, second",
                             [("train", "valid"), ("train", "test"), ("valid", "test")])
    def test_duplicate_across_splits(self, tmp_path, first, second):
        splits = {"train": TRAIN, "valid": "GCI2\tA\tr\tA\n", "test": "GCI2\tB\tr\tB\n"}
        for name in (first, second):
            splits[name] += "GCI2\tC\tr\tB\n"
        for name, text in splits.items():
            write(tmp_path, f"{name}.tsv", text)
        with pytest.raises(DatasetError, match=f"{first} and {second}.*GCI2\tC\tr\tB"):
            load_dataset(str(tmp_path))

    def test_duplicate_inside_a_split_accepted(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN + "GCI2\tA\tr\tB\n")
        write(tmp_path, "valid.tsv", "GCI2\tA\tr\tA\nGCI2\tA\tr\tA\n")
        kb = load_dataset(str(tmp_path))
        assert len(kb.train_gci2) == 5 and len(kb.valid) == 2

    def test_pools(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        write(tmp_path, "pools.tsv", "heads\tA\nheads\tB\ntails\tC\n")
        kb = load_dataset(str(tmp_path))
        assert [kb.sig.class_name(i) for i in kb.pool("heads")] == ["A", "B"]
        assert [kb.sig.class_name(i) for i in kb.pool("tails")] == ["C"]

    def test_pool_class_outside_every_split_is_interned(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        write(tmp_path, "pools.tsv", "tails\tC\ntails\tZ\n")
        kb = load_dataset(str(tmp_path))
        z = kb.sig.class_id("Z")
        assert kb.pool("tails") == [kb.sig.class_id("C"), z]
        assert z in kb.pool("all")
        save_dataset(str(tmp_path / "copy"), kb)
        kb2 = load_dataset(str(tmp_path / "copy"))
        assert kb2.sig.class_names == kb.sig.class_names
        assert kb2.pools == kb.pools

    def test_default_all_pool_excludes_reserved(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        kb = load_dataset(str(tmp_path))
        names = {kb.sig.class_name(i) for i in kb.pool("all")}
        assert names == {"A", "B", "C"}

    def test_unknown_pool(self, tmp_path):
        write(tmp_path, "train.tsv", TRAIN)
        kb = load_dataset(str(tmp_path))
        with pytest.raises(DatasetError, match="unknown pool"):
            kb.pool("nope")


def test_save_load_roundtrip(tmp_path):
    kb = basic_kb()
    save_dataset(str(tmp_path / "toy"), kb)
    kb2 = load_dataset(str(tmp_path / "toy"))
    assert kb2.form_counts() == kb.form_counts()
    assert len(kb2.valid) == len(kb.valid)
    assert len(kb2.test) == len(kb.test)
    assert sum(kb2.form_counts().values()) == 60
    assert kb2.sig.n_classes == 22   # 20 dataset classes plus TOP and BOT
    assert kb2.sig.n_relations == 2


def test_basic_kb_splits_are_gci2(tmp_path):
    kb = basic_kb()
    assert all(ax.form is Form.GCI2 for ax in [*kb.valid, *kb.test])


@pytest.mark.parametrize("n_classes", [0, 10])
def test_scale_kb_rejects_more_edges_than_class_pairs(n_classes):
    with pytest.raises(ValueError, match="distinct edges"):
        scale_kb(n_classes=n_classes)


def test_scale_kb_can_draw_every_class_pair():
    kb = scale_kb(n_classes=3, n_edges=9)
    assert sorted((h, t) for h, _, t in (ax.args for ax in kb.train_gci2)) == \
        [(h, t) for h in range(2, 5) for t in range(2, 5)]

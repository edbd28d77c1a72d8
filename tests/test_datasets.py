import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bridgecap import datasets as ds
from bridgecap.corpus import LabeledImage
from bridgecap.errors import ConfigError, DomainError, FormatError
import csv_oracles
from helpers import gen_labeled_corpus, output_count, preset_names

# Published per-class design-load counts the synthetic corpus reproduces.
COLUMN_A = {1: 928, 2: 4674, 3: 1913, 4: 460, 5: 3991, 6: 491,
            7: 3, 8: 56, 9: 585, 10: 310, 11: 22, 12: 107}

LR5 = ds.BinningScheme(name="LR5", edges=(0, 15, 30))
LR7 = ds.BinningScheme(name="LR7", edges=(0, 20, 40))


@pytest.fixture(scope="module")
def column_a_corpus():
    return gen_labeled_corpus(COLUMN_A)


def variant(name, corpus, seed):
    """Preset ``name`` with ``seed`` applied to ``corpus``, as ``dataset-build
    name --seed seed`` builds it."""
    return ds.build_variant(replace(ds.load_preset(name), seed=seed), corpus)


def make_items(counts, prefix="img"):
    items = []
    for cls, n in counts.items():
        for i in range(n):
            items.append(ds.DatasetItem(image_path=f"{prefix}/c{cls}_{i:05d}", cls=cls))
    return items


class TestBinning:
    def test_interval_convention(self):
        assert ds.bin_load_rating(12.0, LR5) == 1
        assert ds.bin_load_rating(15.0, LR5) == 2  # boundary goes right
        assert ds.bin_load_rating(41.0, LR7) == 3

    def test_labels(self):
        assert LR5.labels == ("0-15 tons", "15-30 tons", ">30 tons")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ds.bin_load_rating(-1.0, LR5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            ds.bin_load_rating(math.nan, LR5)

    def test_totality(self):
        rng = np.random.default_rng(8)
        for tons in rng.uniform(0, 120, 500):
            cls = ds.bin_load_rating(float(tons), LR5)
            assert 1 <= cls <= LR5.bin_count

    def test_edges_must_start_at_zero_and_increase(self):
        with pytest.raises(ConfigError, match=r"bad: first edge must be 0, got \(5\.0,\)$"):
            ds.BinningScheme(name="bad", edges=(5, 10))
        with pytest.raises(ConfigError, match="bad: edges must be strictly increasing"):
            ds.BinningScheme(name="bad", edges=(0, 10, 10))


class TestMergeSmallClasses:
    def test_low_bin_merges_upward(self):
        scheme = ds.BinningScheme(name="lr", edges=(0, 5, 10, 15))
        merged = ds.merge_small_classes([12, 900, 400, 300], scheme, threshold=50)
        assert merged.edges == (0.0, 10.0, 15.0)
        assert merged.labels[0] == "0-10 tons"

    def test_fixed_point(self):
        scheme = ds.BinningScheme(name="lr", edges=(0, 10, 20))
        assert ds.merge_small_classes([60, 70, 80], scheme, threshold=50) is scheme

    def test_exhaustive_merge(self):
        scheme = ds.BinningScheme(name="lr", edges=(0, 10, 20))
        merged = ds.merge_small_classes([10, 10, 10], scheme, threshold=50)
        assert merged.bin_count == 1

    def test_last_bin_merges_downward(self):
        scheme = ds.BinningScheme(name="lr", edges=(0, 10, 20))
        merged = ds.merge_small_classes([100, 90, 5], scheme, threshold=50)
        assert merged.edges == (0.0, 10.0)

    def test_lowest_underfilled_bin_merges_first_past_a_full_one(self):
        # Bin 1 holds exactly the threshold, so bin 2 is the lowest underfilled.
        scheme = ds.BinningScheme(name="lr", edges=(0, 5, 10, 15))
        merged = ds.merge_small_classes([50, 10, 100, 100], scheme, threshold=50)
        assert merged.edges == (0.0, 5.0, 15.0)

    def test_only_the_last_bin_merges_downward(self):
        scheme = ds.BinningScheme(name="lr", edges=(0, 5, 10, 15))
        assert ds.merge_small_classes([100, 100, 10, 100], scheme, 50).edges == (0.0, 5.0, 10.0)
        assert ds.merge_small_classes([100, 100, 100, 10], scheme, 50).edges == (0.0, 5.0, 10.0)
        assert ds.merge_small_classes([100, 10, 100, 40], scheme, 50).edges == (0.0, 5.0)


    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 120)), min_size=1, max_size=9),
           st.integers(1, 150))
    def test_invariants(self, steps_and_counts, threshold):
        edges = [0.0]
        for step, _ in steps_and_counts[1:]:
            edges.append(edges[-1] + step)
        counts = [count for _, count in steps_and_counts]
        scheme = ds.BinningScheme(name="lr", edges=tuple(edges))
        merged = ds.merge_small_classes(counts, scheme, threshold)
        # The new edges are a subsequence of the old ones that keeps the first.
        assert merged.edges[0] == scheme.edges[0]
        position = iter(scheme.edges)
        assert all(edge in position for edge in merged.edges)
        # Each old bin falls into the new bin whose interval holds its lower edge.
        new_counts = [0] * merged.bin_count
        for edge, count in zip(scheme.edges, counts):
            new_counts[ds.bin_load_rating(edge, merged) - 1] += count
        assert sum(new_counts) == sum(counts)
        assert merged.bin_count == 1 or min(new_counts) >= threshold


class TestClassMap:
    def test_drop(self):
        spec = ds.load_preset("DL1").label_source
        assert ds.map_design_load(7, spec) is None

    def test_merge_lands_with_group(self):
        spec = ds.load_preset("DL5").label_source
        assert ds.map_design_load(9, spec) == ds.map_design_load(5, spec) == 5

    def test_passthrough(self):
        spec = ds.load_preset("DL1").label_source
        assert ds.map_design_load(2, spec) == 2

    def test_out_of_range(self):
        spec = ds.load_preset("DL1").label_source
        with pytest.raises(DomainError):
            ds.map_design_load(13, spec)

    def test_output_indices_contiguous(self):
        for name in ("DL1", "DL3", "DL5", "DL7"):
            spec = ds.load_preset(name).label_source
            outputs = sorted(
                {ds.map_design_load(c, spec) for c in range(1, 13)} - {None}
            )
            assert outputs == list(range(1, output_count(spec) + 1))

    def test_partition_enforced(self):
        with pytest.raises(ConfigError,
                           match="bad: drop/merge/passthrough must partition classes 1..12$"):
            ds.ClassMapSpec(name="bad", passthrough=(1, 2), drop=frozenset({2, 3}))


class TestDownsample:
    def test_exact_published_counts(self):
        items = make_items(dict(zip(range(1, 9), [928, 4674, 1913, 460, 3991, 491, 585, 310])))
        kept = ds.downsample(items, {2: 1000, 3: 1000, 5: 1000}, seed=1)
        counts = {}
        for item in kept:
            counts[item.cls] = counts.get(item.cls, 0) + 1
        assert counts == {1: 928, 2: 1000, 3: 1000, 4: 460, 5: 1000, 6: 491, 7: 585, 8: 310}
        assert len(kept) == 5774

    def test_cap_saturates_at_availability(self):
        items = make_items({4: 287})
        kept = ds.downsample(items, {4: 300}, seed=0)
        assert len(kept) == 287

    def test_identity_when_caps_cover(self):
        items = make_items({1: 10, 2: 20})
        assert sorted(i.image_path for i in ds.downsample(items, {1: 10, 2: 25}, seed=3)) == sorted(
            i.image_path for i in items
        )

    def test_subset_and_determinism(self):
        items = make_items({1: 50, 2: 80})
        a = ds.downsample(items, {1: 20, 2: 30}, seed=9)
        b = ds.downsample(items, {1: 20, 2: 30}, seed=9)
        assert a == b
        assert set(i.image_path for i in a) <= set(i.image_path for i in items)
        c = ds.downsample(items, {1: 20, 2: 30}, seed=10)
        assert c != a  # different seed draws a different subset


class TestSplit:
    def test_floor_rule(self):
        split = ds.split_dataset(make_items({1: 100}), split_fraction=0.8, seed=0,
                                 stratified=True, group_split="image_level")
        assert len(split.train) == 80 and len(split.test) == 20

    def test_small_class_floor(self):
        split = ds.split_dataset(make_items({1: 5, 2: 5}), split_fraction=0.8, seed=0,
                                 stratified=True, group_split="image_level")
        assert split.class_counts("train") == {1: 4, 2: 4}
        assert split.class_counts("test") == {1: 1, 2: 1}

    def test_determinism(self):
        items = make_items({1: 30, 2: 12})
        fixed = {"split_fraction": 0.8, "stratified": True, "group_split": "image_level"}
        a = ds.split_dataset(items, seed=5, **fixed)
        b = ds.split_dataset(items, seed=5, **fixed)
        assert a == b
        assert a != ds.split_dataset(items, seed=6, **fixed)

    def test_partition_property(self):
        items = make_items({1: 37, 2: 11, 3: 8})
        split = ds.split_dataset(items, split_fraction=0.7, seed=2, stratified=True,
                                 group_split="image_level")
        got = sorted(i.image_path for i in split.train + split.test)
        assert got == sorted(i.image_path for i in items)
        for cls, n in ((1, 37), (2, 11), (3, 8)):
            assert split.class_counts("train")[cls] == math.floor(0.7 * n)

    def test_test_classes_subset_of_train(self):
        split = ds.split_dataset(make_items({1: 9, 2: 2, 3: 3}), split_fraction=0.8, seed=0,
                                 stratified=True, group_split="image_level")
        assert set(split.class_counts("test")) <= set(split.class_counts("train"))

    def test_single_image_class_errors_with_name(self):
        with pytest.raises(DomainError, match="class 2"):
            ds.split_dataset(make_items({1: 10, 2: 1}), split_fraction=0.8, seed=0,
                             stratified=True, group_split="image_level")

    def test_plain_random_mode(self):
        split = ds.split_dataset(make_items({1: 10, 2: 10}), split_fraction=0.8, seed=3,
                                 stratified=False, group_split="image_level")
        assert len(split.train) == 16 and len(split.test) == 4

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.dictionaries(st.integers(1, 6), st.integers(2, 25), min_size=1, max_size=5),
           st.sampled_from([0.5, 0.7, 0.8, 0.9]), st.integers(0, 2**32 - 1), st.booleans())
    def test_partition_invariants(self, counts, fraction, seed, stratified):
        items = make_items(counts)
        split = ds.split_dataset(items, split_fraction=fraction, seed=seed, stratified=stratified,
                                 group_split="image_level")
        train = [i.image_path for i in split.train]
        test = [i.image_path for i in split.test]
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == sorted(i.image_path for i in items)
        assert ds.split_dataset(items, split_fraction=fraction, seed=seed,
                                stratified=stratified, group_split="image_level") == split

    def test_bridge_level_keeps_bridges_whole(self):
        items = []
        for cls in (1, 2):
            for b in range(6):
                for i in range(4):
                    items.append(
                        ds.DatasetItem(
                            image_path=f"c{cls}b{b}i{i}",
                            cls=cls,
                            bridge_key=("01", f"B{cls}{b}"),
                        )
                    )
        split = ds.split_dataset(items, split_fraction=0.8, seed=1, stratified=True,
                                 group_split="bridge_level")
        train_bridges = {i.bridge_key for i in split.train}
        test_bridges = {i.bridge_key for i in split.test}
        assert train_bridges.isdisjoint(test_bridges)
        assert len(split.train) + len(split.test) == len(items)

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.dictionaries(st.integers(1, 4), st.tuples(st.integers(2, 8), st.integers(1, 4)),
                           min_size=1, max_size=4),
           st.sampled_from([0.5, 0.7, 0.8, 0.9]), st.integers(0, 2**32 - 1))
    def test_bridge_level_train_takes_bridges_until_the_floor(self, shapes, fraction, seed):
        # shapes: class -> (bridges, images per bridge). A class's bridges
        # are all one size, so dropping any train bridge drops the last
        # one taken, and that must take the class below floor(f * n).
        items = [ds.DatasetItem(f"c{cls}b{b}i{i}", cls, ("01", f"B{cls}-{b}"))
                 for cls, (bridges, size) in shapes.items()
                 for b in range(bridges) for i in range(size)]
        split = ds.split_dataset(items, split_fraction=fraction, seed=seed, stratified=True,
                                 group_split="bridge_level")
        train = split.class_counts("train")
        for cls, (bridges, size) in shapes.items():
            floor = math.floor(fraction * bridges * size)
            assert train.get(cls, 0) >= floor > train.get(cls, 0) - size, cls

    def test_bridge_level_class_of_two_bridges_splits(self):
        items = [ds.DatasetItem(f"b{b}i{i}", 1, ("01", f"B{b}")) for b in (0, 1) for i in (0, 1)]
        for seed in range(4):
            split = ds.split_dataset(items, split_fraction=0.5, seed=seed, stratified=True,
                                     group_split="bridge_level")
            assert len(split.train) == len(split.test) == 2
            assert len({i.bridge_key for i in split.train}) == 1
        with pytest.raises(DomainError, match="class 1 spans 1 bridge"):
            ds.split_dataset(items[:2], split_fraction=0.5, seed=0, stratified=True,
                             group_split="bridge_level")

    def test_bridge_with_two_classes_stays_on_one_side(self):
        # A hand-written labeled.ndjson can give one bridge's images two
        # load ratings. Bridge S0 holds one image of each class; its side
        # is fixed by class 1, and class 2 counts its image there.
        corpus = [LabeledImage(f"s{b}_{tons:g}.pnm", "01", f"S{b}", load_rating_tons=tons)
                  for b, tons in [(0, 5.0), (1, 5.0), (2, 5.0), (3, 5.0),
                                  (0, 25.0), (4, 25.0), (5, 25.0), (6, 25.0)]]
        sides = set()
        for seed in range(8):
            spec = ds.DatasetSpec("two", ds.BinningScheme("two", (0, 20)), seed=seed,
                                  split_fraction=0.5, group_split="bridge_level")
            split = ds.build_variant(spec, corpus).split
            train = {i.image_path for i in split.train}
            assert ("s0_5.pnm" in train) == ("s0_25.pnm" in train)
            assert split.class_counts("train") == {1: 2, 2: 2}
            sides.add("s0_5.pnm" in train)
        assert sides == {True, False}


class TestVariants:
    def test_dl2_published_counts(self, column_a_corpus):
        result = variant("DL2", column_a_corpus, 11)
        assert result.class_counts == {1: 928, 2: 1000, 3: 1000, 4: 460,
                                       5: 1000, 6: 491, 7: 585, 8: 310}
        assert result.total == 5774

    def test_dl3_merged_class(self, column_a_corpus):
        result = variant("DL3", column_a_corpus, 11)
        assert result.class_counts[9] == 188  # 3 + 56 + 22 + 107
        assert result.total == 13540

    def test_dl4_total(self, column_a_corpus):
        assert variant("DL4", column_a_corpus, 11).total == 5962

    def test_dl5_merged_groups(self, column_a_corpus):
        result = variant("DL5", column_a_corpus, 11)
        assert result.class_counts[5] == 5067  # 3991 + 491 + 585
        assert result.class_counts[6] == 332  # 310 + 22
        assert result.class_counts[7] == 166  # 3 + 56 + 107
        assert result.total == 13540

    def test_match_min_balances(self):
        corpus = []
        for cls, tons, n in ((1, 5.0, 40), (2, 20.0, 25), (3, 80.0, 70)):
            for i in range(n):
                corpus.append(
                    LabeledImage(
                        image_path=f"r{cls}_{i}", state="01", structure=f"S{cls}{i}",
                        load_rating_tons=tons,
                    )
                )
        result = variant("LR6", corpus, 1)
        assert result.class_counts == {1: 25, 2: 25, 3: 25}

    def test_min_class_size_merges_scheme(self):
        corpus = []
        for cls, tons, n in ((0, 2.0, 3), (1, 7.0, 50), (2, 20.0, 60)):
            for i in range(n):
                corpus.append(
                    LabeledImage(
                        image_path=f"m{cls}_{i}", state="01", structure=f"T{cls}{i}",
                        load_rating_tons=tons,
                    )
                )
        spec = ds.DatasetSpec(
            name="custom",
            label_source=ds.BinningScheme(name="fine", edges=(0, 5, 10)),
            min_class_size=10,
        )
        result = ds.build_variant(spec, corpus)
        assert result.class_labels == ("0-10 tons", ">10 tons")
        assert result.class_counts == {1: 53, 2: 60}

    def test_min_class_size_counts_each_bin_from_its_own_images(self):
        # 10, 9 and 10 images in bins 1-3: only bin 2 is short of 10.
        corpus = [LabeledImage(f"n{tons:g}_{i}", "01", f"N{tons:g}{i}", load_rating_tons=tons)
                  for tons, n in ((2.0, 10), (12.0, 9), (22.0, 10)) for i in range(n)]
        spec = ds.DatasetSpec("three", ds.BinningScheme("three", (0, 10, 20)),
                              min_class_size=10)
        result = ds.build_variant(spec, corpus)
        assert result.spec.label_source.edges == (0.0, 10.0)
        assert result.class_counts == {1: 10, 2: 19}

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_split_fraction_bounds_are_rejected(self, fraction):
        design_load = ds.load_preset("DL1").label_source
        with pytest.raises(ConfigError, match="split_fraction must be in"):
            ds.DatasetSpec("dl", design_load, split_fraction=fraction)

    def test_caps_must_be_positive(self):
        design_load = ds.load_preset("DL1").label_source
        assert ds.DatasetSpec("dl", design_load, caps={"3": 1}).caps == {3: 1}
        with pytest.raises(ConfigError, match="caps must be positive"):
            ds.DatasetSpec("dl", design_load, caps={"3": 0})

    def test_spec_rejects_settings_it_cannot_honour(self):
        design_load = ds.load_preset("DL1").label_source
        assert ds.DatasetSpec("dl", design_load, min_class_size=None).min_class_size is None
        with pytest.raises(ConfigError, match="min_class_size"):
            ds.DatasetSpec("dl", design_load, min_class_size=1000)
        assert not ds.DatasetSpec("dl", design_load, stratified=False).stratified
        with pytest.raises(ConfigError, match="bridge_level"):
            ds.DatasetSpec("dl", design_load, stratified=False, group_split="bridge_level")

    @pytest.mark.parametrize("key", ["\u0663", "1\u0662"])
    def test_caps_key_of_other_digits_is_config_error(self, key):
        # str.isdecimal is true for other scripts' digits, which int() reads.
        design_load = ds.load_preset("DL1").label_source
        assert ds.DatasetSpec("dl", design_load, caps={"3": 5}).caps == {3: 5}
        with pytest.raises(ConfigError, match="caps keys must be class numbers"):
            ds.DatasetSpec("dl", design_load, caps={key: 5})

    def test_completion_filter(self, column_a_corpus):
        # column-A corpus is all complete, so partial-only variants starve
        with pytest.raises(DomainError):
            variant("DL16", column_a_corpus, 0)

    def test_missing_labels_error(self):
        corpus = [LabeledImage(image_path="x", state="01", structure="S1",
                               load_rating_tons=12.0)]
        with pytest.raises(DomainError, match="design-load"):
            variant("DL1", corpus, 0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ds.load_preset("DL99")

    def test_variant_determinism(self, column_a_corpus):
        a = variant("DL6", column_a_corpus, 21)
        b = variant("DL6", column_a_corpus, 21)
        assert ds.write_split_csv(a.split) == ds.write_split_csv(b.split)

    def test_split_csv_round_trip(self, column_a_corpus):
        result = variant("DL2", column_a_corpus, 3)
        text = ds.write_split_csv(result.split)
        again = ds.read_split_csv(text)
        assert [i.image_path for i in again.train] == [i.image_path for i in result.split.train]
        assert [i.cls for i in again.test] == [i.cls for i in result.split.test]

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.lists(st.builds(ds.DatasetItem, image_path=st.text(),
                              cls=st.integers(-10**12, 10**12), bridge_key=st.none()),
                    max_size=8),
           st.integers(0, 8))
    @example([ds.DatasetItem("a\rb.pnm", 1), ds.DatasetItem("c.pnm", 2)], 1)
    def test_split_csv_round_trip_any_text(self, items, cut):
        split = ds.DatasetSplit(train=tuple(items[:cut]), test=tuple(items[cut:]))
        assert ds.read_split_csv(ds.write_split_csv(split)) == split

    def test_unreadable_split_row_is_format_error(self):
        with pytest.raises(FormatError, match="split-manifest line 2: new-line character"):
            ds.read_split_csv("image_path,class,side\na\rb.pnm,1,train\n")

    def test_all_presets_instantiate(self):
        for name in preset_names():
            spec = ds.load_preset(name)
            assert spec.name == name


# Split text with quoted fields that hold line breaks, bare \r and \r\n
# line ends and, in half of the texts, a wrong header or one malformed
# row, but no blank row: the old reader read a blank row as a malformed one.
SPLIT_ROW = st.tuples(
    st.sampled_from(["a.pnm", " b.pnm", '"q\nx.pnm"', '"q\r\ny.pnm"', '"q\rz.pnm"', '""']),
    st.sampled_from(["1", "-2", " 3"]),
    st.sampled_from(["train", "test"]),
).map(",".join)
BAD_SPLIT_ROW = st.sampled_from(["a.pnm,1", "a.pnm,x,test", "a.pnm,1,val", "a\rb.pnm,1,train",
                                 'a.pnm,1,"open', "a,1,test,x"])


@st.composite
def split_texts(draw):
    rows = draw(st.lists(SPLIT_ROW, max_size=8))
    header = "image_path,class,side"
    if draw(st.booleans()):
        if draw(st.booleans()):
            header = draw(st.sampled_from(["image_path,class", "a"]))
        else:
            rows.insert(draw(st.integers(0, len(rows))), draw(BAD_SPLIT_ROW))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    return "".join(row + end for row, end in zip([header, *rows], ends))


def split_or_error(read, errors=FormatError):
    try:
        return read()
    except errors as exc:
        return str(exc).removesuffix(" - do you need to open the file in universal-newline mode?")


class TestSplitCsvReader:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(split_texts().filter(lambda text: not csv_oracles.has_blank_row(text)))
    def test_rows_lines_and_errors_equal_the_old_reader(self, text):
        # The old reader read every row before it looked at the first, so
        # an unreadable row anywhere was reported before an earlier error.
        # This one stops at the first error: where the old one stops on the
        # lines up to that error's.
        got = split_or_error(lambda: ds.read_split_csv(text))
        if isinstance(got, str):
            if match := re.match(r"split-manifest line (\d+):", got):
                last = int(match[1])
            else:  # the header
                reader = csv.reader(io.StringIO(text))
                last = reader.line_num if next(reader, None) else 0
            text = "".join(io.StringIO(text).readlines()[:last])
        # The old reader raised ConfigError for a wrong header.
        expected = split_or_error(lambda: csv_oracles.read_split_csv(text),
                                  (FormatError, ConfigError))
        assert got == expected

    @settings(derandomize=True, deadline=None, database=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.builds(ds.DatasetItem, image_path=st.text(),
                              cls=st.integers(-10**12, 10**12), bridge_key=st.none()),
                    max_size=8),
           st.integers(0, 8))
    @example([ds.DatasetItem("a\rb.pnm", 1), ds.DatasetItem("c\r\nd.pnm", 2)], 1)
    def test_file_opened_as_train_opens_it_gives_the_written_paths(self, tmp_path, items, cut):
        split = ds.DatasetSplit(train=tuple(items[:cut]), test=tuple(items[cut:]))
        path = tmp_path / "split.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            ds.write_split_csv(split, fh)
        with open(path, encoding="utf-8", newline="\n") as fh:
            assert ds.read_split_csv(fh) == split

    @pytest.mark.parametrize("header", ["", "image_path,class\n", "path,class,side\n"])
    def test_wrong_header_is_format_error(self, header):
        with pytest.raises(FormatError, match="unexpected split-manifest header"):
            ds.read_split_csv(header + "a.pnm,1,train\n")

    @pytest.mark.parametrize("cls", ["1_0", "\u0663", "1\u0660"])
    def test_class_of_other_digits_is_format_error(self, cls):
        # int() reads "_" between digits and other scripts' digits.
        with pytest.raises(FormatError, match=r"split-manifest line 3: .* integer class"):
            ds.read_split_csv(f"image_path,class,side\na.pnm,1,train\nb.pnm,{cls},test\n")

    def test_rows_of_blank_cells_are_skipped(self):
        text = "image_path,class,side\n   \na.pnm,1,train\n,,\n\nb.pnm,2,test\n"
        assert ds.read_split_csv(text) == ds.DatasetSplit(
            train=(ds.DatasetItem("a.pnm", 1),), test=(ds.DatasetItem("b.pnm", 2),))

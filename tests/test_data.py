"""Synthetic data generation and netpbm round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shapegan import netpbm, synth
from shapegan.errors import ConfigurationError, DataError, UsageError
from shapegan.synth import (
    ATTRIBUTES,
    BACKGROUND,
    build_dataset,
    generate_sample,
    load_dataset,
    rasterize_mask,
    sample_shape,
)


# ---------------------------------------------------------------------------
# netpbm


class TestNetpbm:
    def test_ppm_round_trip_exact(self, tmp_path):
        # values of the form k/255 survive quantization untouched
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(3, 7, 5)).astype(np.float64) / 255.0
        path = tmp_path / "a.ppm"
        netpbm.write_image(path, img)
        assert np.array_equal(netpbm.read_image(path), img)

    def test_pgm_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 256, size=(1, 4, 9)).astype(np.float64) / 255.0
        path = tmp_path / "a.pgm"
        netpbm.write_image(path, mask)
        assert np.array_equal(netpbm.read_image(path), mask)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_images(self, tmp_path, value):
        path = tmp_path / "c.ppm"
        netpbm.write_image(path, np.full((3, 6, 6), value))
        assert np.array_equal(netpbm.read_image(path), np.full((3, 6, 6), value))

    # each draw overwrites its own file, so reusing the directory is fine
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(min_value=1, max_value=6),
        w=st.integers(min_value=1, max_value=6),
        channels=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_round_trip_any_quantized_array(self, tmp_path, h, w, channels, data):
        levels = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=255),
                min_size=channels * h * w,
                max_size=channels * h * w,
            )
        )
        arr = np.array(levels, dtype=np.float64).reshape(channels, h, w) / 255.0
        path = tmp_path / f"rt_{channels}_{h}x{w}.pbm"
        netpbm.write_image(path, arr)
        assert np.array_equal(netpbm.read_image(path), arr)

    def test_handcrafted_p6_bytes(self, tmp_path):
        """A 2x2 P6 file written by hand decodes to the expected layout."""
        path = tmp_path / "hand.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
        img = netpbm.read_image(path)
        # file stores rows of (r, g, b) pixels; we store channel-first
        expected = (
            np.arange(12, dtype=np.float64).reshape(2, 2, 3).transpose(2, 0, 1) / 255.0
        )
        assert np.array_equal(img, expected)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n2 1\n# more\n255\n\x00\xff")
        assert np.array_equal(netpbm.read_image(path), np.array([[[0.0, 1.0]]]))

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match=r"maxval.*at byte"):
            netpbm.read_image(path)

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(DataError, match=r"truncated raster.*need 12.*have 2"):
            netpbm.read_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DataError, match="unsupported magic"):
            netpbm.read_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            netpbm.read_image(tmp_path / "nope.ppm")
        with pytest.raises(DataError, match="cannot read"):
            netpbm.read_image(tmp_path / "no\0pe.ppm")  # no such path can exist

    def test_nonpositive_dimensions(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n0 3\n255\n")
        with pytest.raises(DataError, match="invalid dimensions"):
            netpbm.read_image(path)

    def test_non_integer_header_token(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\nwide 3\n255\n")
        with pytest.raises(DataError, match="expected integer width"):
            netpbm.read_image(path)

    def test_write_rejects_out_of_range(self, tmp_path):
        with pytest.raises(UsageError, match=r"\[0, 1\]"):
            netpbm.write_image(tmp_path / "r.ppm", np.full((3, 2, 2), 1.5))
        with pytest.raises(UsageError):
            netpbm.write_image(tmp_path / "r.pgm", np.full((1, 2, 2), -0.1))

    def test_write_rejects_wrong_shape(self, tmp_path):
        for shape in [(2, 2, 2), (4, 2, 2), (2, 2), (1, 1, 2, 2)]:
            with pytest.raises(UsageError, match=r"expects \(1\|3, H, W\)"):
                netpbm.write_image(tmp_path / "s.ppm", np.zeros(shape))

    def test_read_image_dispatches_on_magic(self, tmp_path):
        netpbm.write_image(tmp_path / "c.ppm", np.zeros((3, 2, 2)))
        netpbm.write_image(tmp_path / "g.pgm", np.ones((1, 2, 2)))
        assert netpbm.read_image(tmp_path / "c.ppm").shape == (3, 2, 2)
        assert netpbm.read_image(tmp_path / "g.pgm").shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# silhouettes and samples


class TestShapes:
    def test_sampled_shapes_respect_budgets(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = sample_shape(rng)
            total_amp = sum(abs(a) for _, a, _ in spec.harmonics)
            assert total_amp < 0.9
            assert spec.base_radius * (1.0 + total_amp) <= 0.46
            assert len(spec.harmonics) in (2, 3)

    def test_mask_is_binary(self):
        rng = np.random.default_rng(4)
        mask = rasterize_mask(sample_shape(rng), 32)
        assert mask.shape == (1, 32, 32)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_mask_area_bounds(self):
        # the radius budgets keep coverage in a band that leaves both
        # foreground and background visible at 32x32
        rng = np.random.default_rng(5)
        for _ in range(1000):
            mask = rasterize_mask(sample_shape(rng), 32)
            area = mask.mean()
            assert 0.15 <= area <= 0.70, f"area {area} out of band"

    def test_rasterize_rejects_tiny_grid(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ConfigurationError, match=">= 16"):
            rasterize_mask(sample_shape(rng), 8)

    def test_resolution_consistency(self):
        # same spec at 2x resolution covers about the same area fraction
        rng = np.random.default_rng(7)
        spec = sample_shape(rng)
        a32 = rasterize_mask(spec, 32).mean()
        a64 = rasterize_mask(spec, 64).mean()
        assert abs(a32 - a64) < 0.03


class TestGenerateSample:
    def test_bitwise_determinism(self):
        a = generate_sample(123, 1, 32)
        b = generate_sample(123, 1, 32)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_different_seeds_differ(self):
        a = generate_sample(1, 0, 32)
        b = generate_sample(2, 0, 32)
        assert not np.array_equal(a.image, b.image)

    def test_mask_independent_of_attribute(self):
        # silhouette and attribute streams are separate, so every renderer
        # sees the same mask for a given seed
        masks = [generate_sample(77, d, 32).mask for d in range(len(ATTRIBUTES))]
        for m in masks[1:]:
            assert np.array_equal(m, masks[0])

    def test_same_seed_different_domains_share_mask_not_image(self):
        a = generate_sample(9, 0, 32)
        b = generate_sample(9, 1, 32)
        assert np.array_equal(a.mask, b.mask)
        assert not np.array_equal(a.image, b.image)

    def test_background_exact_outside_mask(self):
        for d in range(4):
            sample = generate_sample(31 + d, d, 32)
            outside = np.broadcast_to(sample.mask <= 0.5, sample.image.shape)
            expected = np.broadcast_to(
                BACKGROUND[:, None, None], sample.image.shape
            )
            assert np.array_equal(sample.image[outside], expected[outside])

    def test_image_range_and_shape(self):
        for d in range(4):
            sample = generate_sample(200 + d, d, 32)
            assert sample.image.shape == (3, 32, 32)
            assert sample.mask.shape == (1, 32, 32)
            assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
            assert sample.domain == d

    def test_attribute_families_are_distinguishable(self):
        # mean foreground color separates the default renderers
        means = []
        for d in range(2):
            sample = generate_sample(8, d, 32)
            fg = sample.mask[0] > 0.5
            means.append(sample.image[:, fg].mean(axis=1))
        # plain is green-dominant, hue_shift red-dominant
        assert means[0][1] > means[0][0]
        assert means[1][0] > means[1][1]

    def test_default_domain_cycles(self):
        # domain d renders ATTRIBUTES[d % 4]: plain and hue_shift fill evenly
        # (green and red dominant), spots and edge darkening do not
        for d in range(4, 8):
            sample = generate_sample(8, d, 32)
            fg = sample.image[:, sample.mask[0] > 0.5]
            red, green, _ = fg.mean(axis=1)
            even = fg.std(axis=1).max() < 0.03
            assert even == (ATTRIBUTES[d % 4] in ("plain", "hue_shift"))
            if even:
                assert (green > red) == (ATTRIBUTES[d % 4] == "plain")


# ---------------------------------------------------------------------------
# dataset builder


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = build_dataset(
        root, domains=2, n_per_domain=16, size=32, seed=3,
        paired_eval_fraction=0.25,
    )
    return root, manifest


class TestBuildDataset:
    def test_manifest_row_count(self, built):
        root, manifest = built
        lines = manifest.read_text().strip().splitlines()
        assert lines[0] == "path,mask_path,domain,seed,split"
        assert len(lines) == 1 + 2 * 16

    def test_split_sizes(self, built):
        root, _ = built
        ds = load_dataset(root)
        for d in (0, 1):
            assert len(ds.train_indices(d)) == 12
            assert len(ds.eval_indices(d)) == 4

    def test_loaded_arrays(self, built):
        root, _ = built
        ds = load_dataset(root)
        assert ds.images.shape == (32, 3, 32, 32)
        assert ds.masks.shape == (32, 1, 32, 32)
        assert ds.size == 32
        assert ds.channels == 3
        assert ds.domain_ids == [0, 1]

    def test_eval_masks_paired_across_domains(self, built):
        root, _ = built
        ds = load_dataset(root)
        e0, e1 = ds.eval_indices(0), ds.eval_indices(1)
        # rows are written in the same seed order for every domain
        assert np.array_equal(ds.seeds[e0], ds.seeds[e1])
        assert np.array_equal(ds.masks[e0], ds.masks[e1])
        assert not np.array_equal(ds.images[e0], ds.images[e1])

    def test_train_masks_not_paired(self, built):
        root, _ = built
        ds = load_dataset(root)
        t0, t1 = ds.train_indices(0), ds.train_indices(1)
        assert not np.array_equal(ds.masks[t0], ds.masks[t1])

    def test_train_and_eval_seed_streams_disjoint(self, built):
        root, _ = built
        ds = load_dataset(root)
        train = {int(s) for s in ds.seeds[ds.train_indices()]}
        evals = {int(s) for s in ds.seeds[ds.eval_indices()]}
        assert train.isdisjoint(evals)

    def test_manifest_seed_regenerates_files_bitwise(self, built):
        root, _ = built
        ds = load_dataset(root)
        idx = int(ds.eval_indices(1)[0])
        regen = generate_sample(int(ds.seeds[idx]), 1, 32)
        # quantize the same way the writer does
        assert np.array_equal(
            np.rint(regen.image * 255.0), np.rint(ds.images[idx] * 255.0)
        )
        assert np.array_equal(regen.mask, ds.masks[idx])

    def test_rebuild_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ma = build_dataset(a, domains=2, n_per_domain=6, size=32, seed=9)
        mb = build_dataset(b, domains=2, n_per_domain=6, size=32, seed=9)
        assert ma.read_bytes() == mb.read_bytes()
        files_a = sorted(p.relative_to(a) for p in a.rglob("*.p?m"))
        files_b = sorted(p.relative_to(b) for p in b.rglob("*.p?m"))
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_different_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        build_dataset(a, domains=1, n_per_domain=4, size=32, seed=1)
        build_dataset(b, domains=1, n_per_domain=4, size=32, seed=2)
        name = "images/train_d0_0000.ppm"
        assert (a / name).read_bytes() != (b / name).read_bytes()

    def test_zero_eval_fraction(self, tmp_path):
        build_dataset(tmp_path, domains=2, n_per_domain=4, size=32, seed=0,
                      paired_eval_fraction=0.0)
        ds = load_dataset(tmp_path)
        assert len(ds.eval_indices()) == 0
        assert len(ds.train_indices()) == 8

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(domains=0), "at least one domain"),
            (dict(size=8), ">= 16"),
            (dict(paired_eval_fraction=1.0), r"\[0, 1\)"),
            (dict(paired_eval_fraction=-0.1), r"\[0, 1\)"),
            (dict(n_per_domain=1, paired_eval_fraction=0.75), "too small"),
        ],
    )
    def test_rejects_bad_parameters(self, tmp_path, kwargs, message):
        args = dict(domains=2, n_per_domain=4, size=32, seed=0)
        args.update(kwargs)
        with pytest.raises(ConfigurationError, match=message):
            build_dataset(tmp_path, **args)


class TestLoadDataset:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest.csv"):
            load_dataset(tmp_path)

    def test_bad_header(self, tmp_path):
        (tmp_path / synth.MANIFEST_NAME).write_text("a,b,c\n")
        with pytest.raises(DataError, match="unexpected manifest header"):
            load_dataset(tmp_path)

    def test_empty_manifest(self, tmp_path):
        (tmp_path / synth.MANIFEST_NAME).write_text(
            "path,mask_path,domain,seed,split\n"
        )
        with pytest.raises(DataError, match="empty manifest"):
            load_dataset(tmp_path)

    def test_malformed_row_reports_line(self, tmp_path):
        (tmp_path / synth.MANIFEST_NAME).write_text(
            "path,mask_path,domain,seed,split\nonly,two\n"
        )
        with pytest.raises(DataError, match=":2: malformed row"):
            load_dataset(tmp_path)

    def test_unknown_split_rejected(self, tmp_path):
        (tmp_path / synth.MANIFEST_NAME).write_text(
            "path,mask_path,domain,seed,split\na.ppm,b.pgm,0,1,test\n"
        )
        with pytest.raises(DataError, match="unknown split 'test'"):
            load_dataset(tmp_path)

    def test_missing_image_file(self, tmp_path):
        (tmp_path / synth.MANIFEST_NAME).write_text(
            "path,mask_path,domain,seed,split\ngone.ppm,b.pgm,0,1,train\n"
        )
        with pytest.raises(DataError, match="cannot read"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("rows,message", [
        ([((8, 8), (8, 8), "zero", "1")], ":2: domain and seed must be integers"),
        ([((8, 8), (8, 8), "0", "1.5")], ":2: domain and seed must be integers"),
        ([((8, 8), (8, 8), "0", str(2**63))], ":2: domain and seed must be integers"),
        ([((8, 8), (8, 8), str(-(2**63) - 1), "1")],
         ":2: domain and seed must be integers"),
        ([((8, 8), (8, 8), "0", "1"), ((6, 6), (6, 6), "0", "2")],
         r":3: image b\.ppm is 6x6 and mask b\.pgm is 6x6; every image and mask must be 8x8"),
        ([((8, 8), (4, 4), "0", "1")], r":2: .* mask a\.pgm is 4x4; every .* must be 8x8"),
        ([((8, 6), (8, 6), "0", "1")], r":2: image a\.ppm is 8x6 .* must be 6x6"),
    ], ids=["domain", "seed", "seed beyond int64", "domain beyond int64", "image size",
            "mask size", "non-square"])
    def test_malformed_row_or_raster_reports_line(self, tmp_path, rows, message):
        lines = ["path,mask_path,domain,seed,split"]
        for stem, ((h, w), (mh, mw), dom, seed) in zip("ab", rows):
            netpbm.write_image(tmp_path / f"{stem}.ppm", np.zeros((3, h, w)))
            netpbm.write_image(tmp_path / f"{stem}.pgm", np.zeros((1, mh, mw)))
            lines.append(f"{stem}.ppm,{stem}.pgm,{dom},{seed},train")
        (tmp_path / synth.MANIFEST_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("column", ["image", "mask"])
    def test_wrong_magic_for_column(self, tmp_path, column):
        netpbm.write_image(tmp_path / "a.ppm", np.zeros((3, 2, 2)))
        netpbm.write_image(tmp_path / "a.pgm", np.zeros((1, 2, 2)))
        row = "a.pgm,a.pgm" if column == "image" else "a.ppm,a.ppm"
        (tmp_path / synth.MANIFEST_NAME).write_text(
            f"path,mask_path,domain,seed,split\n{row},0,1,train\n"
        )
        with pytest.raises(DataError, match=":2: image .* must be a PPM and mask .* a PGM"):
            load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# damaged manifests: every one either loads or raises DataError

HEADER = b"path,mask_path,domain,seed,split\n"


@pytest.mark.parametrize("row,message", [
    (b"a.ppm,a.pgm,0,1,tr\xffin\n", ":2: not UTF-8 text"),
    (b"a.p\x00pm,a.pgm,0,1,train\n", ":2: cannot read"),
    (b"a.ppm,a.pgm,0,1," + b"x" * 131073 + b"\n", ":2: field larger than field limit"),
], ids=["non-utf-8", "nul in path", "field over csv limit"])
def test_damaged_manifest_reports_line(tmp_path, row, message):
    netpbm.write_image(tmp_path / "a.ppm", np.zeros((3, 2, 2)))
    netpbm.write_image(tmp_path / "a.pgm", np.zeros((1, 2, 2)))
    (tmp_path / synth.MANIFEST_NAME).write_bytes(HEADER + row)
    with pytest.raises(DataError, match=message):
        load_dataset(tmp_path)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """The directory of a small generated dataset and its pristine manifest.
    The fuzz test overwrites the manifest in place and restores nothing:
    every draw writes its own."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    manifest = build_dataset(root, domains=2, n_per_domain=4, size=16, seed=0)
    return root, manifest.read_bytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzz_byte_edits_load_or_raise_data_error(small_dataset, data):
    root, pristine = small_dataset
    buf = bytearray(pristine)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(buf) - 1))
        byte = data.draw(st.integers(0, 255))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            buf[pos] = byte
        elif edit == "insert":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    (root / synth.MANIFEST_NAME).write_bytes(bytes(buf))
    try:
        load_dataset(root)
    except DataError:
        pass  # anything else propagates and fails the test


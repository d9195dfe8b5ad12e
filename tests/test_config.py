"""Key-value config parsing and typed builders."""

import dataclasses
import inspect
from pathlib import Path

import pytest

from ghaar.errors import ConfigError
from ghaar import config as cf
from ghaar import pipeline as pl
from ghaar.synth import SynthSettings
from ghaar.training import TrainConfig


def test_parse_text_basics():
    text = """
    # camera block
    m11 = 800      # focal
    m22=820
    name = left camera

    m11 = 750      # later key wins
    """
    cfg = cf.parse_config_text(text)
    assert cfg["m11"] == "750"
    assert cfg["m22"] == "820"
    assert cfg["name"] == "left camera"


def test_parse_text_rejects_bad_lines():
    with pytest.raises(ConfigError):
        cf.parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        cf.parse_config_text("= 3\n")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cf.parse_config(tmp_path / "nope.cfg")


def test_parse_config_refuses_keys_no_command_reads(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("epochs = 3\nepoch = 3\nlr = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key 'epoch'"):
        cf.parse_config(path)
    path.write_text("epochs = 3\nlr = 0.1\n")
    assert cf.parse_config(path) == {"epochs": "3", "lr": "0.1"}


def readme_block(after):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(after, 1)[1]


def test_readme_config_parses_as_a_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(readme_block("Write a config").split("```")[1])
    assert cf.parse_config(path)["ws"] == "32"


def test_readme_key_table_lists_exactly_the_known_keys():
    table = readme_block("## Config keys").split("\n## ", 1)[0]
    keys = [row.split("|")[1].strip().strip("`")
            for row in table.splitlines() if row.startswith("| `")]
    assert len(keys) == len(set(keys))
    assert set(keys) == cf.KNOWN_KEYS


def test_typed_getters():
    cfg = {"a": "2.5", "b": "7", "c": "true", "d": "1 2 3", "bad": "x"}
    assert cf.get_float(cfg, "a") == 2.5
    assert cf.get_int(cfg, "b") == 7
    assert cf.get_bool(cfg, "c") is True
    assert cf.get_int_tuple(cfg, "d") == (1, 2, 3)
    assert cf.get_float(cfg, "zz", 1.5) == 1.5
    with pytest.raises(ConfigError):
        cf.get_float(cfg, "zz")
    with pytest.raises(ConfigError):
        cf.get_int(cfg, "bad")
    with pytest.raises(ConfigError):
        cf.get_bool(cfg, "bad")


def test_camera_and_ranges_builders():
    cfg = cf.parse_config_text(
        "m11 = 800\nm22 = 820\nm13 = 512\nm34 = 1.5\n"
        "x3d_min = -8\nx3d_max = 8\ny3d_min = -1\ny3d_max = 3\nd3d = 1.8\n")
    cam = cf.camera_from_config(cfg)
    assert cam.m11 == 800 and cam.m13 == 512 and cam.m34 == 1.5
    assert cam.m14 == 0.0
    ranges = cf.ranges_from_config(cfg)
    assert ranges.x3d_max == 8 and ranges.d3d == 1.8
    assert cf.geometry_from_config(cfg) == (cam, ranges)
    assert cf.geometry_from_config({"ws": "32"}) == (None, None)
    with pytest.raises(ConfigError, match="m22"):
        cf.geometry_from_config({"m11": "800"})
    with pytest.raises(ConfigError):
        cf.camera_from_config({"m11": "800"})     # m22 missing


def test_train_config_builder():
    cfg = cf.parse_config_text(
        "epochs = 4\nlr = 0.02\nnr = 16\nws = 16\n"
        "trunk_widths = 2 3 3 3\nhead_widths = 3 3\nbottleneck = 2\n"
        "constrain = false\nseed = 9\n")
    tc = cf.train_config_from_config(cfg)
    assert tc.epochs == 4 and tc.lr == 0.02 and tc.nr == 16
    assert tc.window == 16 and tc.trunk_widths == (2, 3, 3, 3)
    assert tc.constrain is False
    assert tc.seed == 9
    # an explicit seed argument beats the file
    assert cf.train_config_from_config(cfg, seed=1).seed == 1
    defaults = cf.train_config_from_config({})
    assert defaults.epochs == 10 and defaults.phi == 0.1 and defaults.q == 8


def test_synth_and_detect_builders():
    cfg = cf.parse_config_text(
        "n_images = 3\nimage_w = 100\nimage_h = 90\nws = 24\n"
        "score_thresh = 0.6\nbg_ratio = 2.0\nflip = true\n")
    st = cf.synth_settings_from_config(cfg)
    assert st.n_images == 3 and st.image_w == 100 and st.ws == 24
    ds = cf.detect_settings_from_config(cfg)
    assert (st.ws, ds["stride_frac"], ds["ratio"]) == (24, 0.3, 1.4)
    assert ds["score_thresh"] == 0.6
    ex = cf.extract_params_from_config(cfg)
    assert ex["bg_ratio"] == 2.0 and ex["flip"] is True


def test_unset_keys_keep_the_library_defaults():
    assert cf.train_config_from_config({}) == TrainConfig()
    assert cf.synth_settings_from_config({}) == SynthSettings()
    assert cf.extract_params_from_config({}) == {}
    settings = cf.detect_settings_from_config({})
    params = inspect.signature(pl.detect_image).parameters
    assert settings == {k: params[k].default for k in settings}


def test_partial_loss_weights_keep_the_other_default():
    tc = cf.train_config_from_config({"loss_w_cla": "2.5"})
    assert tc.loss_weights == (TrainConfig.loss_weights[0], 2.5)


def test_readme_config_train_fields():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Write a config", 1)[1].split("```")[1]
    tc = cf.train_config_from_config(cf.parse_config_text(block))
    assert dataclasses.asdict(tc) == {
        "epochs": 10, "phase_a_epochs": 5, "lr": 0.1, "lr_decay": 0.5,
        "decay_every": 10, "batch_size": 64, "phi": 0.1, "q": 8, "nr": 32,
        "loss_weights": (1.0, 1.0), "seed": 0, "constrain": True,
        "window": 32, "in_channels": 3, "classes": 3,
        "trunk_widths": (6, 12, 12, 12), "head_widths": (12, 12),
        "bottleneck": 8}


def test_float_tuple_getter():
    assert cf.get_float_tuple({"b": "1 5.5 9"}, "b") == (1.0, 5.5, 9.0)
    with pytest.raises(ConfigError, match="list of numbers"):
        cf.get_float_tuple({"b": "1 x 9"}, "b")

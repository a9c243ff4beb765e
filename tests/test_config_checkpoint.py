"""Run-config parsing/validation and binary checkpoint persistence."""

import json

import numpy as np
import pytest

from bgrto import config, rng
from bgrto.autodiff import NamedParams
from bgrto.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    merge_params,
    params_digest,
    save_checkpoint,
    split_params,
)
from bgrto.config import ConfigError, apply_overrides, compat_hash, from_dict, to_dict


def test_empty_config_is_a_complete_default_config():
    rc = from_dict({})
    assert rc.train.beta_kl == 0.01
    assert rc.train.eps_clip == 0.2
    assert rc.train.group_size == 8
    assert rc.train.grad_clip_norm == 1.0
    assert rc.bto.beta == 0.01
    assert rc.env.width == 16 and rc.env.height == 16 and rc.env.colors == 4
    assert rc.domain == "target"


def test_negative_beta_kl_rejected():
    with pytest.raises(ConfigError, match="beta_kl"):
        from_dict({"train": {"beta_kl": -1}})


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as err:
        from_dict({"nonsense": 1, "train": {"also_nonsense": 2}})
    message = str(err.value)
    assert "nonsense" in message and "train.also_nonsense" in message


def test_all_violations_reported_together():
    with pytest.raises(ConfigError) as err:
        from_dict({"train": {"beta_kl": -1, "group_size": 1, "mode": "nope"}})
    assert len(err.value.problems) >= 3


def test_type_errors_reported():
    with pytest.raises(ConfigError, match="expected float"):
        from_dict({"train": {"lr_policy": "fast"}})
    with pytest.raises(ConfigError, match="expected int"):
        from_dict({"train": {"group_size": 2.5}})


def test_round_trip_identity():
    rc = from_dict({"seed": 3, "train": {"mode": "b_grto", "epochs": 7}, "env": {"colors": 3}})
    again = from_dict(json.loads(json.dumps(to_dict(rc))))
    assert again == rc


def test_mode_enum_enforced():
    with pytest.raises(ConfigError, match="train.mode"):
        from_dict({"train": {"mode": "ppo"}})


def test_env_constraints_surface():
    with pytest.raises(ConfigError, match="at least 6"):
        from_dict({"env": {"width": 4, "max_side": 3}})


def test_overrides_dotted_paths():
    data = apply_overrides({}, ["bto.beta=0.5", "train.mode=grto", "seed=9"])
    rc = from_dict(data)
    assert rc.bto.beta == 0.5
    assert rc.train.mode == "grto"
    assert rc.seed == 9


def test_overrides_bad_syntax():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])


def test_config_hashes_track_relevant_sections():
    a = from_dict({})
    b = from_dict({"train": {"epochs": 3}})
    c = from_dict({"env": {"colors": 3}})
    assert compat_hash(a) == compat_hash(b)  # training length is not a compatibility concern
    assert compat_hash(a) != compat_hash(c)


def random_params():
    gen = rng.stream(0, "ckpt")
    return NamedParams({
        "policy/w": gen.normal(size=(3, 4)),
        "policy/b": gen.normal(size=4),
        "tool/scalar": np.array(1.5),
        "tool/deep": gen.normal(size=(2, 2, 2)),
    })


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"mode": "grpo", "epoch": 3, "seed": 0, "compat_hash": "abc"}, params)
    loaded = load_checkpoint(path)
    assert loaded.params == params
    assert loaded.metadata["epoch"] == 3
    assert loaded.metadata["tensor_count"] == len(params)


def test_checkpoint_flipped_magic_rejected(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, params)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[0] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, params)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-16])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage_rejected(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, params)
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_compat_hash_verified(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"compat_hash": "aaa"}, params)
    load_checkpoint(path, expected_compat_hash="aaa")
    with pytest.raises(CheckpointFormatError, match="hash mismatch"):
        load_checkpoint(path, expected_compat_hash="bbb")


def test_checkpoint_atomic_write_leaves_no_temp(tmp_path):
    params = random_params()
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {}, params)
    assert not (tmp_path / "x.ckpt.tmp").exists()


def test_split_and_merge_params():
    params = random_params()
    policy = split_params(params, "policy/")
    tool = split_params(params, "tool/")
    assert set(policy.names()) == {"policy/w", "policy/b"}
    assert merge_params(policy, tool) == params


def test_params_digest_content_sensitive():
    params = random_params()
    other = params.copy()
    assert params_digest(params) == params_digest(other)
    other["policy/w"][0, 0] += 1e-9
    assert params_digest(params) != params_digest(other)

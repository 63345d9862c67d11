"""Seeded fuzzing of the input loaders with stdlib `random`.

Every mutated input either loads into finite values or raises the
loader's documented error; any other exception fails the test and names
the input that caused it.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import yaml

import tumordyn.config
from conftest import SAMPLE_CSV
from tumordyn.config import load_config
from tumordyn.dataio import SubjectNotFoundError, load_series
from tumordyn.models import GompertzModel, TrainConfig, init_model, load_model, model_theta, save_model
from tumordyn.neuralnet import params_from_blob, params_to_blob
from tumordyn.odeint import GompertzParams

TOKENS = [b"", b"0", b"-1", b"2.5", b"nan", b"inf", b"-inf", b"1e999", b"true", b"null", b"[]", b"{}",
          b",", b":", b"\n", b"#", b'"', b"0x1p+1024", b"abc", b"9" * 40, b"\xff"]
VALUES = [None, True, -1, 0, 2.5, 10**12, "x", "inf", "nan", "0x1p+1024", "-0x1p+0", [], {}, [1, "a"], float("nan")]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """1-3 random edits: a span replaced by a token, deleted or doubled, or one byte changed."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(0, 8))
        op = rng.randrange(4)
        if op == 0:
            data = data[:i] + rng.choice(TOKENS) + data[j:]
        elif op == 1:
            data = data[:i] + data[j:]
        elif op == 2:
            data = data[:i] + data[i:j] * 2 + data[j:]
        else:
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1 :]
    return data


def mutate_tree(tree, rng: random.Random):
    """A copy of a JSON tree with one node replaced, deleted or descended into."""
    if isinstance(tree, (dict, list)) and tree and rng.random() < 0.7:
        tree = dict(tree) if isinstance(tree, dict) else list(tree)
        key = rng.choice(list(tree)) if isinstance(tree, dict) else rng.randrange(len(tree))
        op = rng.randrange(3)
        if op == 0:
            del tree[key]
        elif op == 1:
            tree[key] = rng.choice(VALUES)
        else:
            tree[key] = mutate_tree(tree[key], rng)
        return tree
    return rng.choice(VALUES)


def fuzz(loader, base: bytes, path: Path, allowed, check, n: int, seed: int) -> int:
    """Run `loader(path)` on n mutations of `base`; returns how many loaded."""
    rng = random.Random(seed)
    loaded = 0
    for _ in range(n):
        data = mutate(base, rng)
        path.write_bytes(data)
        try:
            result = loader(path)
        except allowed:
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__}: {exc} on input {data!r}") from exc
        assert check(result), f"non-finite value loaded from {data!r}"
        loaded += 1
    return loaded


def all_finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def test_load_series(tmp_path):
    def check(series):
        return np.all(np.isfinite(series.times)) and np.all(np.isfinite(series.volumes))

    allowed = (ValueError, SubjectNotFoundError)  # CsvFormatError is a ValueError
    loaded = fuzz(lambda p: load_series(p, 1), SAMPLE_CSV.encode(), tmp_path / "v.csv", allowed, check, 600, 1)
    assert loaded > 50


@pytest.mark.parametrize(
    "loader",
    [
        pytest.param(yaml.SafeLoader, id="SafeLoader"),
        pytest.param(
            getattr(yaml, "CSafeLoader", None),
            id="CSafeLoader",
            marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"),
        ),
    ],
)
def test_load_config(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(tumordyn.config, "_LOADER", loader)

    def check(cfg):
        floats = [cfg.gompertz_a, cfg.gompertz_K, cfg.basis_K_default, *cfg.fractions]
        floats += [lr for lr, _ in cfg.node_schedule + cfg.ude_schedule]
        floats += list(cfg.basis_K_by_subject.values())
        return all_finite(*floats) and (cfg.recover_lambda is None or math.isfinite(cfg.recover_lambda))

    base = (Path(__file__).resolve().parent.parent / "configs" / "default.yaml").read_bytes()
    loaded = fuzz(load_config, base, tmp_path / "c.yaml", ValueError, check, 300, 2)
    assert loaded > 30


def check_model(model) -> bool:
    if isinstance(model, GompertzModel):
        return all_finite(model.params.a, model.params.K)
    return bool(np.all(np.isfinite(model_theta(model))))


@pytest.mark.parametrize("variant", ["neural_ode", "ude", "gompertz"])
def test_load_model(tmp_path, variant):
    path = tmp_path / "m.json"
    if variant == "gompertz":
        model = GompertzModel(GompertzParams(0.3, 1200.0))
    else:
        model = init_model(variant, TrainConfig(schedule=((0.01, 1),), hidden=(2,)))
    save_model(model, path, seed=3)
    base = path.read_bytes()
    loaded = fuzz(load_model, base, path, ValueError, check_model, 300, 3)
    assert loaded > 10

    blob = json.loads(base)
    rng = random.Random(4)
    for _ in range(300):
        mutated = mutate_tree(blob, rng)
        path.write_text(json.dumps(mutated))
        try:
            result = load_model(path)
        except ValueError:
            continue
        assert check_model(result), mutated


def test_params_from_blob():
    blob = params_to_blob(init_model("neural_ode", TrainConfig(schedule=((0.01, 1),), hidden=(3,))).mlp)
    rng = random.Random(5)
    loaded = 0
    for _ in range(500):
        mutated = mutate_tree(blob, rng)
        try:
            params = params_from_blob(mutated)
        except ValueError:
            continue
        assert np.all(np.isfinite(params.theta)), mutated
        loaded += 1
    assert loaded > 5

"""The vectorized grid text equals Python's own repr, the text of JSON cells."""

from __future__ import annotations

import warnings
from decimal import Decimal

import numpy as np
import pytest

from xkraus import _floattext, cli
from xkraus.channels import CHANNEL_KINDS


def _check(values: np.ndarray) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _floattext.texts(values)
    floats = values.tolist()
    assert len(got) == len(floats)
    wrong = [(v, g) for v, g in zip(floats, got) if g != repr(v).encode()]
    assert not wrong, wrong[:5]


def _powers_and_neighbours() -> np.ndarray:
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _ties(rng: np.random.Generator) -> np.ndarray:
    # values halfway between two 12-digit decimals, n + 0.5 of both
    # parities, and dyadic values with 13 significant digits ending in 5,
    # such as 2**-18 = 3.814697265625e-06
    halves = rng.integers(10**11, 10**12, 20000) + 0.5
    dyadic = [m * 2.0**-j for j in range(1, 80) for m in range(1, 200, 2)]
    dyadic = [x for x in dyadic if len(Decimal(x).as_tuple().digits) == 13]
    return np.concatenate([[123456789012.5, 123456789013.5], halves, dyadic, -halves])


def _short_decimals(rng: np.random.Generator) -> np.ndarray:
    pairs = zip(rng.integers(1, 1000, 20000).tolist(), rng.integers(-12, 18, 20000).tolist())
    drawn = [float(f"{d}e{e}") for d, e in pairs]
    return np.array([0.25, 1e-05, 0.1, 0.3, 100.0, 1e-4, 1e15, 1e16, 1e22, 5e-324, *drawn])


def _special() -> np.ndarray:
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])


def _bands(rng: np.random.Generator) -> np.ndarray:
    # the edges of orjson's layout bands, a few ulps either side, powers
    # of ten and their neighbours, and log-uniform draws over the bands
    # that orjson lays out differently from repr
    edges = np.array([1e-9, 1e-5, 1e-4, 1e16])
    steps = [edges]
    for _ in range(4):
        steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], np.inf)]
    powers = np.array([float(f"1e{k}") for k in range(-12, 21)])
    drawn = 10.0 ** rng.uniform(-12, -3, 200000)
    values = np.concatenate([*steps, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), drawn])
    return np.concatenate([values, -values])


def test_texts_equal_python_on_every_bit_pattern():
    # a million doubles drawn over all finite bit patterns, subnormals included
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, 10**6, dtype=np.int64)
    _check(bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.size))


@pytest.mark.parametrize("kind", ["uniform", "powers", "ties", "short", "special", "bands", "empty", "one"])
def test_texts_equal_python_on_hard_cases(kind):
    rng = np.random.default_rng(7)
    values = {
        "uniform": lambda: rng.random(100000),
        "powers": _powers_and_neighbours,
        "ties": lambda: _ties(rng),
        "short": lambda: _short_decimals(rng),
        "special": _special,
        "bands": lambda: _bands(rng),
        "empty": lambda: np.zeros(0),
        "one": lambda: np.array([1.5e-05]),
    }[kind]()
    _check(values)


def _sweep_cells(monkeypatch, path, channel: str) -> np.ndarray:
    """Every cell of the default sweep that reached the formatter."""
    seen = []
    texts = _floattext.texts

    def spy(x):
        seen.append(x.copy())
        return texts(x)

    monkeypatch.setattr(_floattext, "texts", spy)
    assert cli.main(["sweep", "--channel", channel, "--format", "json", "--out", str(path)]) == 0
    return np.concatenate(seen)


@pytest.mark.parametrize("channel", CHANNEL_KINDS)
def test_default_sweep_cells_are_exact(monkeypatch, tmp_path, channel):
    _check(_sweep_cells(monkeypatch, tmp_path / "grid.out", channel))

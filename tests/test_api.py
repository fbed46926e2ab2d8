from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import xkraus

MODULES = ["xkraus"] + [f"xkraus.{info.name}" for info in pkgutil.iter_modules(xkraus.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # bench/tracer.py looks up every name in each module's __all__, so a
    # stale entry breaks tracing as well as star imports
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_each_name_once():
    # xkraus.__all__ joins its modules' lists; a name in two of them would be
    # shadowed silently by the later star import
    assert len(xkraus.__all__) == len(set(xkraus.__all__))


def test_importing_the_package_loads_neither_the_cli_nor_orjson():
    # orjson renders JSON grid cells only; the library, and the import that
    # the benchmark's setup_s times, never loads it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xkraus.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, xkraus; print(sorted({'orjson', 'xkraus.cli'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

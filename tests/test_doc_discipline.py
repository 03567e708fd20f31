"""Meta-test: every public item carries a docstring.

Release-quality discipline: modules, public classes, and public functions
across the library must be documented.  This test walks the package and
fails on any undocumented public surface.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import repro


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    undocumented = [m.__name__ for m in _iter_modules()
                    if not (m.__doc__ or "").strip()]
    assert not undocumented, undocumented


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in _iter_modules():
        for name, obj in _public_members(module):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_public_methods_documented():
    undocumented = []
    for module in _iter_modules():
        for name, obj in _public_members(module):
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and \
                        attr.__name__ == "<lambda>":
                    continue  # dataclass field defaults
                if inspect.isfunction(attr) and \
                        not (attr.__doc__ or "").strip():
                    undocumented.append(
                        f"{module.__name__}.{name}.{attr_name}")
    assert not undocumented, undocumented


@functools.lru_cache(maxsize=None)
def _registered_counters() -> tuple[str, ...]:
    """Every counter the library registers, read in a fresh interpreter
    that imports every module (tests register ad-hoc counters of their
    own)."""
    probe = (
        "import importlib, pkgutil, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(m.name)\n"
        "from repro.obs.metrics import REGISTRY\n"
        "print('\\n'.join(REGISTRY.counters()))\n")
    return tuple(subprocess.run([sys.executable, "-c", probe], check=True,
                                capture_output=True, text=True).stdout.split())


def _observability_doc() -> str:
    return (pathlib.Path(__file__).resolve().parents[1] / "docs"
            / "observability.md").read_text()


def test_every_counter_is_in_the_observability_doc():
    """docs/observability.md names every counter the library registers.

    Names the code builds at run time are covered by a documented
    ``prefix.<placeholder>`` pattern.
    """
    names = _registered_counters()
    assert "dispatch.fallback.capture" in names
    doc = _observability_doc()
    documented = set(re.findall(r"`([a-z0-9_.]+)`", doc))
    patterns = [re.compile(re.escape(prefix) + r"[A-Za-z0-9_]+$")
                for prefix in re.findall(r"`([a-z0-9_.]+\.)<[a-z]+>`", doc)]
    missing = [name for name in names if name not in documented
               and not any(p.match(name) for p in patterns)]
    assert not missing, missing


def test_every_documented_counter_is_registered():
    """Every counter a row of the observability doc's counter catalog
    names (its first column) is one the library registers, so a row for
    a deleted counter cannot linger."""
    doc = _observability_doc()
    section = doc.split("## Counter catalog", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines()
            if line.startswith("| `")]
    assert len(rows) > 30
    named = [name for row in rows
             for name in re.findall(r"`([a-z0-9_.]+)`",
                                    row.split("|")[1])]
    registered = set(_registered_counters())
    stale = [name for name in named if name not in registered]
    assert not stale, stale

"""The package's public names resolve on first access (PEP 562)."""
import subprocess
import sys
from pathlib import Path

import pytest

import ordpoly


def test_every_public_name_resolves():
    for name in ordpoly.__all__:
        assert getattr(ordpoly, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ordpoly import *", namespace)
    assert set(ordpoly.__all__) <= set(namespace)
    assert namespace["ConstraintSet"] is ordpoly.model.ConstraintSet


def test_dir_lists_the_public_names():
    assert set(ordpoly.__all__) <= set(dir(ordpoly))


def test_submodules_stay_reachable():
    from ordpoly import sampler

    assert ordpoly.fileio.load is not None
    assert sampler.SamplerConfig is ordpoly.SamplerConfig


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordpoly.no_such_name
    assert not hasattr(ordpoly, "no_such_name")


def test_fresh_process_resolves_names_lazily():
    # a name loads its own submodule and no other engine
    probe = (
        "import sys, ordpoly; ordpoly.ConstraintSet; ordpoly.fileio; "
        "print(sorted(m for m in sys.modules if m.startswith('ordpoly.')), 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=Path(ordpoly.__file__).parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "['ordpoly.errors', 'ordpoly.fileio', 'ordpoly.model', 'ordpoly.poly'] False"
    )

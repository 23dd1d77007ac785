"""The package's exports resolve at their first use.

``repro/__init__.py`` imports none of the names it exports up front:
a module ``__getattr__`` imports each from its module when it is first
asked for.  So a process that imports one subpackage loads only what
that subpackage needs.  The machine-state worker, a fresh interpreter
that imports ``repro.machine.worker``, is the case that counts: it runs
the PA8000 model's tape loop and must not load the front end, HLO, the
linker, the scalar optimizer or profiles.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TOOLCHAIN = ("repro.frontend", "repro.core", "repro.linker", "repro.opt", "repro.profile")


def _python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_worker_imports_no_toolchain_module():
    loaded = _python(
        "import sys\n"
        "import repro.machine.worker\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    ).split()
    assert "repro.machine.worker" in loaded
    assert [m for m in loaded if m.startswith(TOOLCHAIN)] == []


def test_from_repro_import_works_for_every_exported_name():
    names = ", ".join(repro.__all__)
    assert _python("from repro import {}\nprint('ok')".format(names)).strip() == "ok"


@pytest.mark.parametrize("name", [n for n in repro.__all__ if n != "__version__"])
def test_an_exported_name_is_its_modules_own(name):
    module = importlib.import_module("repro." + repro._EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        getattr(repro, "no_such_name")

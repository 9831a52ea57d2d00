"""The import contract: `import torsionbounds` loads no submodule, each CLI
subcommand loads only the engine it runs, and the lazily loaded package
root exposes the same names and errors as its submodules.

The fresh-interpreter cases import `torsionbounds` from wherever this test
process imported it (`src/`, or the installed package)."""
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import torsionbounds
from torsionbounds import TorsionBoundsError

ROOT = Path(torsionbounds.__file__).resolve().parents[1]
ENGINES = ("arith", "bounds", "exactvalue", "lattice", "modmatrix", "records", "verify")

# prints the torsionbounds submodules loaded after running the given code;
# it checks by `if`, as the probe may run under -O
PROBE = """
import contextlib, io, json, sys
import torsionbounds
if torsionbounds.__file__ != {file!r}:
    sys.exit(f"imported {{torsionbounds.__file__}}")
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("torsionbounds."))))
"""

CLI = """
from torsionbounds.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
"""


def _loaded(body: str) -> set[str]:
    code = PROBE.format(file=torsionbounds.__file__, body=body)
    # the same -O level as this process, so CI checks the contract stripped
    flags = ["-O"] * sys.flags.optimize
    run = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT)})
    assert run.returncode == 0, run.stderr
    return {name.removeprefix("torsionbounds.") for name in json.loads(run.stdout)}


def test_import_loads_no_submodule():
    assert _loaded("") == set()


def test_a_submodule_loads_on_first_attribute_use():
    body = ("if torsionbounds.lattice is not sys.modules['torsionbounds.lattice']:\n"
            "    sys.exit('not the submodule')")
    assert _loaded(body) == {"exactvalue", "lattice", "modmatrix"}


@pytest.mark.parametrize("argv", [
    ["candidates", "--index", "6"],
    ["b-epsilon", "--epsilon", "1/2"],
    ["baselines", "--degree", "9"],
    ["b1-index", "--n", "12"],
])
def test_sieve_and_constant_subcommands_load_no_group_engine(argv):
    loaded = _loaded(CLI.format(argv=argv))
    assert "cli" in loaded
    assert not loaded & {"lattice", "modmatrix", "records", "verify"}


def test_lattice_check_loads_no_bound_engine():
    loaded = _loaded(CLI.format(argv=["lattice-check"]))
    assert "lattice" in loaded
    assert not loaded & {"bounds", "records", "verify"}


def test_every_public_name_is_its_submodules_object():
    for name in torsionbounds.__all__:
        if name == "TorsionBoundsError":
            continue
        value = getattr(torsionbounds, name)
        assert name in vars(torsionbounds), f"{name} not kept after first use"
        homes = [m for m in ENGINES
                 if getattr(importlib.import_module(f"torsionbounds.{m}"), name, None)
                 is value]
        assert homes, name
        defined_in = getattr(value, "__module__", None)
        if defined_in is not None:
            assert defined_in.startswith("torsionbounds."), name
            assert defined_in.removeprefix("torsionbounds.") in homes, name


def test_star_import_and_dir_list_all():
    namespace = {}
    exec("from torsionbounds import *", namespace)
    assert set(torsionbounds.__all__) <= set(namespace)
    assert set(torsionbounds.__all__) <= set(dir(torsionbounds))
    assert len(set(torsionbounds.__all__)) == len(torsionbounds.__all__)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        getattr(types.ModuleType("torsionbounds"), "no_such_name")
    with pytest.raises(AttributeError) as lazy:
        getattr(torsionbounds, "no_such_name")
    assert str(lazy.value) == str(plain.value)


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


@pytest.mark.parametrize("name", ["ArithError", "BoundsError", "LatticeError",
                                  "ModMatrixError", "RecordParseError"])
def test_engine_errors_are_torsionbounds_errors(name):
    for error in _subclasses(getattr(torsionbounds, name)):
        assert issubclass(error, TorsionBoundsError)
        assert issubclass(error, ValueError)

"""The README's library examples run against the current API, and its scenario reference matches the code."""

import importlib
import json
import pkgutil
import re
import types
from pathlib import Path

import pytest

import luccsim
from luccsim.cli import main
from luccsim.climate import REGIME_NAMES
from luccsim.config import _PRESETS, _SETTINGS

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]


def _library_use_blocks():
    return re.findall(r"^```python\n(.*?)^```", _section("## Library use"), re.DOTALL | re.MULTILINE)


def test_library_use_examples_run(capsys):
    blocks = _library_use_blocks()
    assert len(blocks) >= 2 and "run_simulation(config)" in blocks[0]
    assert any("plan(" in block and "CheckedRun" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the landscape example's comment states what it prints
    assert "False (0.0, 100.0, 0.0)\n" in capsys.readouterr().out


def _defined_names():
    """The public names that luccsim's modules define (not those they import from elsewhere)."""
    names = set()
    for info in pkgutil.iter_modules(luccsim.__path__):
        module = importlib.import_module(f"luccsim.{info.name}")
        names |= {name for name, obj in vars(module).items() if not name.startswith("_")
                  and getattr(obj, "__module__", "").startswith("luccsim")}
    return names


def test_the_package_exports_exactly_the_names_library_use_documents():
    # a documented name is one that luccsim defines, written in code or between
    # backticks, and not after a dot: `luccsim.engine.AgentRows` is reached
    # through its module
    blocks = _library_use_blocks()
    prose = re.sub(r"^```python\n.*?^```", "", _section("## Library use"), flags=re.DOTALL | re.MULTILINE)
    code = " ".join(blocks + re.findall(r"`([^`\n]+)`", prose))
    documented = set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", code)) & _defined_names()
    assert documented == set(luccsim.__all__)
    exported = {name for name, obj in vars(luccsim).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == set(luccsim.__all__)


def test_key_reference_lists_exactly_the_keys_a_scenario_file_takes():
    rows = re.findall(r"^\| (`.*?) \|", _section("### Scenario files"), re.MULTILINE)
    listed = [key for row in rows for key in re.findall(r"`(\w+)`", row)]
    assert len(listed) == len(set(listed))
    assert set(listed) == {"preset", *_SETTINGS}


def test_presets_are_shown_as_their_settings():
    pairs = re.findall(r"^- `([\w-]+)`.*?```json\n(.*?)^ *```", _section("### Scenario presets"),
                       re.DOTALL | re.MULTILINE)
    shown = {name: json.loads(block) for name, block in pairs}
    assert shown == _PRESETS
    for name, settings in shown.items():
        assert list(settings) == list(_PRESETS[name])


def test_climate_help_and_key_reference_name_the_regimes_climate_py_parses(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse would wrap the help at a hyphen
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = re.search(r"--climate CLIMATE\s+override the weather regime \((.*?)\)",
                          capsys.readouterr().out).group(1)
    row = re.search(r"^\| `climate` \|(.*)$", _section("### Scenario files"), re.MULTILINE).group(1)
    assert help_text.split(", ") == re.findall(r'`"([\w-]+)"`', row) == list(REGIME_NAMES)

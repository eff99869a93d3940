"""Golden SHA-256 digests of every file the CLI writes.

Each scenario runs through `luccsim.cli.main` in-process and every output
file is hashed. `summary.json` carries full float precision, so a change
in the last bit of a mean or of a per-agent distribution changes its
digest; the CSV files pin the six-decimal contract and the row layout.

The digests were recorded from the per-agent loop engine of commit
16e3294. To print the digests of whatever luccsim is on PYTHONPATH:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from luccsim.cli import main

_HISTORY = ["A", "F", "VU", "U", "VF", "A", "U", "F", "VF", "VU", "A", "F"]
# Quiet stretches between weather changes: most cycles repeat most agents'
# allocations, profits and renewabilities, and each change of level moves
# every profit.
_STRETCHES = ["A"] * 6 + ["F", "U", "F"] + ["U"] * 5 + ["VU", "VF"] + ["A"] * 4

# name -> (command, scenario overrides on the longterm preset, extra CLI args);
# a "split_yield_files" of None stands for the files `_write_split_yields` writes
SCENARIOS = {
    "vu-owners0-6x9": ("run", {"grid_rows": 6, "grid_cols": 9, "owner_share_pct": 0.0,
                               "climate": {"constant": "VU"}}, []),
    "u-owners50": ("run", {"grid_rows": 7, "grid_cols": 5, "owner_share_pct": 50.0,
                           "climate": "constant-unfavorable"}, []),
    "a-owners100": ("run", {"grid_rows": 6, "grid_cols": 6, "owner_share_pct": 100.0,
                            "climate": "constant-average"}, []),
    "f-quiet": ("run", {"grid_rows": 5, "grid_cols": 8, "owner_share_pct": 30.0,
                        "initial_al_factor": 0.0, "climate": "constant-favorable"}, []),
    "vf": ("run", {"grid_rows": 5, "grid_cols": 5, "climate": {"constant": "VF"}}, []),
    "seesaw": ("run", {"grid_rows": 6, "grid_cols": 7, "owner_share_pct": 10.0,
                       "climate": "seesaw"}, []),
    "random": ("run", {"grid_rows": 8, "grid_cols": 8, "seed": 5, "owner_share_pct": 10.0,
                       "climate": "random"}, []),
    "sequence": ("run", {"grid_rows": 6, "grid_cols": 6, "seed": 3,
                         "climate": {"sequence": _HISTORY}}, []),
    "mix": ("run", {"grid_rows": 6, "grid_cols": 6, "seed": 4,
                    "climate": {"mix": {"fixed": "VF", "historical": _HISTORY}}}, []),
    "split-pricing": ("run", {"grid_rows": 6, "grid_cols": 6, "seed": 6,
                              "climate": "random", "split_yield_files": None}, []),
    "row-1x9": ("run", {"grid_rows": 1, "grid_cols": 9, "seed": 7, "owner_share_pct": 20.0,
                        "climate": "random"}, []),
    "single-1x1": ("run", {"grid_rows": 1, "grid_cols": 1, "seed": 8, "owner_share_pct": 0.0,
                           "climate": "seesaw"}, []),
    "sweep-soy-price": ("sweep", {"grid_rows": 5, "grid_cols": 5, "climate": "seesaw"},
                        ["--axis", "soy-price", "--values", "200,346.4"]),
    "sweep-owner-share": ("sweep", {"grid_rows": 5, "grid_cols": 6, "climate": "random"},
                          ["--axis", "owner-share", "--values", "10,90"]),
    "sweep-wgc-mix": ("sweep", {"grid_rows": 4, "grid_cols": 6,
                                "climate": {"sequence": _HISTORY}},
                      ["--axis", "wgc-mix", "--values", "VU,VF"]),
    # 1600 agents: more than one agents.csv block, at a scale the others miss.
    # Recorded at commit 4489926, before agents.csv kept texts between cycles.
    "stretches-40x40": ("run", {"grid_rows": 40, "grid_cols": 40, "seed": 11, "cycles": 20,
                                "owner_share_pct": 30.0, "climate": {"sequence": _STRETCHES}},
                        []),
}

GOLDEN = {
    "a-owners100": {
        "agents.csv": "32d794688ed82f6c7ac003dc18888825b2b648577c9b8234c302b3a67ffc15ce",
        "cycles.csv": "ce230653eae1869316501db867222bd2d88d4b00b0355eb7e37b08ecba4f7f0a",
        "summary.json": "c2c62451842b70c56203d4bc2f8e8ad2dde883f54cef719c2fafeb1b7b6a0285"
    },
    "f-quiet": {
        "agents.csv": "5423788c04bca6ef2287d40267ed104ccb0be1854b5ce9f3ef7dd4ecfda591a5",
        "cycles.csv": "cb066a3d3cc6701eb38aa3af63d09e92d0344c568067153d6dc5a17cd3b4b284",
        "summary.json": "851cdfd00eaf12bd089a8c2d7d5137361e6bc5f073460a23ebb5f6316508ef99"
    },
    "mix": {
        "agents.csv": "6bd7378fb036143fca01f24dfe8f3af1464ca9dbde317e8904e9c6af2484dc78",
        "cycles.csv": "22741d3ae9be9a219feefca3c759a90ca51a4cd3dd5dc7fe93c3c0f542683447",
        "summary.json": "8fed58739a94f8cbd0e15ed946b4a54fed2c1e87ede6cc9c0f313bebd0edbf7d"
    },
    "random": {
        "agents.csv": "79bc33123eb40896ae1099cbe1cfabb6520a97159894711052466e8e84b441c5",
        "cycles.csv": "5ca2704402b15a7785e359df5f3a74335c566a832f17a1cc216c1915bbe5b89f",
        "summary.json": "58f02bb7e5e16b424f8cd475d571b5c985fc56609b1d41f67c58af1a9b20ab0e"
    },
    "row-1x9": {
        "agents.csv": "8651eec9e01cdcec51d64beb01772b2fe907c00fad6a48b5a8b9c0fb676b4987",
        "cycles.csv": "9db33951aaeb6cc380afe47f763debf974371da42d6240bfd1d78025a7899a0c",
        "summary.json": "b47bc1f2eb2225fa0aeb7d552eb64a43ac9c4198d46c419da53220e7fb6af38c"
    },
    "seesaw": {
        "agents.csv": "0c2d1bb02e6dd0414066c39abb29fe140bf4f6501b2fa79bc634b55715d42697",
        "cycles.csv": "300d29c72a282735a1b5ddfe4bc6c3565f64a080046f6c42a7d21bd4044b7b41",
        "summary.json": "d803d7ed9d8eb0e574cf5141e54efcb77e2458315db7a81335514e628d710cc8"
    },
    "sequence": {
        "agents.csv": "30996269ebafb46de1bf034dee4b4857487bb00819b03b72ad06c6ba60b49f58",
        "cycles.csv": "acfdfd3abbaf70186821c673e4f254814ef2787a5873e5627e4a7d41bbd1513e",
        "summary.json": "89f024e9879d38a68be464e5c10672d7d2653cd20bf6818cfeda89e718475d93"
    },
    "single-1x1": {
        "agents.csv": "70e6715c611934a70e522cebd8e9ad2b53efd40f04594ee52aa8e0830fdd49bb",
        "cycles.csv": "9e937d026f815ccfad3e3e2708299e209b0acffe687e9d50fa43148cf0e6cc69",
        "summary.json": "542e4e54d81c1088639605146fdb3a06472da48ba81e832653627f5f17e24d0c"
    },
    "split-pricing": {
        "agents.csv": "26766b6ad4db9f323ff808e062644f45bcaea6881733677605915a3a88b40e82",
        "cycles.csv": "96b64c840ac36abea9aedb107a95e9fa65396e28b028ed12f5d778b47071933b",
        "summary.json": "8f091392b5817d76a203ddc1190c4a664ba06dee89e9ae44878634c70a81f61f"
    },
    "stretches-40x40": {
        "agents.csv": "5c82e2ef69d4b503ebdd444740c2e38e5c97b74cf22e69a5ee0c6392ad0683ff",
        "cycles.csv": "f453daf25541dcc50677151a1a5784b033d52d3ce54bafa4334ae7a081a06439",
        "summary.json": "b650e0a1592068e6da13a721c846a703517ab3fd36d783a1d78f4ec9cf9e5302"
    },
    "sweep-owner-share": {
        "sweep.csv": "69d92342e622383ebd63cc17eb66e53d9c0f1b67ab2bb70fab4cc66b34dbcba0"
    },
    "sweep-soy-price": {
        "sweep.csv": "66b01ecf85c08d56380b1d635c7f9ff67c44229edee2932007b6184ddf480ccd"
    },
    "sweep-wgc-mix": {
        "sweep.csv": "f76c990ea8babf79d7b56a01dfa3a57c1bd74f668c1b101529277b0c368a2874"
    },
    "u-owners50": {
        "agents.csv": "77efeef1d3e17c9f5469c76d935136c94a767ba40eec71c5b32ae1c25165fa91",
        "cycles.csv": "e8843b427eadf23ea026d9da571392e44ec3cdef3fc110deb9ba17acd7c8175d",
        "summary.json": "3a10ff541c3f7fe71a908a69440bff86e7cbee4bb28eb4b2cf277d8d1d3b4652"
    },
    "vf": {
        "agents.csv": "926f16992655f5d10e1ab548670775b25bd8e0aabf34cc6770a8dbdbbbe733cf",
        "cycles.csv": "b7a98f2beac4a3c47dcf86bfde4f97ba940c020d839a1b5145b6051845c53b4f",
        "summary.json": "87fb92c4a4b76ee3ed3c9b558ff1065fdd3cc458f68ea37f907f031ba9eab3de"
    },
    "vu-owners0-6x9": {
        "agents.csv": "06efdb9d7e8a898dafaf957ae050208d493038b30ff52cea181519a46c7de769",
        "cycles.csv": "c8fc693758fc557e502dbbd8d787837ea98c79b4e0c42b209fa16763f81657ce",
        "summary.json": "77a159178c6294e504dd9d6609f066b15c066d32757175451300eb5c0b4a7ebd"
    }
}


def _write_split_yields(directory: Path) -> dict:
    files = {}
    for name, base in (("wheat", 2.0), ("soy2", 1.4)):
        lines = ["tl,wgc,value"]
        for t, tl in enumerate(("L", "A", "H")):
            for w, wgc in enumerate(("VU", "U", "A", "F", "VF")):
                lines.append(f"{tl},{wgc},{base + 0.35 * t + 0.2 * (w - 2):.2f}")
        path = directory / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        files[name] = str(path)
    return files


def digests(name: str, directory: Path) -> dict:
    """Run one scenario into `directory` and hash every file it writes."""
    command, overrides, extra = SCENARIOS[name]
    scenario = {"preset": "longterm", "cycles": 12, **overrides}
    if "split_yield_files" in scenario:
        scenario["split_yield_files"] = _write_split_yields(directory)
    config = directory / "scenario.json"
    config.write_text(json.dumps(scenario))
    out = directory / "out"
    out.mkdir()
    args = [command, "--config", str(config), "--out-dir", str(out), *extra]
    if command == "run":
        args.append("--emit-agents")
    assert main(args) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


def test_every_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


def test_a_distribution_mean_in_the_summary_is_numpys_pairwise_mean(tmp_path):
    # README's Determinism section: the distribution summaries' mean and cv are
    # np.mean and np.std, not left-to-right sums (which give ...364 here)
    assert main(["run", "--preset", "longterm", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["per_agent_mean_profit"]["mean"] == 232.6186286424363


if __name__ == "__main__":
    table = {}
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
            table[scenario] = digests(scenario, Path(scratch))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    sys.stdout.write("\n")

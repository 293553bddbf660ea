"""The command line, pinned option by option.

``tests/fixtures/cli_flags.json`` pins every argparse action of the
commands that build a spec or run a paper table — option strings, dest,
action, default, type, choices, nargs, metavar, help, required, const —
plus each parser's own defaults.  It pins attributes rather than
rendered ``--help`` text, because argparse formats help differently
across Python versions.  It also pins the spec each CI command line
builds (its fingerprint and its exact ``to_dict`` bytes), which covers
the mapping from flags to spec sections.

The parser is built in a fresh interpreter, so choices read from the
registries are the built-in ones, whatever other tests registered.

Re-record the fixture only for a deliberate change to the command line::

    PYTHONPATH=src python tests/test_cli_flags.py
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "fixtures" / "cli_flags.json"
SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ("run",),
    ("sweep",),
    ("table2",),
    ("table6",),
    ("table7",),
    ("serve",),
    ("query",),
    ("loadgen",),
    ("fleet", "run"),
    ("fleet", "tune"),
]

_SERVE = "serve catdet resnet50 resnet10a --streams 4 --frames 20 --sequences 4 --seq-frames 40 --rate 15"
_FLEET = (
    "fleet run single resnet10a --pattern bursty --streams 4 --rate 8 --frames 50 "
    "--load-seed 11 --devices edge --batch-size 4 --max-wait-ms 20 "
    "--queue-capacity 256 --slo-ms 2000"
)

#: (label, argv) of command lines whose spec is pinned; ``{query}`` is a
#: file holding ``repro query --example``.
SPEC_COMMANDS = [
    ("serve-smoke", f"{_SERVE} --batch-size 8"),
    (
        "serve-tune-titanx",
        "serve catdet resnet50 resnet10a --streams 2 --frames 8 --sequences 2 "
        "--seq-frames 15 --rate 3 --device titanx --tune --slo-p99-ms 300 "
        "--batch-grid 1,4 --wait-grid 0,25",
    ),
    (
        "serve-explicit-rates",
        f"{_SERVE} --overhead-ms 2.5 --gops 800 --shed newest --queue-capacity 16 "
        "--c-thresh 0.2 --seed 3 --rate-per-stream 5,10 --pattern uniform",
    ),
    ("serve-obs", "serve single resnet10a --streams 2 --frames 10 --sequences 2 --seq-frames 20 --sink null"),
    ("fleet-static", f"{_FLEET} --replicas 3 --slo-p99-ms 2000"),
    (
        "fleet-autoscale",
        f"{_FLEET} --slo-p99-ms 2000 --replicas 1 --autoscale --min-replicas 1 "
        "--max-replicas 4 --interval-s 0.5 --cooldown-s 1 --scale-out-wait-share 0.2 "
        "--scale-in-occupancy 0.5",
    ),
    ("fleet-autoscale-slo-ms", f"{_FLEET} --replicas 2 --autoscale --placement round_robin"),
    (
        "fleet-tune",
        "fleet tune single resnet10a --pattern bursty --streams 4 --rate 8 --frames 30 "
        "--load-seed 11 --batch-size 4 --queue-capacity 256 --slo-ms 2000 "
        "--slo-p99-ms 2000 --devices edge,datacenter --replica-grid 1,2",
    ),
    (
        "query-serve",
        "query catdet resnet50 resnet10a --spec {query} --sequences 2 --seq-frames 30 "
        "--streams 4 --frames 30 --no-cache --serve",
    ),
    ("loadgen", "loadgen --streams 4 --frames 20 --sequences 4 --seq-frames 40 --rate 15"),
]


def _action(action: argparse.Action) -> dict:
    help_text = action.help
    if isinstance(action, argparse.BooleanOptionalAction) and help_text:
        # Python < 3.13 appends the default to a BooleanOptionalAction's help.
        help_text = help_text.replace(" (default: %(default)s)", "")
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "metavar": action.metavar,
        "help": help_text,
        "required": action.required,
        "const": action.const,
    }


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def current_flags() -> dict:
    from repro.__main__ import build_parser

    root = build_parser()
    out = {}
    for path in COMMANDS:
        parser = root
        for name in path:
            parser = _subparser(parser, name)
        out[" ".join(path)] = {
            "actions": [
                _action(a)
                for a in parser._actions
                if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
            ],
            "defaults": {k: v for k, v in sorted(parser._defaults.items()) if k != "func"},
        }
    return json.loads(json.dumps(out))


class _Captured(Exception):
    pass


def current_specs(tmp: Path) -> dict:
    """The spec (or load) each of :data:`SPEC_COMMANDS` builds, captured
    where the command hands it to the session, before anything runs."""
    from repro.__main__ import _example_query, main
    from repro.api.session import Session
    from repro.serve import loadgen

    query = tmp / "query.json"
    query.write_text(_example_query().to_json(indent=2), encoding="utf-8")
    captured = []

    def capture(self, spec, *args, **kwargs):
        captured.append(spec)
        raise _Captured

    def capture_load(load, dataset_spec):
        captured.append((load, dataset_spec))
        raise _Captured

    Session.serve = Session.tune_serve = Session.tune_fleet = capture
    Session.dataset = lambda self, spec: spec
    loadgen.generate_load = capture_load
    out = {}
    for label, line in SPEC_COMMANDS:
        captured.clear()
        try:
            main(line.format(query=query).split())
        except _Captured:
            pass
        (spec,) = captured
        if isinstance(spec, tuple):
            load, dataset = spec
            out[label] = {
                "load": json.dumps(load.to_dict()),
                "dataset": json.dumps(dataset.to_dict()),
            }
        else:
            out[label] = {
                "class": type(spec).__name__,
                "fingerprint": spec.fingerprint,
                "to_dict": json.dumps(spec.to_dict()),
            }
    return out


def current_outputs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"commands": current_flags(), "specs": current_specs(Path(tmp))}


def _fresh_outputs() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def outputs():
    return _fresh_outputs()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_every_command_is_pinned(outputs, pinned):
    assert sorted(outputs["commands"]) == sorted(" ".join(p) for p in COMMANDS)
    assert sorted(outputs["specs"]) == sorted(label for label, _ in SPEC_COMMANDS)
    assert sorted(pinned["commands"]) == sorted(outputs["commands"])


@pytest.mark.parametrize("command", [" ".join(p) for p in COMMANDS])
def test_actions_are_pinned(outputs, pinned, command):
    got, want = outputs["commands"][command], pinned["commands"][command]
    assert [a["option_strings"] or [a["dest"]] for a in got["actions"]] == [
        a["option_strings"] or [a["dest"]] for a in want["actions"]
    ]
    for action, expected in zip(got["actions"], want["actions"]):
        assert action == expected
    assert got["defaults"] == want["defaults"]


@pytest.mark.parametrize("label", [label for label, _ in SPEC_COMMANDS])
def test_command_line_specs_are_pinned(outputs, pinned, label):
    assert outputs["specs"][label] == pinned["specs"][label]


if __name__ == "__main__":
    recorded = current_outputs()
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(recorded))
    else:
        FIXTURE.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}", file=sys.stderr)

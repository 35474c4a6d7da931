"""README examples stay in step with the code: its experiment config loads,
every `cograph` command line in its sh blocks parses, its dataset
commands run in order and write the files README names, and its Library
example runs."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from cograph.cli import build_parser, main
from cograph.experiment import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def _cli_lines() -> list[str]:
    lines = []
    for block in _blocks("sh"):
        joined = block.replace("\\\n", " ")  # join the continued lines
        lines += [line.strip() for line in joined.splitlines()]
    return [line for line in lines if line.startswith("cograph ")]


CLI_LINES = _cli_lines()


def test_readme_has_its_examples():
    assert len(_blocks("json")) == 1
    assert len(CLI_LINES) >= 6


def test_readme_config_loads():
    (block,) = _blocks("json")
    config = ExperimentConfig.from_dict(json.loads(block))
    assert config.seeds and config.attacks


def test_readme_library_block_runs(capsys):
    (block,) = [b for b in _blocks("python") if "from cograph" in b]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one "iteration S_size acc_ensemble" line per history record, from 0 up
    assert lines and [int(line.split()[0]) for line in lines] == list(range(len(lines)))


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {s for action in parser._actions for s in action.option_strings}


@pytest.mark.parametrize("line", CLI_LINES, ids=[f"line{i}" for i in range(len(CLI_LINES))])
def test_readme_cli_line_parses(line):
    argv = shlex.split(line)[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse accepts a prefix of a longer flag, so also require each flag as written
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = _option_strings(parser) | _option_strings(subparsers.choices[args.command])
    assert {arg for arg in argv if arg.startswith("--")} <= known


# README's dataset commands in its order, each with the files it promises
CHAIN = {
    "gen-synthetic": ["demo/edges.tsv", "demo/features.csv", "demo/labels.csv", "demo/meta.json"],
    "train": [],
    "attack": ["demo-dice/edges.tsv", "demo-dice/perturbation.json"],
    "cotrain": [
        "run/history.jsonl",
        "run/metrics.json",
        "run/struct_checkpoint.csv",
        "run/feat_checkpoint.csv",
    ],
    "calibrate": ["cal/reliability.csv"],
}


def test_readme_cli_chain_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line)[1:] for line in CLI_LINES]
    commands = [build_parser().parse_args(argv).command for argv in argvs]
    chain = [(c, argv) for c, argv in zip(commands, argvs) if c in CHAIN]
    assert [c for c, _ in chain] == list(CHAIN)
    for command, argv in chain:
        assert main(argv) == 0, command
        for path in CHAIN[command]:
            assert (tmp_path / path).is_file(), path

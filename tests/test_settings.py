"""The settings table (repro.settings): one resolver for every knob.

For every row: an argument beats the environment, the environment
beats the default, blank text counts as unset, and garbage reaches no
caller — bad environment text raises naming ``$REPRO_X``, a bad
argument raises naming the knob.  ``SAMPLES`` holds the inputs, one
entry per row; a row without samples fails the suite, so a new knob
cannot land untested.  A CLI flag and its variable reject the same
text with the same message, and no module but ``settings.py`` spells
a ``REPRO_*`` name.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser
from repro.settings import KNOBS, format_value, resolve, source

HERE = Path(__file__).resolve()
SRC = HERE.parents[1] / "src" / "repro"

#: Per row: the default when the variable is unset, valid environment
#: text and valid arguments with what they resolve to, and rejected
#: text and arguments.
SAMPLES = {
    "workers": {
        "default": 1,
        "env": [("5", 5), (" 3 ", 3)],
        "arg": [(2, 2)],
        "bad_env": ["many", "0", "-2", "2.5"],
        "bad_arg": [2.5, True, 0, "3"],
    },
    "chunksize": {
        "default": None,
        "env": [("5", 5)],
        "arg": [(2, 2)],
        "bad_env": ["lots", "0"],
        "bad_arg": [-3, 3.0, True],
    },
    "backend": {
        "default": "auto",
        "env": [("serial", "serial"), ("Process", "process")],
        "arg": [(" Serial ", "serial"), ("auto", "auto")],
        "bad_env": ["warp-drive", "bogus"],
        "bad_arg": ["warp-drive", 3],
    },
    "cluster_nodes": {
        "default": None,
        "env": [
            ("hostA:7001,hostB:7002", (("hostA", 7001), ("hostB", 7002))),
            ("h:1,", (("h", 1),)),
        ],
        "arg": [
            ("h1:7000,h2:7000", (("h1", 7000), ("h2", 7000))),
            ([("h", 1)], (("h", 1),)),
        ],
        "bad_env": [
            "hostA:7001,hostB",
            "hostA:7001,hostA:7001",
            "h:70000",
            ",",
        ],
        "bad_arg": ["hostB", "", [("h", 0)]],
    },
    "node_workers": {
        "default": os.cpu_count() or 1,
        "env": [("3", 3)],
        "arg": [(4, 4)],
        "bad_env": ["0", "x"],
        "bad_arg": [0, 1.5, True],
    },
    "heartbeat": {
        "default": 10.0,
        "env": [("2.5", 2.5), ("0", 0.0)],
        "arg": [(4, 4.0), (0.5, 0.5)],
        "bad_env": ["soon", "-1", "nan", "inf"],
        "bad_arg": [-1.0, float("nan"), float("inf"), True, "3"],
    },
    "kernel": {
        "default": True,
        "env": [
            ("1", True), ("on", True), ("auto", True), ("true", True),
            ("yes", True), ("ON", True), ("0", False), ("off", False),
            ("false", False), ("no", False), (" Off ", False),
        ],
        "arg": [(False, False), (True, True)],
        "bad_env": ["maybe", "2"],
        "bad_arg": ["off", 0],
    },
    "cache_dir": {
        "default": Path("/xdg-home/repro/results"),
        "env": [
            ("/srv/cache/env", Path("/srv/cache/env")),
            ("~/repro-cache", Path.home() / "repro-cache"),
        ],
        "arg": [(HERE.parent, HERE.parent), ("/srv/arg", Path("/srv/arg"))],
        # An existing file: adopting it would destroy it on first store.
        "bad_env": [str(HERE)],
        "bad_arg": [HERE, ""],
    },
    "cache_cap": {
        "default": 0,
        "env": [("12", 12)],
        "arg": [(7, 7), (0, 0)],
        "bad_env": ["x", "-2", "1.5"],
        "bad_arg": [-1, 1.5, True, "3"],
    },
    "cache_cap_bytes": {
        "default": 0,
        "env": [("4096", 4096)],
        "arg": [(1 << 20, 1 << 20), (0, 0)],
        "bad_env": ["x", "-2", "1.5"],
        "bad_arg": [-1, 1.5, True, "3"],
    },
    "code_version": {
        # Unset, repro.serve.digest.code_version() hashes the sources.
        "default": None,
        "env": [("build-42", "build-42"), ("  v1  ", "v1")],
        "arg": [("v2", "v2")],
        "bad_env": [],  # any non-blank text names a version
        "bad_arg": ["", "  ", 5],
    },
}

#: The CLI flag backed by each row, with the argv that reaches it.
FLAGS = {
    "workers": ["run", "A1", "--workers"],
    "chunksize": ["run", "A1", "--chunksize"],
    "backend": ["run", "A1", "--backend"],
    "node_workers": ["worker", "serve", "--node-workers"],
    "cache_dir": ["serve", "--cache-dir"],
    "cache_cap": ["serve", "--cache-cap"],
    "cache_cap_bytes": ["serve", "--cache-cap-bytes"],
}


def _cases(kind):
    """One param per sample: ``(name, text_or_value[, expected])``."""
    return [
        pytest.param(
            name,
            *(case if isinstance(case, tuple) else (case,)),
            id=f"{name}-{i}",
        )
        for name, samples in SAMPLES.items()
        for i, case in enumerate(samples[kind])
    ]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", "/xdg-home")


def test_every_row_has_samples():
    assert list(SAMPLES) == list(KNOBS)
    for name, samples in SAMPLES.items():
        assert set(samples) == {"default", "env", "arg", "bad_env", "bad_arg"}
        for kind in ("env", "arg", "bad_arg"):
            assert samples[kind], f"{name}: no {kind} samples"


def test_every_env_name_is_repro_prefixed_and_unique():
    envs = [knob.env for knob in KNOBS.values()]
    assert len(set(envs)) == len(envs) == 11
    assert all(env.startswith("REPRO_") for env in envs)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_default_when_unset_or_blank(name, monkeypatch):
    expected = SAMPLES[name]["default"]
    assert resolve(name) == expected
    assert source(name) == "default"
    monkeypatch.setenv(KNOBS[name].env, "   ")
    assert resolve(name) == expected
    assert source(name) == "default"


@pytest.mark.parametrize("name", list(SAMPLES))
def test_call_site_default_only_replaces_the_rows(name, monkeypatch):
    assert resolve(name, default="site") == "site"
    assert resolve(name, default=lambda: "computed") == "computed"
    text, expected = SAMPLES[name]["env"][0]
    monkeypatch.setenv(KNOBS[name].env, text)
    assert resolve(name, default="site") == expected


@pytest.mark.parametrize("name, text, expected", _cases("env"))
def test_environment_beats_default(name, text, expected, monkeypatch):
    monkeypatch.setenv(KNOBS[name].env, text)
    assert resolve(name) == expected
    assert source(name) == "environment"


@pytest.mark.parametrize("name, value, expected", _cases("arg"))
def test_argument_beats_environment(name, value, expected, monkeypatch):
    text, _ = SAMPLES[name]["env"][0]
    monkeypatch.setenv(KNOBS[name].env, text)
    assert resolve(name, value) == expected


@pytest.mark.parametrize("name, text", _cases("bad_env"))
def test_bad_environment_text_names_the_variable(name, text, monkeypatch):
    monkeypatch.setenv(KNOBS[name].env, text)
    with pytest.raises(ValueError, match=re.escape(f"${KNOBS[name].env}: ")):
        resolve(name)


@pytest.mark.parametrize("name, value", _cases("bad_arg"))
def test_bad_argument_names_the_knob(name, value, monkeypatch):
    # A bad argument is rejected even when the environment is valid.
    text, _ = SAMPLES[name]["env"][0]
    monkeypatch.setenv(KNOBS[name].env, text)
    with pytest.raises(ValueError, match=f"^{name}: "):
        resolve(name, value)


def _flag_error(name, text, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([*FLAGS[name], text])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    prefix = f"error: argument {FLAGS[name][-1]}: "
    assert prefix in err, err
    return err.split(prefix, 1)[1]


@pytest.mark.parametrize(
    "name, text",
    [case for case in _cases("bad_env") if case.values[0] in FLAGS],
)
def test_flag_and_variable_reject_text_alike(name, text, monkeypatch, capsys):
    monkeypatch.setenv(KNOBS[name].env, text)
    with pytest.raises(ValueError) as env_error:
        resolve(name)
    label = f"${KNOBS[name].env}: "
    assert str(env_error.value) == label + _flag_error(name, text, capsys)


@pytest.mark.parametrize(
    "name, text, expected",
    [case for case in _cases("env") if case.values[0] in FLAGS],
)
def test_flag_and_variable_accept_text_alike(name, text, expected):
    args = build_parser().parse_args([*FLAGS[name], text])
    flag = FLAGS[name][-1].lstrip("-").replace("-", "_")
    assert resolve(name, getattr(args, flag)) == expected


def test_flag_help_names_variable_and_default(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    flat = " ".join(capsys.readouterr().out.split())
    assert "(default: $REPRO_WORKERS, else 1)" in flat
    assert "(default: $REPRO_BACKEND, else auto)" in flat


def test_format_value():
    assert format_value(None) == "unset"
    assert format_value(True) == "on" and format_value(False) == "off"
    assert format_value((("h", 1), ("g", 2))) == "h:1,g:2"
    assert format_value(Path("/x")) == "/x"
    assert format_value(2.5) == "2.5"


def _docstring_nodes(tree: ast.AST) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                ids.add(id(body[0].value))
    return ids


def test_only_settings_names_repro_variables():
    # Any string naming a variable, not only one that starts with it:
    # a help text or message restating "$REPRO_X" drifts like a reader.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "settings.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstring_nodes(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "REPRO_" in node.value
                and id(node) not in docstrings
            ):
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno} {node.value!r}"
                )
    assert not offenders, offenders

"""README.md against the code: each row of its exit-code table names a
test that pins that exit, and its quick start runs and finds regimes in
its test split."""

import ast
import logging
import re
import shlex
from pathlib import Path

from qrcvol.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# a test named ..._exit_<word> or ..._exit_<word>_... pins that code
EXIT_WORDS = {"zero": 0, "one": 1, "two": 2, "three": 3}
EXIT_NAME = re.compile(r"_exit_(zero|one|two|three)(?:_|$)")


def section(heading: str) -> str:
    """The README lines under heading, up to the next heading of its level
    or above outside a fenced block."""
    lines = README.splitlines()
    start = lines.index(heading) + 1
    fenced = False
    for end in range(start, len(lines)):
        fenced ^= lines[end].startswith("```")
        if not fenced and re.match(r"#{1,%d} " % heading.index(" "), lines[end]):
            return "\n".join(lines[start:end])
    return "\n".join(lines[start:])


def exit_rows() -> list:
    """(command, condition, code, test id) of each row of the CLI's exit-code table."""
    assert "### Exit codes" in section("## CLI").splitlines(), "no exit-code table under ## CLI"
    table = [line for line in section("### Exit codes").splitlines() if line.startswith("|")]
    header, rule, *rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in table]
    assert header == ["command", "condition", "code", "test"]
    assert set("".join(rule)) <= {"-", " "}
    return [(command, condition, code, test.strip("`")) for command, condition, code, test in rows]


def functions_of(path: Path) -> dict:
    """Each test function of a test file, module-level or in a class, by its
    pytest id (`file::Class::test` or `file::test`)."""
    rel = path.relative_to(ROOT).as_posix()
    tests = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = [(f"{rel}::{node.name}", n) for n in node.body] if isinstance(node, ast.ClassDef) \
            else [(rel, node)]
        for prefix, fn in members:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test"):
                tests[f"{prefix}::{fn.name}"] = fn
    return tests


def test_exit_table_rows_name_tests_that_pin_their_code():
    rows = exit_rows()
    assert len({test for *_, test in rows}) == len(rows), "a test named by two rows"
    files = {}
    for command, condition, code, test in rows:
        where = f"row {command} | {condition}"
        assert re.fullmatch(r"[0-3]", code), f"{where}: code {code!r} is not 0-3"
        path = test.split("::", 1)[0]
        if path not in files:
            assert (ROOT / path).is_file(), f"{where}: no file {path}"
            files[path] = (ROOT / path).read_text(encoding="utf-8"), functions_of(ROOT / path)
        source, functions = files[path]
        fn = functions.get(test)
        assert fn is not None, f"{where}: no test {test}"
        named = EXIT_NAME.search(fn.name)
        if named:
            assert EXIT_WORDS[named.group(1)] == int(code), f"{where}: {fn.name} pins another code"
        else:
            body = ast.get_source_segment(source, fn)
            assert re.search(rf"==\s*{code}\b", body), f"{where}: {fn.name} compares no exit code with {code}"


def test_every_exit_test_of_the_cli_has_a_row():
    codes = {test: int(code) for *_, code, test in exit_rows()}
    for test, fn in functions_of(ROOT / "tests" / "test_cli.py").items():
        named = EXIT_NAME.search(fn.name)
        if named:
            assert codes.get(test) == EXIT_WORDS[named.group(1)], f"no exit-code row of {test}"


def test_quick_start_detects_regimes_in_its_test_split(tmp_path, monkeypatch, caplog):
    blocks = re.findall(r"```sh\n(.*?)```", section("## CLI"), re.S)
    commands = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()
                if line.startswith("qrcvol ")]
    assert [argv[1] for argv in commands] == ["synth", "prepare", "run", "run"]
    (config,) = re.findall(r"```json\n(.*?)```", section("### Config file (JSON)"), re.S)
    (tmp_path / "config.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with caplog.at_level(logging.WARNING, logger="qrcvol"):
        for argv in commands:
            assert main(argv[1:]) == 0, argv
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert not [w for w in warnings if "no positive label" in w], warnings

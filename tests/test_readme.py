"""The README's Python quick start and its shell examples run as written, so
that it cannot show a name or a flag the library no longer has."""

import pathlib
import re

from click.testing import CliRunner

from uafkit.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _shell_examples():
    """The uafkit lines of README's sh block that read no input file, as
    argument lists, each with the comment lines right below it."""
    block = next(b for b in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"),
                                       re.DOTALL | re.MULTILINE) if "uafkit " in b)
    examples, comments = [], None
    for line in block.splitlines():
        if line.startswith("uafkit ") and not re.search(r"--(spec|params|config|dataset)\b", line):
            comments = []
            examples.append((line.split()[1:], comments))
        elif comments is not None and line.startswith("# "):
            comments.append(line[2:])
        else:
            comments = None
    return examples


def test_readme_shell_examples_run():
    examples = _shell_examples()
    assert [args[0] for args, _ in examples] == [
        "eval", "presets", "presets", "presets", "report", "table", "sweep", "fit"]
    runner = CliRunner()
    for args, comments in examples:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        if args[0] == "eval":
            assert result.stdout.splitlines() == comments
        elif args[0] == "sweep":
            assert comments == ["header: " + result.stdout.splitlines()[0]]

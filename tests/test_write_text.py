"""write_text, the one writer of every output file, and the guard that keeps
it the only one."""

import ast
import json
import os
import re
import stat
import threading
from pathlib import Path

import pytest

import bellkit
from bellkit import cli
from bellkit.harness import AnalysisConfig, render_report, run_analysis
from bellkit.inequalities import write_text
from conftest import random_model
from test_harness import pdc_dataset

SRC = Path(bellkit.__file__).resolve().parent

TEXT = "S* = 2.828427 +/- 0.001\nη = 0.8, ±1\n"


def write_with_open(path, text, **kwargs):
    """The reference: how every writer wrote its file before write_text."""
    with open(path, "w", encoding="utf-8", **kwargs) as fh:
        fh.write(text)


class TestWriteText:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("x" * 4000 + "\n", "short\n"),
            ("short\n", "η" * 3000 + "\n"),
            ("same length\n", "SAME LENGTH\n"),
            ("something\n", ""),
        ],
        ids=["longer-to-shorter", "shorter-to-longer", "same-length", "to-empty"],
    )
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "out"
        write_text(path, old)
        assert path.read_bytes() == old.encode("utf-8")
        write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    @pytest.mark.parametrize("umask", [0o000, 0o002, 0o027])
    def test_new_file_gets_the_mode_open_w_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_text(tmp_path / "new", TEXT)
            write_with_open(tmp_path / "reference", TEXT)
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_overwrite_keeps_the_inode_and_mode(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("old content, longer than the new\n")
        path.chmod(0o600)
        before = path.stat()
        write_text(path, TEXT)
        after = path.stat()
        assert (after.st_ino, after.st_dev) == (before.st_ino, before.st_dev)
        assert stat.S_IMODE(after.st_mode) == 0o600

    def test_symlink_is_written_through_and_kept(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old content, longer than the new\n")
        link.symlink_to(target)
        write_text(link, TEXT)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == TEXT.encode("utf-8")
        # a dangling link creates its target, as open(path, "w") does
        dangling, created = tmp_path / "dangling", tmp_path / "created"
        dangling.symlink_to(created)
        write_text(dangling, TEXT)
        assert dangling.is_symlink() and created.read_bytes() == TEXT.encode("utf-8")

    def test_dev_null(self):
        write_text(os.devnull, TEXT)

    def test_fifo_gets_every_byte(self, tmp_path):
        # larger than a pipe's buffer, and a FIFO cannot be truncated
        fifo, text = tmp_path / "fifo", TEXT * 10_000
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        write_text(fifo, text)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [text.encode("utf-8")]

    def test_encoding_error_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "out"
        path.write_text(TEXT)
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "lone surrogate \ud800\n")
        assert path.read_text() == TEXT

    @pytest.mark.parametrize("kind", ["directory", "read-only file", "full device"])
    def test_unwritable_target_raises_what_open_w_raises(self, tmp_path, capsys, kind):
        if kind == "directory":
            path = tmp_path / "dir"
            path.mkdir()
        elif kind == "read-only file":
            if os.geteuid() == 0:
                pytest.skip("root writes a read-only file")
            path = tmp_path / "read-only"
            path.write_text("old\n")
            path.chmod(0o444)
        else:
            path = Path("/dev/full")
            if not path.exists():
                pytest.skip("no /dev/full")
        with pytest.raises(OSError) as reference:
            write_with_open(path, TEXT)
        with pytest.raises(OSError) as exc:
            write_text(path, TEXT)
        assert (type(exc.value), str(exc.value)) == (type(reference.value), str(reference.value))
        assert cli.main(["search", "--eta", "0.8", "--output", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def strip_timestamp(data: bytes) -> bytes:
    return re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": ""', data)


@pytest.mark.parametrize("existing", [None, "x" * 50_000 + "\n"], ids=["new", "overwrite"])
def test_each_writer_writes_the_bytes_open_w_wrote(tmp_path, rng, existing):
    dataset = pdc_dataset(n=10**4, seed=5)
    report = run_analysis(dataset, AnalysisConfig())
    model = random_model(rng)
    writers = {
        "cli": (lambda p: cli._write_or_print(TEXT, str(p)), lambda p: write_with_open(p, TEXT)),
        "counts": (dataset.save, lambda p: write_with_open(p, dataset.to_csv(), newline="")),
        "model": (
            model.save,
            lambda p: write_with_open(p, json.dumps(model.to_json(), indent=2, allow_nan=False)),
        ),
    }
    for fmt in ("json", "text"):
        writers[f"report-{fmt}"] = (
            lambda p, fmt=fmt: cli._write_or_print(render_report(report, fmt), str(p)),
            lambda p, fmt=fmt: write_with_open(p, render_report(report, fmt)),
        )
    for name, (write, reference) in writers.items():
        path, expected = tmp_path / name, tmp_path / f"{name}.reference"
        if existing is not None:
            path.write_text(existing)
            expected.write_text(existing)
        write(path)
        reference(expected)
        assert strip_timestamp(path.read_bytes()) == strip_timestamp(expected.read_bytes()), name


# Module-level open() functions take the mode second; a method such as
# Path.open takes it first.
_MODULE_OPENS = {"io", "builtins", "codecs"}


def stray_writers(source: str, filename: str) -> list[str]:
    """Every call in source, outside a function named write_text, that can
    open a file for writing: open() with a mode holding w, a or x (or a mode
    that is not a literal), os.open and os.fdopen, and the write_text and
    write_bytes methods of a Path."""
    tree = ast.parse(source, filename)
    inside = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "write_text"
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func, where = node.func, f"{filename}:{node.lineno}"
        receiver = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ) else None
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            found.append(f"{where}: .{func.attr}()")
        elif receiver == "os" and func.attr in ("open", "fdopen"):
            found.append(f"{where}: os.{func.attr}()")
        elif (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        ):
            module_open = isinstance(func, ast.Name) or receiver in _MODULE_OPENS
            position = 1 if module_open else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                found.append(f"{where}: open() with a mode that is not a literal")
            elif set(mode.value) & set("wax"):
                found.append(f"{where}: open() with mode {mode.value!r}")
    return found


def test_write_text_is_the_only_writer_in_the_package():
    sources = sorted(SRC.glob("*.py"))
    assert any(path.name == "inequalities.py" for path in sources)
    found = [hit for path in sources for hit in stray_writers(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        'open(p, "w")',
        'open(p, "a", encoding="utf-8")',
        'open(p, mode="xb")',
        'open(p, "r+w")',
        "open(p, mode)",
        'io.open(p, "w")',
        'p.open("w")',
        'p.open(mode="a")',
        "os.open(p, os.O_RDONLY)",
        'os.fdopen(fd, "r")',
        'p.write_text("x")',
        'p.write_bytes(b"x")',
        'def save(p):\n    with open(p, "w") as fh:\n        fh.write("x")',
        'class Saved:\n    def write_text(self):\n        pass\n\nopen(p, "w")',
    ],
)
def test_guard_finds_a_stray_writer(source):
    assert stray_writers(source, "<source>")


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        'open(p, "rb")',
        'open(p, encoding="utf-8")',
        'open("out.txt")',
        "p.open()",
        'p.open("r")',
        'def write_text(path, text):\n    os.close(os.open(path, os.O_WRONLY | os.O_CREAT))',
    ],
)
def test_guard_passes_readers_and_the_helper(source):
    assert stray_writers(source, "<source>") == []

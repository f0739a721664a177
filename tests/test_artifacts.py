"""Artifact files: the atomic writer and the integer-field reader."""

import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from narytd.blocks import load_architecture, preset_set, save_architecture
from narytd.data import int_fields, json_text, write_file, write_json
from narytd.embeddings import init_embeddings
from narytd.errors import DataError, NumericError
from narytd.model import load_checkpoint, save_checkpoint
from narytd.search import init_theta, save_theta

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def fail_after(successes):
    """An os.replace that performs `successes` replacements, then raises."""
    real = os.replace

    def replace(src, dst):
        replace.targets.append(dst)
        if len(replace.targets) > successes:
            raise OSError("disk full")
        real(src, dst)

    replace.targets = []
    return replace


@pytest.fixture
def failing_replace(monkeypatch):
    monkeypatch.setattr(os, "replace", fail_after(0))


class TestWriteFile:
    def test_replaces_text_and_bytes(self, tmp_path):
        path = tmp_path / "a.txt"
        write_file(path, "é\n")
        assert path.read_bytes() == "é\n".encode("utf-8")
        write_file(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_json_layout(self, tmp_path):
        write_json(tmp_path / "d.json", {"b": 1, "a": [2]})
        assert (tmp_path / "d.json").read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'

    def test_creates_the_directory(self, tmp_path):
        write_file(tmp_path / "x" / "y" / "f", "z")
        assert (tmp_path / "x" / "y" / "f").read_text() == "z"

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_file(tmp_path / "f", "z")
        finally:
            os.umask(old)
        assert (tmp_path / "f").stat().st_mode & 0o777 == 0o644

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_leaves_no_file(self, tmp_path, value):
        with pytest.raises(NumericError):
            write_json(tmp_path / "d.json", {"a": [1.0, value]})
        assert os.listdir(tmp_path) == []
        with pytest.raises(NumericError):  # a search trace record, as search writes it
            json_text({"iteration": 0, "utilities": [value]})

    def test_failed_write_keeps_old_file(self, tmp_path, failing_replace):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        with pytest.raises(OSError, match="disk full"):
            write_file(path, "new")
        assert snapshot(tmp_path) == {"f": b"old"}


class TestFailedSaves:
    """With os.replace failing, each saver leaves the old artifact whole."""

    def test_save_architecture(self, tmp_path, monkeypatch):
        path = tmp_path / "arch.json"
        save_architecture(path, preset_set("cp", 2, 2))
        before = snapshot(tmp_path)
        monkeypatch.setattr(os, "replace", fail_after(0))  # after the first save
        with pytest.raises(OSError):
            save_architecture(path, preset_set("complex", 2, 2))
        assert snapshot(tmp_path) == before
        assert load_architecture(path) == preset_set("cp", 2, 2)

    def test_save_theta(self, tmp_path, failing_replace):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"old": True}))
        before = snapshot(tmp_path)
        with pytest.raises(OSError):
            save_theta(path, init_theta(2, 2))
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("completed", range(4))
    def test_save_checkpoint(self, completed, tmp_path, monkeypatch):
        # the write after `completed` successful ones fails: that file and
        # the ones not yet written keep their old bytes, and no temp is left
        ckpt = tmp_path / "ckpt"
        old = init_embeddings(5, 2, 8, 2, seed=0)
        save_checkpoint(ckpt, old, preset_set("cp", 2, 2))
        before = snapshot(ckpt)
        assert set(before) == {"entities.bin", "relations.bin", "architecture.json", "meta.json"}
        replace = fail_after(completed)
        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            save_checkpoint(ckpt, init_embeddings(5, 2, 8, 2, seed=1), preset_set("cp", 2, 2))
        after = snapshot(ckpt)
        assert set(after) == set(before)
        failed = os.path.basename(replace.targets[-1])
        assert after[failed] == before[failed]
        assert sum(after[name] != before[name] for name in before) <= completed
        if completed == 0:
            embeddings, _, _ = load_checkpoint(ckpt)
            assert np.array_equal(embeddings.entity_matrix, old.entity_matrix)


class TestIntFields:
    def test_returns_fields_in_order(self):
        assert int_fields({"a": 1, "b": -2, "c": "x"}, ("b", "a"), "doc") == (-2, 1)

    @pytest.mark.parametrize("value", [500.0, "4", True, None, [1]])
    def test_rejects_non_integers(self, value):
        with pytest.raises(DataError, match=r"doc field 'n' must be an integer"):
            int_fields({"n": value}, ("n",), "doc")

    def test_missing_field(self):
        with pytest.raises(DataError, match="doc missing field 'n'"):
            int_fields({}, ("n",), "doc")

    @given(JSON_VALUES)
    def test_property_accepts_exactly_json_integers(self, value):
        doc = json.loads(json.dumps({"n": value}))
        is_integer = isinstance(value, int) and not isinstance(value, bool)
        if is_integer:
            assert int_fields(doc, ("n",), "doc") == (value,)
        else:
            with pytest.raises(DataError):
                int_fields(doc, ("n",), "doc")

"""Static/contextual embedding loaders, the channel stack, and projections."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from metaseq import embedding_io
from metaseq import tensor_core as tc
from metaseq.embedding_io import (
    GLOVE_CHUNK_LINES,
    ChannelProvider,
    _read_exact,
    load_contextual,
    load_static_text,
    stack_channels,
)
from metaseq.errors import (
    AlignmentError,
    CompatibilityError,
    DimensionError,
    FormatError,
    ParseError,
    TruncatedError,
)
from metaseq.linguistic_features import (
    AbstractnessScorer,
    PosVocabulary,
)
from metaseq.tagger_model import MetaphorTagger, ModelConfig
from metaseq.train_eval import SentenceRecord, TokenRecord

from conftest import static_table, write_contextual
from helpers import sum_all


def float_reference(path) -> dict[str, np.ndarray]:
    """The vector file read with one Python ``float()`` per value; the first
    occurrence of a token wins."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            token, *values = raw.rstrip("\n").split(" ")
            out.setdefault(token, np.array([float(v) for v in values]))
    return out


def line_reference(path, words) -> tuple[dict[str, int], bytes] | str:
    """The loader's rules applied line by line with one ``float()`` per
    value: the kept rows and the matrix bytes, or the start of the
    ParseError's message. For files under 8 KiB, which are decoded in one
    read, so that bytes that are not UTF-8 are reported before any line."""
    data = Path(path).read_bytes()
    assert len(data) < 8192
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return f"{path}: not valid UTF-8"
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = [(n, line) for n, line in enumerate(lines, start=1) if line]
    if not numbered:
        return f"{path}: empty embedding file"
    if " " not in numbered[0][1]:
        return f"{path}: line {numbered[0][0]}: no vector values"
    dimension = numbered[0][1].count(" ")
    rows: dict[str, int] = {}
    vectors = []
    for at in range(0, len(numbered), GLOVE_CHUNK_LINES):
        chunk = numbered[at:at + GLOVE_CHUNK_LINES]
        for n, line in chunk:           # a chunk's widths before its values
            if line.count(" ") != dimension:
                return f"{path}: line {n}: expected {dimension} values, got {line.count(' ')}"
            if not line.partition(" ")[2]:
                return f"{path}: line {n}: non-numeric field"
        for n, line in chunk:
            token, *fields = line.split(" ")
            try:
                values = [float(v) for v in fields]
            except ValueError:
                return f"{path}: line {n}: non-numeric field"
            if not all(map(math.isfinite, values)):
                return f"{path}: line {n}: non-finite value"
            if token in words and token not in rows:
                rows[token] = len(rows)
                vectors.append(values)
    return rows, np.array(vectors, dtype=np.float64).reshape(len(vectors), dimension).tobytes()


_FORMATS = (repr, "{:.6f}".format, "{:.17e}".format, "{:g}".format)
_FIELD_EDITS = ("empty", "nan", "inf", "-inf", "1e400", "drop")
_TEXT_EDITS = ("space", "leading", "trailing", "tab", "cr", "blank", "bytes")
_EDIT = st.tuples(st.sampled_from(_FIELD_EDITS + _TEXT_EDITS), st.integers(0, 999),
                  st.integers(0, 999))


@st.composite
def mutated_glove(draw) -> bytes:
    """A valid vector file of one to eight lines, then up to four edits: a
    value made empty, non-finite, out of range or dropped; a space, tab or
    carriage return put in; a leading or trailing space; a blank line; or
    a byte that is not UTF-8."""
    seed, dimension, count = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                                            st.integers(1, 8)))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(count, dimension)) * 10.0 ** rng.integers(-30, 30, (count, dimension))
    rows = [[("a", "b", "dup", "x")[rng.integers(4)]]
            + [_FORMATS[rng.integers(len(_FORMATS))](float(v)) for v in row] for row in values]
    edits = draw(st.lists(_EDIT, max_size=4))
    for edit, i, at in edits:
        row = rows[i % count]
        if edit == "drop" and len(row) > 1:
            del row[1 + at % (len(row) - 1)]
        elif edit in _FIELD_EDITS and len(row) > 1:
            row[1 + at % (len(row) - 1)] = "" if edit == "empty" else edit
    lines = [" ".join(row) for row in rows]
    for edit, i, at in edits:
        i %= len(lines)
        at %= len(lines[i]) + 1
        put = {"space": " ", "tab": "\t", "cr": "\r", "bytes": "\udcff"}.get(edit)
        if put is not None:
            lines[i] = lines[i][:at] + put + lines[i][at:]
        elif edit == "leading":
            lines[i] = " " + lines[i]
        elif edit == "trailing":
            lines[i] += " "
        elif edit == "blank":
            lines.insert(i, "")
    eol = ("\n", "\r\n")[seed % 2]
    text = eol.join(lines) + (eol if seed % 3 else "")
    return text.encode("utf-8", "surrogateescape")


class TestStaticTable:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\nb 3.0 4.0\n")
        table = load_static_text(p, {"a", "b"})
        assert table.dimension == 2
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])

    def test_oov_returns_zero_vector(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\n")
        table = load_static_text(p, {"a", "zzz"})
        np.testing.assert_array_equal(table.vector("zzz"), [0.0, 0.0])
        assert "zzz" not in table

    def test_length_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\nb 3.0 4.0\nc 1.0\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 3: expected 2 values")):
            load_static_text(p, {"a", "b", "c"})

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 x\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: non-numeric")):
            load_static_text(p, {"a"})

    def test_empty_value_is_non_numeric(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0\nb \nc 2.0\n")  # d = 1; line 2's one value is empty
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: non-numeric")):
            load_static_text(p, {"a", "c"})

    def test_only_empty_values_is_non_numeric(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a \n")   # d = 1 and no value at all: loadtxt would warn of no data
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: non-numeric")):
            load_static_text(p, {"a"})

    def test_a_later_chunk_of_another_width_is_rejected(self, tmp_path):
        lines = [f"w{i} 0.5 0.25" for i in range(GLOVE_CHUNK_LINES)]
        lines += [f"v{i} 0.5 0.25 1.0" for i in range(10)]
        p = tmp_path / "emb.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{p}: line {GLOVE_CHUNK_LINES + 1}: expected 2 values, got 3")):
            load_static_text(p, {"w0"})

    @pytest.mark.parametrize("bad,words", [
        *(pytest.param(bad, {"a", "b"}, id=bad)
          for bad in ("nan", "inf", "-inf", "NaN", "Infinity")),
        pytest.param("inf", {"a"}, id="inf-unused"),
        pytest.param("nan", {"a"}, id="nan-unused"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, bad, words):
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1.0 2.0\nb 3.0 {bad}\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: non-finite value")):
            load_static_text(p, words)

    def test_duplicates_keep_first(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\na 9.0 9.0\n")
        table = load_static_text(p, {"a"})
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])

    def test_matches_float_reference_bit_for_bit(self, tmp_path):
        # 10,000 lines span three chunks; "dup" first sits in chunk 0 and
        # again in chunk 2, with other values.
        rng = np.random.default_rng(3)
        n, dim = 2 * GLOVE_CHUNK_LINES + 1808, 5
        values = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-30, 30, size=(n, dim))
        formats = (repr, "{:.8f}".format, "{:.17e}".format, "{:+.4g}".format)
        words = [f"w{i}" for i in range(n)]
        words[100] = words[n - 50] = "dup"
        p = tmp_path / "emb.txt"
        with open(p, "w", encoding="utf-8") as fh:
            for i, (word, row) in enumerate(zip(words, values)):
                fields = (formats[(i + j) % len(formats)](float(v)) for j, v in enumerate(row))
                fh.write(word + " " + " ".join(fields) + "\n")
        wanted = set(words[::3]) | {"dup", "absent"}
        table = load_static_text(p, wanted)
        reference = float_reference(p)
        kept = wanted & reference.keys()
        assert set(table.rows) == kept
        for word in kept:
            assert table.vector(word).tobytes() == reference[word].tobytes(), word
        np.testing.assert_allclose(table.vector("dup"), values[100], rtol=1e-3)

    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        text = "a 1.5 -2.25\n\nb 3e-3 4.0\nc 0.1 0.2\n"
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        a, b = load_static_text(lf, {"a", "b"}), load_static_text(crlf, {"a", "b"})
        assert a.rows == b.rows
        assert a.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("bad,problem", [("x", "non-numeric field"),
                                             ("inf", "non-finite value")])
    def test_unused_line_past_first_chunk_is_checked(self, tmp_path, bad, problem):
        lineno = GLOVE_CHUNK_LINES + 10
        lines = [f"w{i} 0.5 0.25" for i in range(GLOVE_CHUNK_LINES + 20)]
        lines[lineno - 1] = f"unused 0.5 {bad}"
        p = tmp_path / "emb.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line {lineno}: {problem}")):
            load_static_text(p, {"w0"})

    @pytest.mark.parametrize("bad,problem", [("1.0 2.0 3.0", "line 5: expected 2 values, got 3"),
                                             ("1.0 x", "not valid UTF-8")])
    def test_bytes_not_utf8_later_in_the_chunk(self, tmp_path, bad, problem):
        # Line 3000 lies past the first 8 KiB decoded, in the first chunk: a
        # wrong width is found before the bytes that are not UTF-8, a bad
        # value only once the chunk is whole.
        lines = [f"w{i} 0.5 0.25" for i in range(3000)]
        lines[4] = f"w4 {bad}"
        p = tmp_path / "emb.txt"
        p.write_bytes("\n".join(lines).encode() + b"\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: {problem}")):
            load_static_text(p, {"w0"})

    def test_duplicate_at_both_ends_keeps_the_first(self, tmp_path):
        p = tmp_path / "emb.txt"
        lines = ["dup 1.0 2.0", *(f"w{i} {i}.5 0.25" for i in range(40)), "dup 9.0 9.0"]
        p.write_text("\n".join(lines) + "\n")
        table = load_static_text(p, {"w39", "dup", "w3"})
        assert list(table.rows) == ["dup", "w3", "w39"]
        np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.5, 0.25], [39.5, 0.25]])

    def test_bad_unused_last_line_is_named(self, tmp_path):
        p = tmp_path / "emb.txt"
        lines = [*(f"w{i} 0.5 0.25" for i in range(40)), "", "unused 0.5 x"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 42: non-numeric field")):
            load_static_text(p, {"w0"})

    def test_a_child_that_dies_changes_nothing(self, tmp_path, monkeypatch):
        p = tmp_path / "emb.txt"
        p.write_text("".join(f"w{i} {i}.5 -0.25\n" for i in range(40)))
        parse, stops = embedding_io._parse_range, []

        def dying(path, start, stop, words):
            if start:       # a range after the first: only a forked child parses one
                os._exit(1)
            stops.append(stop)
            return parse(path, start, stop, words)

        monkeypatch.setattr(embedding_io, "_parse_range", dying)
        table = load_static_text(p, {"w0", "w39"})
        assert stops[-1] is None            # the whole file, parsed here
        assert list(table.rows) == ["w0", "w39"]
        np.testing.assert_array_equal(table.matrix, [[0.5, -0.25], [39.5, -0.25]])

    # No shrinking: a failing case is reported as found, within the time budget.
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_glove(), words=st.sets(st.sampled_from(("a", "b", "dup", "x"))))
    def test_mutated_file_reads_as_line_by_line(self, tmp_path, data, words):
        p = tmp_path / "emb.txt"
        p.write_bytes(data)
        expected = line_reference(p, words)

        def loaded():   # split ranges under test_static_table_on_split_ranges
            table = load_static_text(p, words)
            return table.rows, table.matrix

        def one_range():
            _, rows, matrix = embedding_io._parse_range(p, 0, None, words)
            return rows, matrix

        outcomes = []
        for load in (loaded, one_range):
            try:
                rows, matrix = load()
            except ParseError as exc:
                assert isinstance(expected, str) and str(exc).startswith(expected), (exc, expected)
                outcomes.append(str(exc))
            else:
                assert (list(rows.items()), matrix.tobytes()) == (
                    list(expected[0].items()), expected[1])
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]


# Runs TestStaticTable in a fresh interpreter, where no second thread is
# alive, with ranges of any size (GLOVE_RANGE_BYTES = 1) and two usable CPUs;
# each load must fork one child per range after the first and leave none.
SPLIT_RUN = """
import json, os, sys
import pytest
from metaseq import embedding_io, tensor_core

embedding_io.GLOVE_RANGE_BYTES = 1
tensor_core.usable_cpus = lambda: 2
fork, load, loads = os.fork, embedding_io.load_static_text, []

def counted_fork():
    pid = fork()
    if pid:
        loads[-1][1] += 1
    return pid

def checked_load(path, words):
    loads.append([len(embedding_io._byte_ranges(path)) - 1, 0])
    try:
        return load(path, words)
    finally:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        else:
            raise AssertionError("a child outlived the load")

os.fork, embedding_io.load_static_text = counted_fork, checked_load
code = pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]])
print(json.dumps(loads))
sys.exit(code)
"""


def test_static_table_on_split_ranges():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    env.update(dict.fromkeys(tc.BLAS_THREAD_VARS, "1"))
    result = subprocess.run(
        [sys.executable, "-c", SPLIT_RUN, "tests/test_embedding_io.py::TestStaticTable"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    loads = json.loads(result.stdout.splitlines()[-1])
    assert all(forks == children for children, forks in loads), loads
    assert sum(children > 0 for children, _ in loads) > 100


class TestSplitGate:
    """When the loader may fork, with ranges of any size."""

    @pytest.fixture
    def glove(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embedding_io, "GLOVE_RANGE_BYTES", 1)
        p = tmp_path / "emb.txt"
        p.write_text("".join(f"w{i} {i}.5 -0.25\n" for i in range(40)))
        return p

    @staticmethod
    def check(table) -> None:
        assert list(table.rows) == ["w0", "w39"]
        np.testing.assert_array_equal(table.matrix, [[0.5, -0.25], [39.5, -0.25]])

    @staticmethod
    def no_fork():
        raise AssertionError("os.fork called")

    def test_ranges_start_at_lines_and_cover_the_file(self, glove, monkeypatch):
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        data = glove.read_bytes()
        for cpus in (2, 3, 7, 100):     # 100 CPUs for 40 lines: at most one range per line
            monkeypatch.setattr(tc, "usable_cpus", lambda: cpus)
            ranges = embedding_io._byte_ranges(glove)
            starts = [start for start, _ in ranges]
            assert len(ranges) == cpus or (cpus > 40 and 1 < len(ranges) <= 40)
            assert starts[0] == 0 and ranges[-1][1] is None
            assert [stop for _, stop in ranges[:-1]] == starts[1:]
            assert all(data[start - 1:start] == b"\n" for start in starts[1:])
        monkeypatch.setattr(embedding_io, "GLOVE_RANGE_BYTES", len(data) // 3)
        assert len(embedding_io._byte_ranges(glove)) == 3
        monkeypatch.setattr(embedding_io, "GLOVE_RANGE_BYTES", len(data) // 2 + 1)
        assert len(embedding_io._byte_ranges(glove)) == 1

    def test_a_fork_that_fails_leaves_one_range(self, glove, monkeypatch):
        calls = []

        def failing_fork():
            calls.append(1)
            raise OSError("fork failed")

        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(tc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", failing_fork)
        self.check(load_static_text(glove, {"w0", "w39"}))
        assert calls == [1]

    def test_no_fork_with_a_second_thread_alive(self, glove, monkeypatch):
        monkeypatch.setattr(tc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", self.no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self.check(load_static_text(glove, {"w0", "w39"}))
        finally:
            release.set()
            thread.join()

    def test_no_fork_on_one_usable_cpu(self, glove, monkeypatch):
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(tc, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", self.no_fork)
        self.check(load_static_text(glove, {"w0", "w39"}))


def _dataset(*lengths: int, ids=None) -> list[SentenceRecord]:
    """One sentence of ``n`` NOUN target tokens per length; ids s0, s1, ..."""
    ids = ids or [f"s{i}" for i in range(len(lengths))]
    return [SentenceRecord(sid, "news", [TokenRecord(f"w{t}", "NOUN", 0, True)
                                         for t in range(n)])
            for sid, n in zip(ids, lengths)]


def _records(*records: tuple[int, int], dimension: int = 4) -> bytes:
    """A layer file with one ``(index, tokens)`` record each, in the given
    order; every value of sentence ``index`` is ``index + 1``."""
    body = b"CEMB" + struct.pack("<IIII", 1, 1, dimension, len(records))
    for idx, tokens in records:
        body += struct.pack("<II", idx, tokens)
        body += np.full(tokens * dimension, idx + 1, "<f4").tobytes()
    return body


class TestContextualCodec:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        sents = {0: rng.normal(size=(4, 6)).astype(np.float32),
                 1: rng.normal(size=(7, 6)).astype(np.float32)}
        p = tmp_path / "layer.cemb"
        write_contextual(p, 17, 6, sents)
        loaded = load_contextual(p, _dataset(4, 7))
        assert loaded.layer_index == 17
        assert loaded.dimension == 6
        for idx, mat in sents.items():
            assert loaded.sentences[idx].tobytes() == mat.tobytes()

    def test_empty_container_is_valid(self, tmp_path):
        p = tmp_path / "layer.cemb"
        write_contextual(p, 3, 8, {})
        loaded = load_contextual(p, [])
        assert loaded.sentences == []
        assert loaded.dimension == 8
        assert loaded.all_rows().shape == (0, 8)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "layer.cemb"
        p.write_bytes(b"XEMB" + b"\x00" * 16)
        with pytest.raises(FormatError, match=re.escape(f"{p}: bad magic")):
            load_contextual(p, [])

    def test_bad_version(self, tmp_path):
        p = tmp_path / "layer.cemb"
        write_contextual(p, 1, 4, {})
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{p}: unsupported version 99")):
            load_contextual(p, [])

    def test_zero_dimension(self, tmp_path):
        p = tmp_path / "layer.cemb"
        p.write_bytes(b"CEMB" + struct.pack("<IIII", 1, 1, 0, 0))
        with pytest.raises(FormatError, match=re.escape(f"{p}: non-positive dimension 0")):
            load_contextual(p, [])

    def test_duplicate_sentence_index(self, tmp_path):
        p = tmp_path / "layer.cemb"
        record = struct.pack("<II", 3, 1) + np.ones(2, dtype="<f4").tobytes()
        p.write_bytes(b"CEMB" + struct.pack("<IIII", 1, 1, 2, 2) + record + record)
        with pytest.raises(FormatError, match=re.escape(f"{p}: duplicate sentence index 3")):
            load_contextual(p, _dataset(1, 1, 1, 1))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "layer.cemb"
        write_contextual(p, 1, 4, {0: np.ones((3, 4), dtype=np.float32)})
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(TruncatedError, match=re.escape(f"{p}: file ended")):
            load_contextual(p, _dataset(3))

    def test_short_rows_detected(self, tmp_path):
        # header says dim 8, but each row carries only 6 floats
        p = tmp_path / "layer.cemb"
        body = b"CEMB" + struct.pack("<IIII", 1, 1, 8, 1)
        body += struct.pack("<II", 0, 1) + np.ones(6, dtype="<f4").tobytes()
        p.write_bytes(body)
        # truncated payload is a format defect
        with pytest.raises(FormatError, match=re.escape(f"{p}: file ended")):
            load_contextual(p, _dataset(1))

    @pytest.mark.parametrize("dimension,tokens", [
        (0xFFFFFFFF, 0xFFFFFFFF), (0xFFFFFFFF, 1), (1, 0xFFFFFFFF), (1 << 20, 1 << 10)])
    def test_oversized_header_claim_is_truncated(self, tmp_path, dimension, tokens):
        # a 32-byte file whose header claims up to 64 EiB of payload, for a
        # sentence whose token count matches the claim
        p = tmp_path / "layer.cemb"
        p.write_bytes(b"CEMB" + struct.pack("<IIII", 1, 0, dimension, 1)
                      + struct.pack("<II", 0, tokens) + b"\x00" * 4)
        with pytest.raises(TruncatedError,
                           match=re.escape(f"{p}: file ended while reading sentence 0 payload")):
            load_contextual(p, [SentenceRecord("s0", "news", range(tokens))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        p = tmp_path / "layer.cemb"
        rows = np.ones((2, 4), dtype=np.float32)
        rows[1, 3] = bad
        write_contextual(p, 1, 4, {0: np.ones((1, 4), dtype=np.float32), 7: rows})
        with pytest.raises(FormatError, match=re.escape(f"{p}: sentence 7: non-finite value")):
            load_contextual(p, _dataset(1, 1, 1, 1, 1, 1, 1, 2))

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "layer.cemb"
        write_contextual(p, 1, 4, {0: np.ones((1, 4), dtype=np.float32)})
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=re.escape(f"{p}: trailing")):
            load_contextual(p, _dataset(1))


class TestLoadAgainstDataset:
    """A layer file holds exactly the dataset's sentences 0..N-1, one row per token."""

    @staticmethod
    def _write(tmp_path, shapes: dict):
        """A 4-d layer file holding a matrix of ones per ``index: shape``."""
        p = tmp_path / "l.cemb"
        write_contextual(p, 1, 4, {i: np.ones(shape, dtype=np.float32)
                                   for i, shape in shapes.items()})
        return p

    def test_aligned_file_passes(self, tmp_path):
        p = self._write(tmp_path, {0: (2, 4), 1: (3, 4)})
        layer = load_contextual(p, _dataset(2, 3))
        assert [m.shape for m in layer.sentences] == [(2, 4), (3, 4)]

    def test_missing_sentence_is_alignment_error(self, tmp_path):
        p = tmp_path / "layer.cemb"
        write_contextual(p, 1, 4, {i: np.ones((1, 4), dtype=np.float32) for i in range(5)})
        with pytest.raises(AlignmentError, match="sentence 5"):
            load_contextual(p, _dataset(*[1] * 6))

    def test_contextual_row_count_checked(self, tmp_path):
        p = self._write(tmp_path, {0: (2, 4)})
        with pytest.raises(AlignmentError, match="sX"):
            load_contextual(p, _dataset(3, ids=["sX"]))

    def test_unresolved_locator_names_sentence(self, tmp_path):
        # the pair-probe dataset of two one-token sentences; the file lacks sentence 1
        p = tmp_path / "layer.cemb"
        write_contextual(p, 1, 2, {0: np.asarray([[0.0, 1.0]], dtype=np.float32)})
        with pytest.raises(AlignmentError, match="sentence 1"):
            load_contextual(p, _dataset(1, 1, ids=["a", "b"]))

    def test_message_names_file_sentence_and_both_counts(self, tmp_path):
        p = self._write(tmp_path, {0: (2, 4), 1: (4, 4)})
        with pytest.raises(AlignmentError) as info:
            load_contextual(p, _dataset(2, 3))
        assert str(info.value) == f"{p}: sentence 1 (s1): 4 rows for 3 tokens"

    def test_missing_sentence_message(self, tmp_path):
        p = self._write(tmp_path, {0: (2, 4)})
        with pytest.raises(AlignmentError) as info:
            load_contextual(p, _dataset(2, 3))
        assert str(info.value) == f"{p}: sentence 1 (s1): no rows for 3 tokens"

    def test_sentence_beyond_the_dataset_is_alignment_error(self, tmp_path):
        p = self._write(tmp_path, {0: (2, 4), 1: (3, 4), 7: (5, 4)})
        with pytest.raises(AlignmentError) as info:
            load_contextual(p, _dataset(2, 3))
        assert str(info.value) == f"{p}: sentence 7: 5 rows, but the dataset has 2 sentences"

    def test_same_total_rows_split_differently(self, tmp_path):
        p = self._write(tmp_path, {0: (3, 4), 1: (2, 4)})
        with pytest.raises(AlignmentError, match="sentence 0 \\(s0\\): 3 rows for 2 tokens"):
            load_contextual(p, _dataset(2, 3))

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # sentence 1 is missing and sentence 2 is beyond the dataset; the
        # record for 2 is read before the missing sentence can be known
        p = self._write(tmp_path, {0: (2, 4), 2: (3, 4)})
        with pytest.raises(AlignmentError) as info:
            load_contextual(p, _dataset(2, 3))
        assert str(info.value) == f"{p}: sentence 2: 3 rows, but the dataset has 2 sentences"

    @pytest.mark.parametrize("records,dataset,message", [
        ([(5, 2)], (2,), "sentence 5: 2 rows, but the dataset has 1 sentences"),
        ([(0, 3)], (2,), "sentence 0 (s0): 3 rows for 2 tokens"),
    ])
    def test_misfit_record_is_rejected_before_its_payload(self, tmp_path, records,
                                                          dataset, message):
        # the payload is cut short, so reading it would be a TruncatedError
        p = tmp_path / "l.cemb"
        p.write_bytes(_records(*records)[:-4])
        with pytest.raises(AlignmentError) as info:
            load_contextual(p, _dataset(*dataset))
        assert str(info.value) == f"{p}: {message}"

    def test_rows_follow_the_dataset_whatever_the_record_order(self, tmp_path):
        p = tmp_path / "l.cemb"
        p.write_bytes(_records((1, 3), (0, 2)))
        layer = load_contextual(p, _dataset(2, 3))
        assert [m.shape for m in layer.sentences] == [(2, 4), (3, 4)]
        np.testing.assert_array_equal(layer.sentences[1], np.full((3, 4), 2.0))
        np.testing.assert_array_equal(layer.all_rows()[:, 0], [1, 1, 2, 2, 2])

    def test_expected_dimension_is_checked_at_the_header(self, tmp_path):
        """A file of the wrong dimension whose rows also misalign reports the
        dimension, before any record is read."""
        p = self._write(tmp_path, {0: (3, 4), 5: (1, 4)})
        with pytest.raises(CompatibilityError) as info:
            load_contextual(p, _dataset(2, 3), dimension=6)
        assert str(info.value) == f"{p}: layer dimension 4 != configured unified dimension 6"
        with pytest.raises(AlignmentError):
            load_contextual(p, _dataset(2, 3))
        assert load_contextual(self._write(tmp_path, {0: (2, 4)}), _dataset(2),
                               dimension=4).dimension == 4


def projector(w, b) -> MetaphorTagger:
    """A G-only model whose static projection is ``W x + b``."""
    w = np.asarray(w, dtype=float)
    cfg = ModelConfig(unified_dim=w.shape[0], static_dim=w.shape[1],
                      channel_order=("G",), window_sizes=(1,),
                      kernels_per_window=1, hidden_size=1)
    model = MetaphorTagger(cfg)
    model.params["proj_w"].data[...] = w
    model.params["proj_b"].data[...] = b
    return model


def project(model: MetaphorTagger, x) -> tc.Tensor:
    """The G-channel projection of ``build_stack`` for one static vector."""
    return model.build_stack({"G": np.asarray(x, dtype=float)[None, :]})


class TestReadExact:
    def test_claim_past_end_refused_before_reading(self, tmp_path):
        p = tmp_path / "blob"
        p.write_bytes(b"0123456789")
        with open(p, "rb") as fh:
            _read_exact(fh, 4, "head")
            with pytest.raises(TruncatedError,
                               match=re.escape(f"{p}: file ended while reading body: "
                                               "7 bytes declared, 6 left")):
                _read_exact(fh, 7, "body")
            assert fh.tell() == 4          # nothing was consumed
            assert _read_exact(fh, 6, "rest") == b"456789"


class TestProjectStatic:
    """The static-to-unified projection inside ``MetaphorTagger.build_stack``."""

    def test_zero_map(self):
        out = project(projector(np.zeros((6, 3)), np.zeros(6)), np.ones(3))
        assert not out.data.any()
        assert out.data[0, 0].shape == (6,)

    def test_output_length_contract(self):
        rng = np.random.default_rng(1)
        model = projector(rng.normal(size=(10, 4)), rng.normal(size=10))
        assert project(model, rng.normal(size=4)).data[0, 0].shape == (10,)

    def test_identity_padded_basis_vector(self):
        # W embeds the 3-dim input into the first 3 of 8 output coordinates
        w = np.zeros((8, 3))
        w[:3, :3] = np.eye(3)
        out = project(projector(w, np.zeros(8)), np.array([1.0, 0.0, 0.0]))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project(projector(np.zeros((6, 3)), np.zeros(6)), np.ones(5))

    def test_linearity_up_to_bias(self):
        rng = np.random.default_rng(2)
        w, b = rng.normal(size=(7, 4)), rng.normal(size=7)
        model = projector(w, b)
        x, y = rng.normal(size=4), rng.normal(size=4)
        alpha, beta = 1.7, -0.4
        lhs = project(model, alpha * x + beta * y).data[0, 0]
        rhs = (alpha * project(model, x).data[0, 0]
               + beta * project(model, y).data[0, 0]
               - (alpha + beta - 1.0) * b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_participates_in_backward(self):
        rng = np.random.default_rng(3)
        model = projector(rng.normal(size=(4, 3)), rng.normal(size=4))
        with tc.Tape() as tape:
            out = project(model, rng.normal(size=3))
            loss = sum_all(out)
        tc.backward(loss, tape)
        assert model.params["proj_w"].grad is not None
        assert model.params["proj_b"].grad is not None


def static_row(dim: int, tags, score: float | None, pos: str = "NOUN") -> np.ndarray:
    """The G-channel row of one token absent from the static table, so its
    vector reads as zeros; ``tags``/``score`` switch on PoS and abstractness."""
    table = static_table(dim, {})
    vocab = PosVocabulary(tags) if tags is not None else None
    scorer = None
    if score is not None:
        scorer = AbstractnessScorer({"w": score}, table, ["w"])
    provider = ChannelProvider(("G",), table, pos_vocab=vocab, abstractness_scorer=scorer)
    sentence = SentenceRecord("s0", "news", [TokenRecord("w", pos, 0, True)])
    return provider.channels(sentence, 0)["G"][0]


class TestBuildGpa:
    """The G-channel row: static vector, then PoS one-hot, then abstractness."""

    def test_length_arithmetic(self):
        out = static_row(300, [f"T{i}" for i in range(16)], 0.5)
        assert out.shape == (318,)

    def test_zero_inputs(self):
        out = static_row(4, None, 0.0)
        assert not out.any()

    def test_one_hot_segment_preserved(self):
        out = static_row(2, ["NOUN", "VERB"], 0.25, pos="VERB")
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 0, 0.25])


class TestChannelStack:
    def test_three_channel_shape(self):
        mats = [np.random.default_rng(i).normal(size=(5, 16)) for i in range(3)]
        stack = stack_channels(mats, ("G", "E", "B"))
        assert stack.shape == (3, 5, 16)
        for i, mat in enumerate(mats):  # channel i of the block is order[i]
            np.testing.assert_array_equal(stack.data[i], mat)

    def test_single_channel_ablation(self):
        stack = stack_channels([np.zeros((4, 8))], ("E",))
        assert stack.shape == (1, 4, 8)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            stack_channels([np.zeros((5, 8)), np.zeros((6, 8))], ("G", "E"))

    def test_unstack_round_trip(self):
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(6, 10)) for _ in range(3)]
        stack = stack_channels(mats, ("G", "E", "B"))
        for i, original in enumerate(mats):
            np.testing.assert_array_equal(original, stack.data[i])


class TestChannelProvider:
    def _sentence(self, words):
        return SentenceRecord("sX", "news",
                              [TokenRecord(w, "NOUN", 0, True) for w in words])

    def test_static_rows_include_oov_zero(self):
        table = static_table(2, {"a": np.array([1.0, 2.0])})
        provider = ChannelProvider(("G",), table)
        out = provider.channels(self._sentence(["a", "b"]), 0)
        np.testing.assert_array_equal(out["G"], [[1.0, 2.0], [0.0, 0.0]])

    def test_missing_layer_file_rejected_up_front(self):
        table = static_table(2, {})
        with pytest.raises(DimensionError, match="channel E"):
            ChannelProvider(("G", "E"), table, {})

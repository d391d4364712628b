"""Document-corpus sources and triple-store sinks (SURVEY.md §2a).

S1: the input is a table of interleaved text+media documents.  Every
caller reads it as a directory of parquet fragments with
``rd.read_parquet`` (``pipelines/kg.py``, ``scripts/kg_job.py``; the
layout ``perfbench.corpus.write_fragments`` writes); there is no Lance
reader.  The pipeline is format-agnostic: it only sees the
(doc_id, spans) schema.

S3/S4: N-Quads text source/sink for interop with the reference's golden
format — line-oriented, so it maps cleanly onto ``read_text`` /
per-batch serialization.
"""

from __future__ import annotations

import os

import pyarrow as pa


def from_ttl_files(paths):
    """Raw Turtle files → documents Dataset in the input_hint shape
    (one row per file, a single text span).  This is the reference
    user's migration path: ``examples/simple.rs`` takes .ttl file
    arguments; here the same files stream through the Ray pipeline.
    """
    import ray.data as rd

    raw = rd.read_binary_files(paths, include_paths=True)

    def to_docs(batch: pa.Table) -> pa.Table:
        doc_ids, spans = [], []
        for path, data in zip(batch["path"].to_pylist(),
                              batch["bytes"].to_pylist()):
            doc_ids.append(os.path.basename(path))
            spans.append([{"kind": "text",
                           "text": data.decode("utf-8"),
                           "media_ref": "", "offset": 0}])
        span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                            ("media_ref", pa.string()),
                            ("offset", pa.int32())])
        return pa.Table.from_arrays(
            [pa.array(doc_ids, pa.string()),
             pa.array(spans, pa.list_(span_t))],
            names=["doc_id", "spans"])

    return raw.map_batches(to_docs, batch_format="pyarrow")


def read_nquads(path: str):
    """N-Quads file(s) → triples Dataset (S3; line-per-triple)."""
    import ray.data as rd

    from ..ttl.nquads import parse_nquads

    def parse_lines(batch: pa.Table) -> pa.Table:
        rows = []
        for line in batch["text"].to_pylist():
            rows.extend(parse_nquads(line))
        cols = list(zip(*rows)) if rows else [[]] * 7
        return pa.Table.from_arrays(
            [pa.array(cols[0], pa.string()),
             pa.array(cols[1], pa.uint8()),
             pa.array(cols[2], pa.string()),
             pa.array(cols[3], pa.string()),
             pa.array(cols[4], pa.uint8()),
             pa.array(cols[5], pa.string()),
             pa.array(cols[6], pa.string())],
            names=["subj", "subj_kind", "pred", "obj", "obj_kind",
                   "obj_datatype", "obj_lang"])

    return rd.read_text(path).map_batches(parse_lines,
                                          batch_format="pyarrow")


def to_nquad_lines(batch: pa.Table) -> pa.Table:
    """Triples batch → canonical N-Quads text lines (S4 text sink;
    use with ``write_csv``-style single-column output or iter_batches)."""
    from ..ttl.nquads import triple_to_nquad

    lines = [
        triple_to_nquad(s, sk, p, o, ok, dt, lang)
        for s, sk, p, o, ok, dt, lang in zip(
            batch["subj"].to_pylist(), batch["subj_kind"].to_pylist(),
            batch["pred"].to_pylist(), batch["obj"].to_pylist(),
            batch["obj_kind"].to_pylist(),
            batch["obj_datatype"].to_pylist(),
            batch["obj_lang"].to_pylist())
    ]
    return pa.Table.from_arrays([pa.array(lines, pa.string())],
                                names=["text"])


def write_nquads(triples_ds, path: str):
    """Triples Dataset → directory of N-Quads shards (one line per
    triple; CSV writer with no header/quoting acts as a plain text
    sink)."""
    def _opts():
        from pyarrow import csv as pacsv

        # WriteOptions isn't picklable → build it on the writer task
        return {"write_options": pacsv.WriteOptions(
            include_header=False, quoting_style="none")}

    triples_ds.map_batches(to_nquad_lines, batch_format="pyarrow") \
        .write_csv(path, arrow_csv_args_fn=_opts)
    return path


# --- JSONL corpus interop (the de-facto LLM training-data format) ---------

_FLAT_DOC_COLS = ("doc_id", "text", "lang", "source", "n_chars")


_FLAT_DOC_TYPES = {"doc_id": pa.int64(), "text": pa.string(),
                   "lang": pa.string(), "source": pa.string(),
                   "n_chars": pa.int64()}


def _normalize_flat_docs(columns=_FLAT_DOC_COLS):
    """Shared schema normalizer for every flat-corpus reader: cast
    present columns, derive n_chars from text when absent, fill the
    rest with typed nulls — any {doc_id, text} input ingests directly
    into the documents-table operators."""
    import pyarrow.compute as pc

    def normalize(t: pa.Table) -> pa.Table:
        arrays = []
        for c in columns:
            if c in t.schema.names:
                arrays.append(pc.cast(t[c].combine_chunks(),
                                      _FLAT_DOC_TYPES[c]))
            elif c == "n_chars" and "text" in t.schema.names:
                arrays.append(pc.cast(pc.utf8_length(t["text"]),
                                      pa.int64()))
            else:
                arrays.append(pa.nulls(t.num_rows, _FLAT_DOC_TYPES[c]))
        return pa.Table.from_arrays(arrays, names=list(columns))

    return normalize


def read_documents_jsonl(path: str, columns=_FLAT_DOC_COLS):
    """Read a flat documents corpus from line-delimited JSON (one object
    per line, the standard LLM-corpus interchange format)."""
    import ray.data as rd

    return rd.read_json(path).map_batches(
        _normalize_flat_docs(columns), batch_format="pyarrow",
        zero_copy_batch=True)


def write_documents_jsonl(docs_ds, path: str):
    """Write a documents Dataset as partitioned line-delimited JSON —
    one file per block (resumable-output convention: never one giant
    file)."""
    docs_ds.write_json(path)
    return path


def read_documents_csv(path: str, columns=_FLAT_DOC_COLS):
    """Read a flat documents corpus from CSV (header row expected) with
    the same schema normalization as ``read_documents_jsonl``."""
    import ray.data as rd

    return rd.read_csv(path).map_batches(
        _normalize_flat_docs(columns), batch_format="pyarrow",
        zero_copy_batch=True)


# --- ORC / Arrow-IPC corpus interop ----------------------------------------
#
# Ray 2.49 ships no ORC or Arrow-IPC datasource, so both readers follow
# the standard extension recipe: ``read_binary_files`` distributes the
# file list, and each task decodes its file with the pyarrow codec —
# one file per block, so a partitioned multi-file corpus parallelizes
# exactly like read_parquet.  Writers emit one content-addressed file
# per batch under the target directory (resumable-output convention:
# never one giant file; re-running a partial write only adds missing
# parts because names are derived from the bytes they contain).

def _write_file_batches(docs_ds, path: str, ext: str, encode):
    import hashlib

    os.makedirs(path, exist_ok=True)

    def write_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64())})
        body = encode(t)
        name = hashlib.md5(body).hexdigest()[:16]
        out = os.path.join(path, f"part-{name}.{ext}")
        with open(out, "wb") as f:
            f.write(body)
        return pa.table({"path": pa.array([out], pa.string()),
                         "n_rows": pa.array([t.num_rows], pa.int64())})

    # the write is the consuming action — materialize the tiny manifest
    return docs_ds.map_batches(write_batch, batch_format="pyarrow",
                               zero_copy_batch=True).to_pandas()


def write_documents_orc(docs_ds, path: str):
    """Write a documents Dataset as a partitioned ORC directory."""
    def encode(t: pa.Table) -> bytes:
        import io

        import pyarrow.orc as orc

        buf = io.BytesIO()
        orc.write_table(t, buf)
        return buf.getvalue()

    return _write_file_batches(docs_ds, path, "orc", encode)


def read_documents_orc(path: str, columns=_FLAT_DOC_COLS):
    """Read a flat documents corpus from a directory of ORC files with
    the shared schema normalization."""
    import ray.data as rd

    def decode(t: pa.Table) -> pa.Table:
        import io

        import pyarrow.orc as orc

        tables = [orc.read_table(io.BytesIO(b.as_py()))
                  for b in t["bytes"]]
        return pa.concat_tables(tables)

    norm = _normalize_flat_docs(columns)
    return rd.read_binary_files(path) \
        .map_batches(decode, batch_format="pyarrow") \
        .map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def write_documents_ipc(docs_ds, path: str):
    """Write a documents Dataset as a partitioned Arrow-IPC (feather
    v2) directory."""
    def encode(t: pa.Table) -> bytes:
        import io

        import pyarrow.ipc as ipc

        buf = io.BytesIO()
        with ipc.new_file(buf, t.schema) as w:
            w.write_table(t)
        return buf.getvalue()

    return _write_file_batches(docs_ds, path, "arrow", encode)


def read_documents_ipc(path: str, columns=_FLAT_DOC_COLS):
    """Read a flat documents corpus from a directory of Arrow-IPC
    files with the shared schema normalization."""
    import ray.data as rd

    def decode(t: pa.Table) -> pa.Table:
        import io

        import pyarrow.ipc as ipc

        tables = [ipc.open_file(io.BytesIO(b.as_py())).read_all()
                  for b in t["bytes"]]
        return pa.concat_tables(tables)

    norm = _normalize_flat_docs(columns)
    return rd.read_binary_files(path) \
        .map_batches(decode, batch_format="pyarrow") \
        .map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def write_documents_jsonl_gz(docs_ds, path: str):
    """Write a documents Dataset as a partitioned gzip-compressed
    JSONL directory (the standard compressed web-corpus interchange —
    one ``part-*.jsonl.gz`` per batch, content-addressed like the
    ORC/IPC sinks)."""
    def encode(t: pa.Table) -> bytes:
        import gzip
        import io

        buf = io.StringIO()
        t.to_pandas().to_json(buf, orient="records", lines=True)
        return gzip.compress(buf.getvalue().encode(), mtime=0)

    return _write_file_batches(docs_ds, path, "jsonl.gz", encode)


def read_documents_jsonl_gz(path: str, columns=_FLAT_DOC_COLS):
    """Read a flat documents corpus from a directory of gzipped JSONL
    files: ``read_binary_files`` distributes the file list; each task
    decompresses with stdlib gzip and parses with the vectorized
    pyarrow JSON reader (one file per block, same parallel shape as
    read_parquet)."""
    import ray.data as rd

    def decode(t: pa.Table) -> pa.Table:
        import gzip
        import io

        import pyarrow.json as pj

        def body(b: bytes) -> bytes:
            # read_binary_files auto-decompresses *.gz via the Arrow
            # filesystem layer; keep the explicit path for raw bytes
            return gzip.decompress(b) if b[:2] == b"\x1f\x8b" else b

        tables = [pj.read_json(io.BytesIO(body(b.as_py())))
                  for b in t["bytes"]]
        return pa.concat_tables(tables, promote_options="default")

    norm = _normalize_flat_docs(columns)
    return rd.read_binary_files(path) \
        .map_batches(decode, batch_format="pyarrow") \
        .map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)

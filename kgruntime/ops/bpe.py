"""Distributed BPE merge learning.

The reference engine (turtle-syntax, src/lexing.rs) has no tokenizer
learner — this op belongs to the LLM-training-data suite the engine
adds on top of the reference's parser scope: learning the first R
byte-pair-encoding merges over a corpus is the canonical "train a
tokenizer on 100 TB" job.

Scale shape (the part that matters at 100 TB):

- ONE corpus-scale exchange: the word-frequency ``groupby`` (hash-keyed
  by the word string).  Document text leaves a batch only as single
  words with partial counts — the classic combiner shape.
- every merge round runs over the *materialized word-frequency table*,
  which is vocabulary-bounded (|V| rows) and corpus-size-INDEPENDENT —
  exactly why production BPE trainers count words first.
- per round, the only data that reaches the driver is ONE
  (left, right, count) row (``sort → limit(1)``); the chosen rule goes
  back to the workers as a closure string (bytes, not corpus-sized).

Determinism / oracle parity: ties break on (count DESC, left ASC,
right ASC); all counts are exact int64; and the merge application is a
plain non-overlapping left-to-right substring replace on the
space-padded symbol string — semantics verified identical across
Python ``str.replace``, Arrow ``replace_substring`` and DuckDB
``replace`` (`' a a a '` → `' aa a '` on all three), so
``bpe_merges_sql`` replays every round bit-for-bit as an unrolled CTE
(precedent: the 5-round integer k-means CTE in ops/ann.py).
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_MARKER = "_"          # end-of-word symbol appended to every word


def bpe_merges(docs_ds, rounds: int = 8):
    """Learn the first ``rounds`` BPE merges over ``docs_ds.text``.

    Returns a small pyarrow Table
    ``(merge_round, lhs, rhs, merged, pair_count)`` — one row per
    learned merge, in learning order.
    """
    from ray.data.aggregate import Sum

    def word_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        # single-space split, drop empties — mirrors the oracle's
        # string_split(text, ' ') ... WHERE w != '' exactly
        return pl.from_arrow(t.select(["text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w").filter(pl.col("w") != "") \
            .group_by("w").agg(pl.len().cast(pl.Int64).alias("cnt")) \
            .to_arrow()

    wf = docs_ds.select_columns(["text"]) \
        .map_batches(word_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("w").aggregate(Sum("cnt", alias_name="wcount"))

    def symbolize(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t).with_columns(
            (pl.lit(" ")
             + pl.col("w").str.replace_all(r"(.)", "$1 ")
             + pl.lit(_MARKER + " ")).alias("sym"))
        return d.select(["w", "wcount", "sym"]).to_arrow()

    # vocabulary-bounded — the documented safe-materialize case
    cur = wf.map_batches(symbolize, batch_format="pyarrow").materialize()
    merges, _ = _learn_merges(cur, rounds)
    return pa.table({
        "merge_round": pa.array([m["merge_round"] for m in merges],
                                pa.int64()),
        "lhs": pa.array([m["lhs"] for m in merges], pa.string()),
        "rhs": pa.array([m["rhs"] for m in merges], pa.string()),
        "merged": pa.array([m["merged"] for m in merges], pa.string()),
        "pair_count": pa.array([m["pair_count"] for m in merges],
                               pa.int64()),
    })


def _learn_merges(cur, rounds: int):
    """Run the merge-learning loop over a materialized symbolized
    word-frequency dataset ``cur`` (columns incl. ``wcount``, ``sym``);
    returns (merge dicts, the post-merge dataset)."""
    from ray.data.aggregate import Sum

    def pair_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        e = pl.from_arrow(t).with_row_index("rid") \
            .with_columns(pl.col("sym").str.strip_chars(" ")
                          .str.split(" ").alias("s")) \
            .explode("s") \
            .with_columns(pl.col("s").shift(-1).over("rid").alias("nxt")) \
            .drop_nulls("nxt") \
            .group_by(["s", "nxt"]) \
            .agg(pl.col("wcount").sum().alias("cnt"))
        return e.rename({"s": "l", "nxt": "r"}) \
            .select(["l", "r", "cnt"]).to_arrow()

    merges: list[dict] = []
    for rnd in range(1, rounds + 1):
        top = cur.map_batches(pair_partial, batch_format="pyarrow") \
            .groupby(["l", "r"]).aggregate(Sum("cnt", alias_name="cnt")) \
            .sort(["cnt", "l", "r"], descending=[True, False, False]) \
            .limit(1).take_all()
        if not top:
            break
        l, r, cnt = top[0]["l"], top[0]["r"], int(top[0]["cnt"])
        merges.append({"merge_round": rnd, "lhs": l, "rhs": r,
                       "merged": l + r, "pair_count": cnt})
        pat, rep = f" {l} {r} ", f" {l}{r} "

        def apply(t: pa.Table, pat=pat, rep=rep) -> pa.Table:
            return t.set_column(
                t.schema.get_field_index("sym"), "sym",
                pc.replace_substring(t["sym"], pattern=pat,
                                     replacement=rep))

        # lazy chain over the vocab-bounded base: round k re-runs k tiny
        # map stages (O(R²/2) vocab-sized passes total) — cheaper than R
        # materialize calls and nothing corpus-sized ever re-executes
        cur = cur.map_batches(apply, batch_format="pyarrow")

    return merges, cur


def bpe_merges_sql(rounds: int = 8, table: str = "documents") -> str:
    """Unrolled-round DuckDB twin of :func:`bpe_merges`.

    NOTE DuckDB list-slice ends are INCLUSIVE (``s[:-1]`` keeps the
    last element), so adjacent pairs zip ``s`` against ``s[2:]`` and
    drop the NULL-padded tail pair instead of slicing the left side.
    """
    parts = [f"""wf AS MATERIALIZED (
  SELECT w, count(*)::BIGINT AS wcount
  FROM (SELECT unnest(string_split(text, ' ')) AS w FROM {table})
  WHERE w != '' GROUP BY w),
bpe_r0 AS MATERIALIZED (
  SELECT wcount,
         ' ' || regexp_replace(w, '(.)', '\\1 ', 'g') || '{_MARKER} '
           AS sym
  FROM wf)"""]
    for i in range(1, rounds + 1):
        parts.append(f"""bpe_p{i} AS MATERIALIZED (
  SELECT pr[1] AS l, pr[2] AS r, sum(wcount)::BIGINT AS cnt
  FROM (SELECT wcount, unnest(list_zip(s, s[2:])) AS pr
        FROM (SELECT wcount, string_split(trim(sym), ' ') AS s
              FROM bpe_r{i - 1}))
  WHERE pr[2] IS NOT NULL
  GROUP BY 1, 2),
bpe_m{i} AS MATERIALIZED (
  SELECT {i}::BIGINT AS merge_round, l AS lhs, r AS rhs,
         l || r AS merged, cnt AS pair_count
  FROM bpe_p{i} ORDER BY cnt DESC, l, r LIMIT 1),
bpe_r{i} AS MATERIALIZED (
  SELECT wcount,
         replace(sym,
                 ' ' || (SELECT lhs FROM bpe_m{i}) || ' '
                     || (SELECT rhs FROM bpe_m{i}) || ' ',
                 ' ' || (SELECT merged FROM bpe_m{i}) || ' ') AS sym
  FROM bpe_r{i - 1})""")
    union = "\nUNION ALL\n".join(
        f"SELECT * FROM bpe_m{i}" for i in range(1, rounds + 1))
    return ("WITH " + ",\n".join(parts)
            + f"\n{union}\nORDER BY merge_round")


def bpe_fertility(docs_ds, rounds: int = 8):
    """Tokenizer fertility audit — learn ``rounds`` BPE merges over the
    whole corpus, encode every word with them, and report per-language
    ``(lang, n_words, n_tokens, fertility_ppm)`` where fertility_ppm =
    10⁶ · BPE tokens per whitespace word.  The per-language cost check
    run before fixing a tokenizer for multilingual training data (the
    end-of-word marker counts as a symbol until merged away, same on
    both sides).

    Scale shape: ONE corpus exchange (the (lang, word) frequency
    combiner groupby); learning runs on the global word-frequency
    projection of that table (vocab-bounded, materialized); encoding
    touches only distinct words; the |V|-bounded word→n_tokens map
    broadcasts back over the (lang, word) table, and the rollup is a
    |langs|-row groupby.  Document text never crosses a second time.
    """
    import numpy as np
    from ray.data.aggregate import Sum

    def wl_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        return pl.from_arrow(t.select(["lang", "text"])) \
            .with_columns(pl.col("text").str.split(" ").alias("w")) \
            .explode("w").filter(pl.col("w") != "") \
            .group_by(["lang", "w"]) \
            .agg(pl.len().cast(pl.Int64).alias("cnt")) \
            .select(["lang", "w", "cnt"]).to_arrow()

    # vocab × |langs|-bounded — the documented safe-materialize case
    wfl = docs_ds.select_columns(["lang", "text"]) \
        .map_batches(wl_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["lang", "w"]).aggregate(Sum("cnt", alias_name="cnt")) \
        .materialize()

    def symbolize(t: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(t).with_columns(
            (pl.lit(" ")
             + pl.col("w").str.replace_all(r"(.)", "$1 ")
             + pl.lit(_MARKER + " ")).alias("sym"))
        return d.select(["w", "wcount", "sym"]).to_arrow()

    cur = wfl.groupby("w").aggregate(Sum("cnt", alias_name="wcount")) \
        .map_batches(symbolize, batch_format="pyarrow").materialize()
    _, final = _learn_merges(cur, rounds)

    # |V|-bounded word -> token-count map, broadcast once
    import ray
    enc = {r["w"]: len(r["sym"].strip().split(" "))
           for r in final.take_all()}
    ref = ray.put(enc)

    from ..stages.broadcast import cached_get

    def decorate(t: pa.Table) -> pa.Table:
        m = cached_get(ref, tag="bpe_fertility-lengths")
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        nt = np.fromiter((m[w] for w in t["w"].to_pylist()),
                         np.int64, len(t))
        return pa.table({
            "lang": t["lang"],
            "n_words": pa.array(cnt, pa.int64()),
            "n_tokens": pa.array(cnt * nt, pa.int64()),
        })

    def finish(t: pa.Table) -> pa.Table:
        nw = t["n_words"].to_numpy(zero_copy_only=False)
        nt = t["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": t["lang"],
            "n_words": pa.array(nw, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "fertility_ppm": pa.array(1_000_000 * nt // nw, pa.int64()),
        })

    return wfl.map_batches(decorate, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            Sum("n_words", alias_name="n_words"),
            Sum("n_tokens", alias_name="n_tokens")) \
        .map_batches(finish, batch_format="pyarrow") \
        .sort("lang")


def bpe_fertility_sql(rounds: int = 8, table: str = "documents") -> str:
    """DuckDB twin of :func:`bpe_fertility`: the bpe_merges_sql round
    chain with the word carried through every round, then a per-lang
    rollup of cnt × symbol-count over the (lang, word) frequency CTE."""
    parts = [f"""bf_wfl AS MATERIALIZED (
  SELECT lang, w, count(*)::BIGINT AS cnt
  FROM (SELECT lang, unnest(string_split(text, ' ')) AS w FROM {table})
  WHERE w != '' GROUP BY 1, 2),
bf_wf AS MATERIALIZED (
  SELECT w, sum(cnt)::BIGINT AS wcount FROM bf_wfl GROUP BY w),
bf_r0 AS MATERIALIZED (
  SELECT w, wcount,
         ' ' || regexp_replace(w, '(.)', '\\1 ', 'g') || '{_MARKER} '
           AS sym
  FROM bf_wf)"""]
    for i in range(1, rounds + 1):
        parts.append(f"""bf_p{i} AS MATERIALIZED (
  SELECT pr[1] AS l, pr[2] AS r, sum(wcount)::BIGINT AS cnt
  FROM (SELECT wcount, unnest(list_zip(s, s[2:])) AS pr
        FROM (SELECT wcount, string_split(trim(sym), ' ') AS s
              FROM bf_r{i - 1}))
  WHERE pr[2] IS NOT NULL
  GROUP BY 1, 2),
bf_m{i} AS MATERIALIZED (
  SELECT l AS lhs, r AS rhs, l || r AS merged
  FROM bf_p{i} ORDER BY cnt DESC, l, r LIMIT 1),
bf_r{i} AS MATERIALIZED (
  SELECT w, wcount,
         replace(sym,
                 ' ' || (SELECT lhs FROM bf_m{i}) || ' '
                     || (SELECT rhs FROM bf_m{i}) || ' ',
                 ' ' || (SELECT merged FROM bf_m{i}) || ' ') AS sym
  FROM bf_r{i - 1})""")
    parts.append(f"""bf_enc AS (
  SELECT w, len(string_split(trim(sym), ' '))::BIGINT AS nt
  FROM bf_r{rounds})""")
    return ("WITH " + ",\n".join(parts) + """
SELECT lang, sum(cnt)::BIGINT AS n_words,
       sum(cnt * nt)::BIGINT AS n_tokens,
       ((1000000 * sum(cnt * nt)) // sum(cnt))::BIGINT AS fertility_ppm
FROM bf_wfl JOIN bf_enc USING (w)
GROUP BY lang ORDER BY lang
""")

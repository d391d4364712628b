"""Generate QUERY_INDEX.md — the machine-checkable per-query audit
index (VERDICT r4 item 8): one row per registry entry with the backing
op function, the SHA-256 prefix of its oracle SQL (so a change to SQL
text shows as drift too), and driver CORRECTNESS-row history.

Run:  python scripts/gen_query_index.py          (writes QUERY_INDEX.md)
      python scripts/gen_query_index.py --check  (exit 1 on drift)

The index is AS-OF stamped: its header records exactly which
CORRECTNESS_r*.json artifacts it was built from, and the contract test
(tests/test_ops_round5.py) regenerates it against that same artifact
list — so a NEW driver artifact landing after the round does not turn
the committed index stale-red (the r4 rotation-test lesson); the next
session regenerates with the new artifact included.  No Ray session is
needed — the query table names its ops as lazy "module:function" refs.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "QUERY_INDEX.md")


def correctness_files() -> list[str]:
    return sorted(
        os.path.basename(f)
        for f in glob.glob(os.path.join(ROOT, "CORRECTNESS_r*.json")))


def build_index(files: list[str] | None = None) -> str:
    """Render the index from the query table + the given artifact list
    (defaults to all committed CORRECTNESS files).  The window order is
    recomputed AS-OF the same list by queries()' own ordering rule."""
    sys.path.insert(0, ROOT)
    import __ray_entry__ as E

    if files is None:
        files = correctness_files()

    # driver history restricted to `files`: name -> {round: status}
    hist: dict[str, dict[int, str]] = {}
    for fname in files:
        rnd = int(fname[len("CORRECTNESS_r"):-len(".json")])
        for name, row in json.load(
                open(os.path.join(ROOT, fname))).items():
            if row.get("err") == "no_oracle":
                st = "ran"
            elif row.get("hash_match"):
                st = "pass"
            elif row.get("err"):
                st = "error"
            else:
                st = "fail"
            hist.setdefault(name, {})[rnd] = st

    rows = {spec.name: spec for spec in E._QUERIES}
    q = E._window_order(rows, set(hist))
    sql = E.oracle_sql()
    lines = [
        "# QUERY_INDEX — generated by scripts/gen_query_index.py; "
        "do not edit by hand",
        "",
        "as-of: " + (", ".join(files) if files else "(no artifacts)"),
        "",
        f"{len(q)} queries / "
        f"{sum(1 for k in q if k in sql)} SQL-oracle-backed / "
        f"{sum(1 for k in q if k not in sql)} rows-only.  "
        "Driver column: latest CORRECTNESS row among the as-of "
        "artifacts (pass = SQL hash match, ran = rows-only, — = never "
        "in the driver's 50-slot window; the FULL registry is gated "
        "locally every round by scripts/check_oracle.py).  Op column: "
        "the op a table row runs, or its hand-written "
        "`__ray_entry__._q_*` pipeline.  Oracle column: `sql` + the "
        "first 8 hex digits of the SHA-256 of the oracle SQL text.",
        "",
        "| # | query | op function | oracle | driver row |",
        "|---|---|---|---|---|",
    ]
    for i, name in enumerate(q, 1):
        op = rows[name].op
        op = (f"{op.__module__}.{op.__name__}" if callable(op)
              else op.replace(":", "."))
        h = hist.get(name)
        drv = (f"r{max(h)} {h[max(h)]}" if h else "—")
        orc = (f"sql {hashlib.sha256(sql[name].encode()).hexdigest()[:8]}"
               if name in sql else "rows-only")
        lines.append(f"| {i} | {name} | `{op}` | {orc} | {drv} |")
    return "\n".join(lines) + "\n"


def as_of_files(text: str) -> list[str]:
    """Parse the as-of artifact list out of a rendered index."""
    m = re.search(r"^as-of: (.*)$", text, re.M)
    if not m or m.group(1).startswith("(no"):
        return []
    return [f.strip() for f in m.group(1).split(",")]


def main() -> int:
    text = build_index()
    if "--check" in sys.argv:
        on_disk = open(OUT).read() if os.path.exists(OUT) else ""
        if on_disk != build_index(as_of_files(on_disk) or None):
            sys.stderr.write("QUERY_INDEX.md is stale — rerun "
                             "scripts/gen_query_index.py\n")
            return 1
        return 0
    with open(OUT, "w") as f:
        f.write(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Pure helpers of the repository benchmark: statistics, span arithmetic,
metric-name checks and parsers for what the `distill` CLI prints.

Nothing here starts a process or touches a file, so `test_perflib.py` can
check every function on hand-made inputs.
"""

import re
import statistics

# A metric name: starts with a letter or digit; letters, digits, `_`, `.`
# and `-`; at most 64 characters.
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name):
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between the
    closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), with the quartiles that
    `statistics.quantiles(values, n=4)` gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, rel


def drift(medians):
    """How far apart the sets' medians are, read in the worse direction:
    largest ÷ smallest − 1. Either set may be the one compared against, so
    a fall of 20% counts as the rise of 25% it is from the other side."""
    lo, hi = min(medians), max(medians)
    if lo <= 0:
        return 0.0 if hi == lo else float("inf")
    return hi / lo - 1


# ---------------------------------------------------------------------------
# Spans: [name, parent, start_ns, end_ns, count, thread], parent -1 = root.
# ---------------------------------------------------------------------------


def union_ns(intervals):
    """Total length covered by the half-open intervals (overlaps counted
    once)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children(spans):
    """Index -> list of child indices."""
    kids = {i: [] for i in range(len(spans))}
    for i, span in enumerate(spans):
        if span[1] >= 0:
            kids[span[1]].append(i)
    return kids


def self_times(spans):
    """Per span: its duration minus the part of its interval that its
    children cover (children running in parallel are counted once)."""
    kids = children(spans)
    return [(s[3] - s[2]) - covered_ns(spans, i, kids[i]) for i, s in enumerate(spans)]


def covered_ns(spans, index, kids):
    """How much of span `index` the spans `kids` cover."""
    start, end = spans[index][2], spans[index][3]
    return union_ns(
        (max(start, spans[k][2]), min(end, spans[k][3]))
        for k in kids
        if spans[k][3] > start and spans[k][2] < end
    )


def coverage(spans, root):
    """Share of the root span covered by its direct children."""
    start, end = spans[root][2], spans[root][3]
    if end <= start:
        return 0.0
    return covered_ns(spans, root, children(spans)[root]) / (end - start)


def merge_traces(main, workers, attach_to):
    """One span list from a process's trace and its worker processes'
    traces: worker indices are shifted past the main list, worker roots
    become children of the main span named `attach_to`, and each thread id
    is made unique across processes."""
    spans = [list(s) for s in main]
    parent = next((i for i, s in enumerate(main) if s[0] == attach_to), -1)
    threads = 1 + max((s[5] for s in main), default=0)
    for worker in workers:
        offset = len(spans)
        for name, p, start, end, count, thread in worker:
            spans.append([name, parent if p < 0 else p + offset, start, end, count,
                          thread + threads])
        threads += 1 + max((s[5] for s in worker), default=0)
    return spans


def self_time_table(spans):
    """name -> (calls, total_ns, self_ns), for the layer table."""
    selfs = self_times(spans)
    table = {}
    for span, own in zip(spans, selfs):
        calls, total, mine = table.get(span[0], (0, 0, 0))
        table[span[0]] = (calls + 1, total + span[3] - span[2], mine + own)
    return table


# ---------------------------------------------------------------------------
# Parsers for the CLI's output.
# ---------------------------------------------------------------------------


def parse_tables(text):
    """Every table the CLI rendered in `text`, as dicts with `title`,
    `columns` and `rows`. Cells are right-aligned, so each column ends where
    its header ends."""
    lines = text.splitlines()
    tables = []
    i = 0
    while i < len(lines):
        title = re.fullmatch(r"== (.*) ==", lines[i])
        if not title or i + 2 >= len(lines) or set(lines[i + 2]) != {"-"}:
            i += 1
            continue
        header = lines[i + 1]
        ends = [m.end() for m in re.finditer(r"\S+(?: \S+)*", header)]
        starts = [0] + [e + 2 for e in ends[:-1]]
        columns = [header[s:e].strip() for s, e in zip(starts, ends)]
        rows = []
        i += 3
        while i < len(lines) and len(lines[i]) == len(header) and lines[i].strip():
            rows.append([lines[i][s:e].strip() for s, e in zip(starts, ends)])
            i += 1
        tables.append({"title": title.group(1), "columns": columns, "rows": rows})
    return tables


def table_values(table):
    """First column -> remaining cells (one string, or a list when the
    table has more than two columns)."""
    out = {}
    for row in table["rows"]:
        out[row[0]] = row[1] if len(row) == 2 else row[1:]
    return out


def parse_digests(text):
    """The `--out` digest file: `trial <index> <16 hex digits>` per line,
    as a list of (index, digest)."""
    out = []
    for line in text.splitlines():
        m = re.fullmatch(r"trial (\d+) ([0-9a-f]{16})", line)
        if not m:
            raise ValueError(f"malformed digest line {line!r}")
        out.append((int(m.group(1)), m.group(2)))
    return out


def count_failed(digests, reference, trials):
    """Trials that are missing from `digests` or whose digest differs from
    the reference's."""
    got = dict(digests)
    ref = dict(reference)
    return sum(1 for t in range(trials) if t not in got or got[t] != ref.get(t))

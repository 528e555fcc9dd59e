"""Seeded inputs for the three benchmark workloads.

Nothing here imports ``pferrer``: a change to the library cannot change the
inputs.  Each workload is a list of slots.  A slot holds a finite, fixed list
of candidate items, and each item is a list of ops; an op is the argv of one
``pferrer`` call plus the text it reads on stdin (or ``None``).  A run's
``--seed`` picks the items of every slot and fixes the op order, so every op
any seed can produce is one of the finitely many candidate ops, and each of
them has a golden record made once (see ``make_golden.py``).

Slots group candidates of one size class.  Every pass takes the same number
of items from each slot, so the amount of work in a pass changes little from
seed to seed while the inputs themselves do change.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations, combinations_with_replacement, permutations

REPORT_LADDER = "report-ladder"
VERIFY_CORPUS = "verify-corpus"
MACAULAY_HVECTORS = "macaulay-hvectors"
WORKLOADS = (REPORT_LADDER, VERIFY_CORPUS, MACAULAY_HVECTORS)

# The documented defaults of pferrer.limits.Limits that each workload must
# respect, with n = sum over groups of the largest coordinate.
REPORT_MAX_N = 30  # hitting_set_max_variables: report and dual list minimal primes
ORACLE_MAX_N = 16  # oracle_max_variables
ORACLE_MAX_GENERATORS = 60  # oracle_max_generators
MACAULAY_MAX_N = 30
MAX_DEPTH = 6

# Candidates per randomly grown slot; the pool, and so the golden record,
# is fixed by these counts and by DESIGN_SEED, never by the run's seed.
DESIGN_SEED = 20260811
RANDOM_VARIANTS = 12

Box = tuple[int, ...]


# ---------------------------------------------------------------------------
# Box sets and their JSON trees


def to_tree(box_set, depth: int):
    """Nested-list diagram of a nonempty downward-closed box set."""
    if depth == 1:
        return max(b[0] for b in box_set)
    slices: dict[int, set] = {}
    for box in box_set:
        slices.setdefault(box[-1], set()).add(box[:-1])
    return [to_tree(slices[i], depth - 1) for i in range(1, max(slices) + 1)]


def nvars(box_set) -> int:
    """n = sum over coordinate groups of the largest coordinate."""
    depth = len(next(iter(box_set)))
    return sum(max(b[k] for b in box_set) for k in range(depth))


def is_downward_closed(box_set) -> bool:
    for box in box_set:
        for k, a in enumerate(box):
            if a > 1 and box[:k] + (a - 1,) + box[k + 1 :] not in box_set:
                return False
    return True


def product_boxes(sides) -> set[Box]:
    """All boxes of the full product [1..a_1] x ... x [1..a_p]."""
    out = [()]
    for side in sides:
        out = [b + (i,) for b in out for i in range(1, side + 1)]
    return set(out)


def full_boxes(p: int, c: int) -> set[Box]:
    """Boxes of full_diagram(p, c): every box with diagonal index at most c."""
    return {b for b in product_boxes((c,) * p) if sum(b) - p + 1 <= c}


def grow(rng: random.Random, depth: int, count: int, caps) -> set[Box]:
    """A random downward-closed set of exactly ``count`` boxes inside ``caps``."""
    box_set = {(1,) * depth}
    frontier = set()

    def refresh(box):
        for k in range(depth):
            if box[k] < caps[k]:
                nxt = box[:k] + (box[k] + 1,) + box[k + 1 :]
                if nxt not in box_set and all(
                    nxt[:j] + (nxt[j] - 1,) + nxt[j + 1 :] in box_set
                    for j in range(depth)
                    if nxt[j] > 1
                ):
                    frontier.add(nxt)

    refresh((1,) * depth)
    while len(box_set) < count:
        box = rng.choice(sorted(frontier))
        frontier.discard(box)
        box_set.add(box)
        refresh(box)
    return box_set


def distinct_grown(
    rng: random.Random, depth: int, count: int, caps, n: int, variants: int = RANDOM_VARIANTS
) -> list[set[Box]]:
    """Up to ``variants`` distinct grown box sets with exactly n variables."""
    seen, out = set(), []
    for _ in range(200 * variants):
        if len(out) == variants:
            break
        box_set = grow(rng, depth, count, caps)
        key = frozenset(box_set)
        if key not in seen and nvars(box_set) == n:
            seen.add(key)
            out.append(box_set)
    return out


def _diagram_op(argv_head, box_set) -> list:
    depth = len(next(iter(box_set)))
    return [list(argv_head) + ["-"], json.dumps(to_tree(box_set, depth))]


# ---------------------------------------------------------------------------
# report-ladder: report --certificate, series and dual on one shape per rung

REPORT_OPS = (["report", "--certificate"], ["series"], ["dual"])
LADDER_QUOTA = 2

# Rungs in ladder order.  ("product", sides): every distinct axis order of
# the box, which all give isomorphic ideals.  ("full", p, c): full_diagram
# with one last-diagonal box removed, or two where there are five or more
# to choose from.  ("random", p, count, caps, n):
# RANDOM_VARIANTS random dominated shapes of exactly ``count`` boxes and
# exactly n variables inside ``caps``.  Each pass takes LADDER_QUOTA shapes
# of every rung.
LADDER = (
    ("random", 2, 10, (7, 7), 9),
    ("product", (2, 3)),
    ("full", 2, 4),
    ("random", 3, 8, (3, 3, 3), 8),
    ("product", (2, 2, 3)),
    ("random", 4, 10, (3, 3, 3, 3), 10),
    ("full", 3, 3),
    ("product", (3, 5)),
    ("random", 2, 16, (8, 8), 11),
    ("product", (2, 3, 4)),
    ("full", 2, 7),
    ("random", 3, 24, (5, 5, 5), 14),
    ("product", (2, 2, 3, 3)),
    ("full", 4, 3),
    ("product", (4, 8)),
    ("random", 4, 30, (4, 4, 4, 4), 15),
    ("full", 3, 5),
    ("product", (3, 4, 4)),
    ("random", 2, 40, (12, 12), 21),
    ("product", (5, 9)),
    ("full", 5, 3),
    ("random", 3, 50, (6, 6, 6), 18),
    ("product", (3, 4, 5)),
    ("full", 2, 11),
    ("random", 4, 60, (5, 5, 5, 5), 20),
    ("product", (2, 3, 3, 4)),
    ("product", (7, 10)),
    ("full", 4, 4),
    ("random", 2, 80, (14, 14), 28),
    ("product", (4, 5, 5)),
    ("full", 3, 7),
    ("random", 3, 100, (7, 7, 7), 21),
    ("product", (2, 3, 4, 5)),
    ("product", (9, 12)),
    ("full", 6, 3),
    ("random", 4, 120, (6, 6, 6, 6), 24),
    ("product", (4, 5, 7)),
    ("full", 2, 15),
    ("random", 3, 150, (8, 8, 8), 24),
    ("product", (3, 3, 4, 5)),
)


def _rung_candidates(rung, rng: random.Random) -> list[set[Box]]:
    kind = rung[0]
    if kind == "product":
        return [product_boxes(order) for order in sorted(set(permutations(rung[1])))]
    if kind == "full":
        _, p, c = rung
        full = full_boxes(p, c)
        # Boxes of the last diagonal with no coordinate equal to c: removing
        # them keeps the box set downward closed and n unchanged.
        inner = sorted(b for b in full if sum(b) - p + 1 == c and c not in b)
        drops = list(combinations(inner, 1 if len(inner) < 5 else 2))
        return [full - set(drop) for drop in rng.sample(drops, min(len(drops), RANDOM_VARIANTS))]
    _, p, count, caps, n = rung
    return distinct_grown(rng, p, count, caps, n)


def report_ladder_slots() -> list[list[list]]:
    rng = random.Random(f"{DESIGN_SEED}:{REPORT_LADDER}")
    slots = []
    for rung in LADDER:
        items = []
        for box_set in _rung_candidates(rung, rng):
            items.append([_diagram_op(head, box_set) for head in REPORT_OPS])
        slots.append(items)
    return slots


# ---------------------------------------------------------------------------
# verify-corpus: verify on oracle-sized random diagrams and small staircases

# Cost of a verify grows with the box count (the generators) and with n (the
# variables), so a class fixes both.  (depth, boxes, n, items per pass) for
# randomly grown diagrams of depth 3 and 4 ...
VERIFY_CLASSES = (
    (3, 8, 9, 16),
    (3, 10, 10, 11),
    (3, 12, 11, 6),
    (3, 14, 11, 2),
    (4, 8, 9, 16),
    (4, 10, 10, 11),
    (4, 12, 11, 6),
    (4, 14, 12, 2),
    (4, 16, 12, 3),
)
VERIFY_CAPS = {3: (6, 5, 5), 4: (4, 4, 4, 4)}
VERIFY_VARIANTS = 24

# ... and (boxes, n, items per pass) for staircases, the depth-2 diagrams:
# every integer partition of that many boxes with that n is a candidate.
STAIRCASE_CLASSES = (
    (8, 7, 3),
    (9, 8, 4),
    (10, 9, 6),
    (11, 9, 7),
    (12, 9, 8),
    (12, 10, 8),
    (13, 10, 4),
)


def integer_partitions(total: int, cap: int | None = None):
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in integer_partitions(total - first, first):
            yield (first,) + rest


def staircase_boxes(parts) -> set[Box]:
    return {(i, j) for j, row in enumerate(parts, start=1) for i in range(1, row + 1)}


def verify_slots() -> tuple[list[list[list]], list[int]]:
    rng = random.Random(f"{DESIGN_SEED}:{VERIFY_CORPUS}")
    slots, quotas = [], []
    for depth, count, n, quota in VERIFY_CLASSES:
        grown = distinct_grown(rng, depth, count, VERIFY_CAPS[depth], n, VERIFY_VARIANTS)
        slots.append([[_diagram_op(["verify"], box_set)] for box_set in grown])
        quotas.append(quota)
    for count, n, quota in STAIRCASE_CLASSES:
        items = [
            [_diagram_op(["verify"], staircase_boxes(parts))]
            for parts in integer_partitions(count)
            if parts[0] + len(parts) == n
        ]
        slots.append(items)
        quotas.append(quota)
    return slots, quotas


# ---------------------------------------------------------------------------
# macaulay-hvectors: macaulay --h on admissible h-vectors


def macaulay_representation(a: int, i: int) -> list[tuple[int, int]]:
    rep = []
    while a > 0 and i > 0:
        top = i
        while math.comb(top + 1, i) <= a:
            top += 1
        rep.append((top, i))
        a -= math.comb(top, i)
        i -= 1
    return rep


def macaulay_bound(a: int, i: int) -> int:
    """a^<i>, the largest admissible entry after a in degree i."""
    return sum(math.comb(top + 1, low + 1) for top, low in macaulay_representation(a, i))


def is_admissible(h) -> bool:
    if not h or h[0] != 1 or any(x < 0 for x in h):
        return False
    return all(h[i + 1] <= macaulay_bound(h[i], i) for i in range(1, len(h) - 1))


def realized_n(h) -> int:
    """n of the diagram realizing h: the revlex-segment multicomplex in h_1
    variables, shifted up by one, has largest coordinate 1 + max exponent."""
    nv = h[1]
    top = [0] * nv
    for degree, count in enumerate(h):
        if degree == 0 or count == 0:
            continue
        segment = sorted(
            (tuple(combo.count(v) for v in range(nv))
             for combo in combinations_with_replacement(range(nv), degree)),
            key=lambda e: tuple(reversed(e)),
        )[:count]
        for exps in segment:
            top = [max(t, e) for t, e in zip(top, exps)]
    return sum(t + 1 for t in top)


MACAULAY_CANDIDATES = 480
MACAULAY_H1 = (3, 9)
MACAULAY_LENGTH = (3, 6)

# Bands of the dual generator count g of each candidate (recorded in the
# golden file) with items per pass.  The cost of an op follows g closely
# (below g = 21 it doubles with each generator), so narrow bands keep the
# work of a pass, and its latency percentiles, steady from seed to seed.  The
# bands up to g = 30 take about three quarters of their candidates: an op's
# cost also depends on what the ops before it left in the splitting cache,
# and with most candidates taken that changes little from seed to seed.  The
# quotas put op_p50_ms among the 21..30 bands and op_p90_ms among the 41..50
# bands, among many ops of similar cost.  Duals with g <= 20 generators go
# through the inclusion-exclusion series path; larger duals go through the
# splitting path and its cross-op cache.  No band takes 17 <= g <= 20 or
# g > 70: one such op costs 0.5 s to 12 s, so one draw more or less would
# swing a pass.
MACAULAY_BANDS = (
    ((6, 8), 27),
    ((9, 10), 17),
    ((11, 11), 12),
    ((12, 12), 10),
    ((13, 13), 1),
    ((14, 14), 2),
    ((15, 15), 3),
    ((16, 16), 1),
    ((21, 22), 17),
    ((23, 25), 17),
    ((26, 28), 17),
    ((29, 30), 12),
    ((31, 33), 8),
    ((34, 36), 8),
    ((37, 39), 8),
    ((41, 42), 9),
    ((43, 45), 8),
    ((46, 47), 6),
    ((48, 50), 7),
    ((51, 60), 3),
    ((61, 70), 1),
)


def macaulay_candidates() -> list[tuple[int, ...]]:
    rng = random.Random(f"{DESIGN_SEED}:{MACAULAY_HVECTORS}")
    out, seen = [], set()
    while len(out) < MACAULAY_CANDIDATES:
        h = [1, rng.randint(*MACAULAY_H1)]
        length = rng.randint(*MACAULAY_LENGTH)
        while len(h) < length:
            h.append(rng.randint(1, macaulay_bound(h[-1], len(h) - 1)))
        h = tuple(h)
        if h in seen or realized_n(h) > MACAULAY_MAX_N:
            continue
        seen.add(h)
        out.append(h)
    return out


def macaulay_op(h) -> list:
    return [["macaulay", "--h", ",".join(map(str, h))], None]


def macaulay_slots(dual_sizes: dict[str, int]) -> tuple[list[list[list]], list[int]]:
    """Band the candidates by the dual generator counts in the golden file."""
    slots, quotas = [], []
    candidates = macaulay_candidates()
    for (low, high), quota in MACAULAY_BANDS:
        items = [
            [macaulay_op(h)]
            for h in candidates
            if low <= dual_sizes.get(op_key(macaulay_op(h)), -1) <= high
        ]
        slots.append(items)
        quotas.append(quota)
    return slots, quotas


# ---------------------------------------------------------------------------
# Pool, selection and keys


def op_key(op) -> str:
    """Stable identity of an op: its argv and its stdin text."""
    return hashlib.sha256(json.dumps(op, separators=(",", ":")).encode()).hexdigest()[:24]


def pool_slots(workload: str, golden: dict) -> tuple[list[list[list]], list[int]]:
    """The slots of a workload with the number of items each pass takes."""
    if workload == REPORT_LADDER:
        slots = report_ladder_slots()
        return slots, [LADDER_QUOTA] * len(slots)
    if workload == VERIFY_CORPUS:
        return verify_slots()
    if workload == MACAULAY_HVECTORS:
        return macaulay_slots(golden.get("dual_generators", {}))
    raise KeyError(workload)


def all_pool_ops(workload: str) -> list:
    """Every op any seed can produce, for the golden record."""
    if workload == MACAULAY_HVECTORS:
        return [macaulay_op(h) for h in macaulay_candidates()]
    slots, _ = pool_slots(workload, {})
    return [op for items in slots for item in items for op in item]


def make_ops(workload: str, seed: int, golden: dict) -> list:
    """The ops of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    slots, quotas = pool_slots(workload, golden)
    chosen = []
    for items, quota in zip(slots, quotas):
        chosen.append(rng.sample(items, quota))
    # report-ladder runs in growing order, each shape's three ops together;
    # macaulay-hvectors runs its bands in growing g, each in the seeded order
    # rng.sample gives, so the ops that warm the splitting cache before an op
    # differ little from seed to seed.  verify-corpus runs in seeded order.
    ops = [op for picks in chosen for item in picks for op in item]
    if workload == VERIFY_CORPUS:
        rng.shuffle(ops)
    return ops

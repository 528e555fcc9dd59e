"""Definition-level verification tools for monomial ideals.

Graded Betti numbers over the rationals are computed from scratch on the
polarized generator bitmasks that also feed the Hilbert series
(``MonomialIdeal.masks``): for every multidegree in their lcm lattice, the
homology of the upper Koszul simplicial complex is read, after a strong
collapse that deletes one dominated vertex a pass, off a sequential
element matching (discrete Morse theory), with the exact rational rank of
boundary matrices as the fallback when the critical faces lie in more than
one dimension, refused (``SizeLimitExceeded``) past ``EXACT_RANK_MAX_FACES``
faces.  That homology depends only on the pattern of generators
below the multidegree, renumbered, so it is memoized per pattern in one
bounded memo shared by every call in the process (4096 patterns), and the
whole table is memoized per sorted mask tuple in a second bounded memo (64
tables), so a repeated call on the same ideal only polarizes and looks up.
Truncated Hilbert functions count on true exponent vectors, unpolarized,
variable by variable: the counts in every degree up to the bound are
memoized per (variable, distinct exponent tails of the surviving generators
on the variables left), a surviving generator with no exponent on the
variables left makes the count zero without recursing, and each interval of
exponents over which the surviving set is constant adds one sub-vector as a
running sum.  Intersections of monomial ideals
polarize all of them jointly, once, and fold minimal ORs of masks.  Nothing
here knows about diagrams or closed formulas, so
agreement with the formula modules is a genuine two-route check; the Betti
table type both routes return, ``GradedBettiTable``, lives in ``ideal``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import SizeLimitExceeded
from .ideal import GradedBettiTable, Monomial, MonomialIdeal, variable_key
from .ideal import _antichain_ideal, _bit_indices, _polarize
from .limits import DEFAULT_LIMITS, Limits

# The exact-rank fallback of ``_morse_homology`` refuses complexes of more
# faces than this: its elimination grows about with the cube of the faces,
# and the diagram ideals of the tests and benchmark pools never reach it.
EXACT_RANK_MAX_FACES = 1024


def _submask_faces(maximal: list[int]) -> set[int]:
    faces: set[int] = set()
    for top in maximal:
        sub = top
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return faces


def _rank(columns) -> int:
    """Exact rank over the rationals of a sparse integer matrix given as
    columns {row: value}.

    Pivot columns are kept with their minimal row as pivot, so reducing a
    column strictly increases its minimal row and terminates.  The arithmetic
    stays in the integers, fraction-free: the column is cross-multiplied by
    the pivot's lead, the pivot subtracted, and the result divided by the gcd
    of its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in sorted(columns, key=len):
        col = dict(raw)
        while col:
            row = min(col)
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = col
                break
            lead, factor = pivot[row], col[row]
            col = {r: v * lead for r, v in col.items()}
            for r, v in pivot.items():
                new = col.get(r, 0) - factor * v
                if new:
                    col[r] = new
                else:
                    col.pop(r, None)
            g = math.gcd(*col.values())
            col = {r: v // g for r, v in col.items()}
    return len(pivots)


def _boundary_columns(sources: list[int], target_index: dict[int, int]):
    for face in sources:
        col = {}
        for position, v in enumerate(_bit_indices(face)):
            row = target_index[face & ~(1 << v)]
            col[row] = 1 if position % 2 == 0 else -1
        yield col


def _homology_of_faces(faces: set[int]) -> dict[int, int]:
    """Reduced homology ranks by dimension of a complex given by all its faces
    as bitmasks (the empty face included when the complex is nonvoid)."""
    if not faces:
        return {}
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    top = max(by_size)
    boundary_rank = {}
    for size in range(1, top + 1):
        sources = by_size.get(size, [])
        targets = by_size.get(size - 1, [])
        index = {mask: i for i, mask in enumerate(sorted(targets))}
        boundary_rank[size] = _rank(_boundary_columns(sorted(sources), index))
    ranks = {}
    for size in range(top + 1):
        h = (
            len(by_size.get(size, []))
            - boundary_rank.get(size, 0)
            - boundary_rank.get(size + 1, 0)
        )
        if h:
            ranks[size - 1] = h
    return ranks


def _morse_homology(faces: set[int], vertex_count: int) -> dict[int, int]:
    """Reduced homology of a complex given by all its faces, by a sequential
    element matching (Forman; Jonsson, Simplicial Complexes of Graphs).

    For v = 0, 1, ... in turn, each still unmatched face F without v is paired
    with F | v when that face is unmatched too.  The matching is acyclic, so
    the complex is homotopy equivalent to one with a cell per critical face.
    When those all have one size s, the Morse complex has zero differential
    and the homology is their count in dimension s - 1; otherwise exact rank
    over the rationals decides, on at most ``EXACT_RANK_MAX_FACES`` faces.
    """
    critical = set(faces)
    for v in range(vertex_count):
        bit = 1 << v
        matched = [f for f in critical if not f & bit and f | bit in critical]
        critical.difference_update(matched)
        critical.difference_update([f | bit for f in matched])
    sizes = {f.bit_count() for f in critical}
    if len(sizes) > 1:
        if len(faces) > EXACT_RANK_MAX_FACES:
            raise SizeLimitExceeded(
                f"{len(faces)} faces exceed exact-rank limit {EXACT_RANK_MAX_FACES}"
            )
        return _homology_of_faces(faces)
    return {size - 1: len(critical) for size in sizes}


def _strong_collapse(vertices: int, sets) -> tuple[int, list[int]] | None:
    """Iteratively delete dominated vertices (Barmak–Minian, Discrete Comput.
    Geom. 47, 2012); None means the complex became visibly contractible (a
    cone or a full simplex on some vertex), so all reduced homology
    vanishes.  Vertices and sets are bitmasks.  A round keeps each distinct
    set, by ascending popcount, unless a kept one is its subset; ORs each
    kept set's column into its vertices' incidence; and deletes the highest
    vertex whose incidence contains another's, which keeps the homotopy
    type.  The core returned holds the minimal sets, sorted.
    """
    while True:
        kept: list[int] = []
        covered = 0
        for s in sorted(set(sets), key=int.bit_count):
            for k in kept:
                if k & s == k:
                    break
            else:
                kept.append(s)
                covered |= s
        if not kept or kept[0] == 0 < vertices or covered != vertices:
            return None
        members = _bit_indices(vertices)
        incidence = [0] * vertices.bit_length()
        for i, s in enumerate(kept):
            for v in _bit_indices(s):
                incidence[v] |= 1 << i
        for v in reversed(members):
            outside = ~incidence[v]
            for u in members:
                if not incidence[u] & outside and u != v:
                    break
            else:
                continue
            break  # v is dominated by u
        else:
            return vertices, sorted(kept)
        vertices &= ~(1 << v)
        sets = [s & ~(1 << v) for s in kept]


def _avoidance_homology(vertices: int, sets) -> dict[int, int]:
    """Homology of the complex whose faces are the subsets of ``vertices``
    disjoint from at least one of the given sets (all bitmasks)."""
    core = _strong_collapse(vertices, sets)
    if core is None:
        return {}
    core_vertices, core_sets = core
    size = core_vertices.bit_count()
    full = (1 << size) - 1
    maximal = [full & ~_rank_bits(s, core_vertices) for s in core_sets]
    return _morse_homology(_submask_faces(maximal), size)


def _rank_bits(mask: int, within: int) -> int:
    """Renumber the bits of ``mask``, a submask of ``within``, by their rank
    among the bits of ``within``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (within & (low - 1)).bit_count()
        mask ^= low
    return out


@lru_cache(maxsize=4096)
def _pattern_homology(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(dimension, rank) pairs of the nonzero reduced homology of the complex
    whose faces are the subsets of bits 0..d-1 disjoint from some mask of
    ``key``, a sorted tuple of masks whose union is all d bits.

    The ranks are a function of the key alone, so one memo serves every call
    and every ideal.  It is bounded at 4096 patterns, above the 3084 distinct
    ones of the largest single call measured (example 54432); full of the
    worst keys the default limits allow, 60 masks on 16 bits, it holds about
    11 MB (2.7 KB a pattern, by tracemalloc).
    """
    vertices = (1 << key[-1].bit_length()) - 1
    return tuple(_avoidance_homology(vertices, key).items())


def _lcm_lattice(masks: tuple[int, ...]) -> set[int]:
    """The OR-closure of the masks: each mask joins every element so far."""
    lattice: set[int] = set()
    for g in masks:
        lattice |= {x | g for x in lattice}
        lattice.add(g)
    return lattice


def graded_betti_brute(
    ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS
) -> GradedBettiTable:
    """Graded Betti numbers of S/I over the rationals, by upper Koszul
    homology over the lcm lattice.

    Polarization (``_polarize``) keeps graded Betti numbers, so this works on
    squarefree bitmasks, and ``oracle_max_variables`` counts polarized
    variables.  For alpha in the OR-closure of the masks, faces are
    the subsets of alpha avoiding some generator below alpha, and
    beta_{j, alpha}(S/I) is the reduced homology rank of that complex in
    dimension j - 2, read off an element matching after strong collapse, with
    exact rational rank only where the critical faces span two dimensions.  The
    generators below alpha cover it, so the complex is fixed by them with
    alpha's bits renumbered in order.  Each such pattern is computed once per
    process while it stays in the memo of ``_pattern_homology``, which keeps
    the 4096 most recently used.  The limits are checked and the zero and
    unit ideals answered first; the rest is ``_betti_of_masks`` on the sorted
    masks, memoized on them (64 tables), so a second call on an ideal with
    the same masks reuses the table.
    """
    _, width, (masks,) = _polarize((ideal.generators,), ideal.ambient)
    # every ambient variable owns one bit, and one of width w above 1 owns w
    nvars = len(ideal.ambient) + sum(width.values()) - len(width)
    if nvars > limits.oracle_max_variables:
        raise SizeLimitExceeded(
            f"{nvars} variables exceed oracle limit {limits.oracle_max_variables}"
        )
    if len(masks) > limits.oracle_max_generators:
        raise SizeLimitExceeded(
            f"{len(masks)} generators exceed oracle limit "
            f"{limits.oracle_max_generators}"
        )
    if not masks or 0 in masks:
        return GradedBettiTable(())  # the zero ideal, or the unit ideal
    return _betti_of_masks(tuple(sorted(masks)))


@lru_cache(maxsize=64)
def _betti_of_masks(ordered: tuple[int, ...]) -> GradedBettiTable:
    """The graded Betti table of the ideal of the sorted, nonzero masks
    ``ordered``: the lattice walk of ``graded_betti_brute``.

    The table is a function of the masks alone, so it is memoized on them;
    a repeated call on one ideal, as ``verify``'s second check makes right
    after its first, costs one polarization and one lookup.  The memo keeps
    the 64 most recently used tables.
    """
    # renumbering keeps the order of submasks of alpha, so keys come sorted;
    # a key built from a list is allocated once, at its size (from a generator
    # it is resized, and a verify-corpus pass peaks about 0.5 MB higher)
    entries: dict[tuple[int, int], int] = {}
    for alpha in _lcm_lattice(ordered):
        key = tuple([_rank_bits(g, alpha) for g in ordered if g & alpha == g])
        degree = alpha.bit_count()
        for dim, value in _pattern_homology(key):
            j = dim + 2
            entries[(j, degree)] = entries.get((j, degree), 0) + value
    return GradedBettiTable.of(entries)


def _check_truncation(max_degree: int, limits: Limits) -> None:
    """The truncation limit of ``hilbert_function_truncated``, also checked by
    ``verify`` on its flag before any oracle work."""
    if max_degree > limits.truncation_max_degree:
        raise SizeLimitExceeded(
            f"degree {max_degree} exceeds truncation limit {limits.truncation_max_degree}"
        )


def hilbert_function_truncated(
    ideal: MonomialIdeal, max_degree: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """Dimensions of (S/I)_d for d = 0..max_degree, by counting the monomials
    in the ambient variables divisible by no generator.

    ``count(i, active)`` is the vector of such counts, in every degree up to
    ``max_degree``, over the variables i.. when only the generators in
    ``active`` can still divide.  That vector depends only on the set of the
    active generators' exponent tails on variables i.., so it is memoized on
    (i, that set), with ``tail[i]`` giving each generator the bit of its
    tail among the distinct tails at level i: generators that differ only on
    variables already passed share one state.  An active generator with no
    exponent on variables i.. divides every monomial left, so when
    ``active`` meets ``done[i]``, the generators supported on variables < i,
    the count is zero and is neither computed nor memoized; this also covers
    the unit ideal and the end of the variables.  Along variable i the
    surviving set changes only at 0 and at the generators' exponents on i up
    to ``max_degree``, so each interval [low, high) between those levels
    reads one sub-vector and adds it, shifted by low..high-1, as a running
    sum.
    """
    _check_truncation(max_degree, limits)
    variables = ideal.ambient
    n = len(variables)
    factors = [dict(g.factors) for g in ideal.generators]
    gens = [tuple(f.get(v, 0) for v in variables) for f in factors]
    top = max_degree + 1
    zeros = (0,) * top
    # levels[i]: (e, generators whose exponent on variable i is at most e) for
    # e = 0 and each such exponent up to max_degree, ascending
    levels = [
        [
            (e, sum(1 << k for k, g in enumerate(gens) if g[i] <= e))
            for e in sorted({0} | {g[i] for g in gens if g[i] < top})
        ]
        for i in range(n)
    ]
    # done[i]: the generators whose last variable with an exponent is before i
    last = [max((i for i, e in enumerate(g) if e), default=-1) for g in gens]
    done = [sum(1 << k for k, j in enumerate(last) if j < i) for i in range(n + 1)]
    # tail[i][k]: the bit of generator k's exponents on variables i.. among
    # the distinct such tails at level i
    tail = []
    for i in range(n + 1):
        index: dict[tuple[int, ...], int] = {}
        tail.append([1 << index.setdefault(g[i:], len(index)) for g in gens])
    memo: dict = {}

    def count(i: int, active: int) -> tuple[int, ...]:
        if active & done[i]:
            return zeros
        tails = 0
        for k in _bit_indices(active):
            tails |= tail[i][k]
        key = (i, tails)
        cached = memo.get(key)
        if cached is not None:
            return cached
        remaining = n - i
        if active == 0:
            if remaining == 0:
                result = (1,) + (0,) * max_degree
            else:
                result = tuple(
                    math.comb(s + remaining - 1, remaining - 1) for s in range(top)
                )
        else:
            total = [0] * top
            steps = levels[i]
            for step, (low, stay) in enumerate(steps):
                high = steps[step + 1][0] if step + 1 < len(steps) else top
                sub = count(i + 1, active & stay)
                run = 0
                for d in range(low, top):
                    run += sub[d - low]
                    if d >= high:
                        run -= sub[d - high]
                    total[d] += run
            result = tuple(total)
        memo[key] = result
        return result

    counts = count(0, (1 << len(gens)) - 1)
    # count refers to itself through its closure, so only a cyclic garbage
    # collection would otherwise free the memo
    memo.clear()
    return counts


def intersect_monomial(first: MonomialIdeal, *rest: MonomialIdeal) -> MonomialIdeal:
    """The intersection of monomial ideals, over the union of their ambients:
    its generators are the minimal lcms of one generator from each.

    All the ideals are polarized together once (``_polarize``), so an lcm is
    an OR of masks.  From the unit ideal's mask 0, each ideal's masks in turn
    are ORed into the minimal ones so far, kept minimal by one pass by
    ascending popcount with a subset test, and the last ones decode once,
    each block's popcount back to an exponent.  Exact for any monomial
    ideals, squarefree or not.
    """
    ideals = (first, *rest)
    ambient = sorted(set().union(*(i.ambient for i in ideals)), key=variable_key)
    offset, width, groups = _polarize([i.generators for i in ideals], ambient)
    minimal = [0]
    for masks in groups:
        lcms = sorted({g | h for g in minimal for h in masks}, key=int.bit_count)
        minimal = []
        for m in lcms:
            if not any(k & m == k for k in minimal):
                minimal.append(m)
    blocks = [(v, ((1 << width.get(v, 1)) - 1) << offset[v]) for v in ambient]
    gens = [
        Monomial(tuple((v, e) for v, block in blocks if (e := (m & block).bit_count())))
        for m in minimal
    ]
    return _antichain_ideal(gens, ambient)

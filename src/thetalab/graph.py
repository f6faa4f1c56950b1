"""Simple undirected graphs over bitset adjacency rows, with the exact
pattern-freeness checkers, BFS layering, and chromatic bounds the
verification suite is built on.

All checkers are exact searches: they gate mathematical claims, so a
heuristic false negative is unacceptable.  Work caps raise
ComplexityRefused instead of silently degrading.

The rows are Python ints, so numpy is imported only by the four functions
that build or read arrays (Graph.packed, from_row_blocks, adjacency_rows
and _codegree_reaches): a process that never calls them never loads it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from itertools import combinations, repeat
from math import comb
from typing import TYPE_CHECKING

from .errors import (
    ComplexityRefused,
    IndexOutOfRange,
    LoopRejected,
    PreconditionViolated,
    UnsupportedPattern,
)

if TYPE_CHECKING:
    import numpy as np

BICLIQUE_SUBSET_CAP = 10**7
CHROMATIC_N_CAP = 40
# largest vertex count any graph is built with (refuse_above_vertex_cap): the
# bitset rows alone take n^2/8 bytes, and Graph.packed holds them once more
GRAPH_N_CAP = 20_000
# rows of A per codegree tile, unpacked from Graph.packed, and per batch of
# row ints made by from_row_blocks
TILE_ROWS = 256


def _bits(x: int):
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


@dataclass(frozen=True)
class Graph:
    """Simple graph: n vertices 0..n-1, adjacency as n bitset rows."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """The bitset rows as a read-only (n, ceil(n/8)) uint8 array, bits
        little-endian, packed on first access (or by from_row_blocks).

        A cached value, not a field: equality, hashing and repr ignore it.
        """
        import numpy as np

        width = (self.n + 7) // 8
        rows = b"".join(r.to_bytes(width, "little") for r in self.adj)
        return np.frombuffer(rows, dtype=np.uint8).reshape(self.n, width)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        return _bits(self.adj[v])

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list sorted lexicographically, u < v."""
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u] >> (u + 1) << (u + 1))]


def from_row_blocks(n: int, blocks, labels: tuple[str, ...] | None = None) -> Graph:
    """The graph whose adjacency rows arrive as consecutive boolean blocks.

    blocks yields (k, n) boolean arrays, rows 0..n-1 in order, of a
    symmetric relation with a clear diagonal.  Each block is packed as it
    arrives, and the row ints are made from the packed rows TILE_ROWS rows
    at a time, so the bytes objects in flight take O(TILE_ROWS * n) bits,
    not another n^2.  The graph starts with Graph.packed already set.
    """
    import numpy as np

    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    s = 0
    for block in blocks:
        packed[s : s + len(block)] = np.packbits(block, axis=1, bitorder="little")
        s += len(block)
    packed.flags.writeable = False
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()  # tolist() gives one bytes object per row
    adj: list[int] = []
    for s in range(0, n, TILE_ROWS):
        adj.extend(map(int.from_bytes, rows[s : s + TILE_ROWS].tolist(), repeat("little")))
    g = Graph(n, tuple(adj), labels)
    vars(g)["packed"] = packed  # the cache slot of Graph.packed
    return g


def adjacency_rows(g: Graph) -> np.ndarray:
    """The adjacency matrix as a 0/1 uint8 array."""
    import numpy as np

    return np.unpackbits(g.packed, axis=1, count=g.n, bitorder="little")


def refuse_above_vertex_cap(n: int) -> None:
    """Raise ComplexityRefused if n exceeds GRAPH_N_CAP."""
    if n > GRAPH_N_CAP:
        raise ComplexityRefused(f"n = {n} vertices, above the vertex cap {GRAPH_N_CAP}")


def from_edges(n: int, edges, labels=None) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected.

    n above GRAPH_N_CAP is refused with ComplexityRefused before anything
    is allocated.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    refuse_above_vertex_cap(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise LoopRejected(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValueError("labels length must equal n")
    return Graph(n, tuple(adj), labels)


def empty_graph(n: int) -> Graph:
    return from_edges(n, [])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def clique_union(n: int, t: int) -> Graph:
    """Disjoint union of ceil(n/t) cliques: all of size t except a short last one.

    n above GRAPH_N_CAP is refused with ComplexityRefused before any row is
    built.  The row of v in the part start..stop-1 is the bits start..stop-1
    without v's own.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    refuse_above_vertex_cap(n)
    rows = []
    for start in range(0, n, t):
        stop = min(start + t, n)
        part = (1 << stop) - (1 << start)
        rows.extend(part - (1 << v) for v in range(start, stop))
    return Graph(n, tuple(rows))


def clique_union_parts(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The clique partition matching clique_union(n, t)."""
    return tuple(tuple(range(start, min(start + t, n))) for start in range(0, n, t))


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj)), g.labels)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u in vs for v in _bits(g.adj[u]) if v in pos and u < v]
    labels = tuple(g.labels[v] for v in vs) if g.labels is not None else None
    return from_edges(len(vs), edges, labels)


# ---------------------------------------------------------------------------
# pattern checkers
# ---------------------------------------------------------------------------


def _codegree_reaches(g: Graph, s: int) -> bool:
    """True iff two distinct vertices have at least s common neighbours.

    Common-neighbour counts are the off-diagonal entries of A·A.  They are
    computed one tile pair i <= j at a time, each tile TILE_ROWS rows of A
    unpacked as float32 from g.packed, so no n x n matrix is held: the
    extra memory is n^2/8 bytes plus O(TILE_ROWS * n).
    float32 is exact here: every partial sum is an integer <= n < 2^24.
    """
    import numpy as np

    n = g.n
    packed = g.packed

    def tile(i):
        return np.unpackbits(packed[i : i + TILE_ROWS], axis=1, count=n, bitorder="little").astype(np.float32)

    for i in range(0, n, TILE_ROWS):
        left = tile(i)
        for j in range(i, n, TILE_ROWS):
            right = left if j == i else tile(j)
            common = left @ right.T
            if j == i:
                np.fill_diagonal(common, 0.0)
            if common.max() >= s:
                return True
    return False


def contains_cycle(g: Graph, k: int) -> bool:
    """True iff g contains a cycle of length exactly k as a subgraph.

    A 4-cycle is exactly two distinct vertices with >= 2 common neighbours,
    so k = 4 is decided from codegrees (_codegree_reaches).  Other k use a
    backtracking DFS over simple paths rooted at each cycle's minimum
    vertex, pruned by BFS distance back to the root.  A cycle longer than
    n does not fit, so k > n is False without a search.
    """
    if k < 3:
        raise PreconditionViolated("cycle length must be >= 3")
    if k > g.n:
        return False
    if k == 4:
        return _codegree_reaches(g, 2)
    n, adj = g.n, g.adj
    for s in range(n):
        allowed = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)  # vertices > s
        # BFS distances from s inside allowed ∪ {s}; unreachable stays large
        dist = [k + 1] * n
        dist[s] = 0
        frontier = 1 << s
        seen = frontier
        d = 0
        while frontier and d <= k:
            d += 1
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            nxt &= allowed & ~seen
            for u in _bits(nxt):
                dist[u] = d
            seen |= nxt
            frontier = nxt

        found = False

        def walk(u, used, length):
            nonlocal found
            if found:
                return
            if length == k - 1:
                if adj[u] >> s & 1:
                    found = True
                return
            rem_after = k - length - 1  # edges left after stepping; BFS dist is a lower bound
            for w in _bits(adj[u] & allowed & ~used):
                if dist[w] <= rem_after:
                    walk(w, used | (1 << w), length + 1)
                    if found:
                        return

        for v in _bits(adj[s] & allowed):
            walk(v, (1 << s) | (1 << v), 1)
            if found:
                return True
    return False


def contains_complete_bipartite(g: Graph, t: int, s: int) -> bool:
    """True iff some t-subset has >= s common neighbors (a K_{t,s} subgraph).

    Enumerates the smaller side t; common neighbors are automatically
    disjoint from the subset since loops are absent.  For t = 2 the
    verdict is whether some off-diagonal codegree reaches s, read from A·A
    (_codegree_reaches) instead of a loop over pairs, so it has C4's limits
    only.  Other t refuse C(n, t) > BICLIQUE_SUBSET_CAP before any work.
    """
    if not 1 <= t <= s:
        raise PreconditionViolated("need 1 <= t <= s")
    n, adj = g.n, g.adj
    if t > n:
        return False
    if t == 2:
        return _codegree_reaches(g, s)
    if comb(n, t) > BICLIQUE_SUBSET_CAP:
        raise ComplexityRefused(f"C({n},{t}) exceeds cap {BICLIQUE_SUBSET_CAP}")
    for subset in combinations(range(n), t):
        common = (1 << n) - 1
        for v in subset:
            common &= adj[v]
            if common.bit_count() < s:
                break
        else:
            if common.bit_count() >= s:
                return True
    return False


def max_clique_size(g: Graph, stop_at: int | None = None) -> int:
    """Maximum clique size via branch-and-bound with greedy-coloring pruning.

    With stop_at, returns early once a clique of that size is found.
    """
    adj = g.adj
    best = 0

    def color_sort(cand):
        order, colors = [], []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail ^= b
                avail &= ~adj[v]
                rest ^= b
                order.append(v)
                colors.append(color)
        return order, colors

    def expand(r_size, cand):
        nonlocal best
        if cand == 0:
            if r_size > best:
                best = r_size
            return
        order, colors = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if stop_at is not None and best >= stop_at:
                return
            if r_size + colors[i] <= best:
                return
            v = order[i]
            expand(r_size + 1, cand & adj[v])
            cand &= ~(1 << v)

    if g.n == 0:
        return 0
    expand(0, (1 << g.n) - 1)
    return best


def contains_clique(g: Graph, t: int) -> bool:
    """True iff g has a clique on t vertices."""
    if t < 1:
        raise PreconditionViolated("clique size must be >= 1")
    return max_clique_size(g, stop_at=t) >= t


# ---------------------------------------------------------------------------
# BFS layers and coloring
# ---------------------------------------------------------------------------


def bfs_layers(g: Graph, v: int) -> list[set[int]]:
    """A_i = vertices at distance exactly i from v; unreachable omitted."""
    if not 0 <= v < g.n:
        raise IndexOutOfRange(f"vertex {v} outside [0,{g.n})")
    layers = [{v}]
    seen = 1 << v
    frontier = 1 << v
    while True:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~seen
        if not nxt:
            return layers
        layers.append(set(_bits(nxt)))
        seen |= nxt
        frontier = nxt


def _greedy_coloring_bound(g: Graph) -> int:
    """Colors used by largest-degree-first greedy; an upper bound on chi."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    colors = {}
    used = 0
    for v in order:
        taken = {colors[u] for u in _bits(g.adj[v]) if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def _k_colorable(g: Graph, k: int) -> bool:
    """Exact k-colorability by saturation-ordered backtracking."""
    n, adj = g.n, g.adj
    colors = [-1] * n
    full_k = (1 << k) - 1

    def pick():
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if colors[v] != -1:
                continue
            sat = 0
            for u in _bits(adj[v]):
                if colors[u] != -1:
                    sat |= 1 << colors[u]
            key = (sat.bit_count(), adj[v].bit_count())
            if key > best_key:
                best_v, best_key = v, key
        return best_v

    def bt(done, max_used):
        if done == n:
            return True
        v = pick()
        sat = 0
        for u in _bits(adj[v]):
            if colors[u] != -1:
                sat |= 1 << colors[u]
        if sat == full_k:
            return False
        limit = min(k, max_used + 1)  # at most one brand-new color: breaks color symmetry
        for c in range(limit):
            if sat >> c & 1:
                continue
            colors[v] = c
            if bt(done + 1, max(max_used, c + 1)):
                return True
            colors[v] = -1
        return False

    return bt(0, 0)


def chromatic_number_exact(g: Graph) -> int:
    """Exact chromatic number; clique lower bound, greedy upper bound,
    backtracking in between."""
    if g.n > CHROMATIC_N_CAP:
        raise ComplexityRefused(f"n = {g.n} exceeds chromatic cap {CHROMATIC_N_CAP}")
    if g.n == 0:
        return 0
    lower = max_clique_size(g)
    upper = _greedy_coloring_bound(g)
    k = lower
    while k < upper and not _k_colorable(g, k):
        k += 1
    return k


@dataclass(frozen=True)
class LayerColoringReport:
    """Outcome of the BFS-layer chromatic bound check."""

    k: int
    bound: int  # = k - 2
    ok: bool
    max_layer_chi: int
    entries: tuple = field(default_factory=tuple)  # (root, layer index, chi, ok)


def layer_chromatic_check(g: Graph, k: int) -> LayerColoringReport:
    """For a graph with no cycle of length exactly k, every BFS layer A_i
    with i <= floor((k-1)/2) must have chromatic number <= k-2."""
    if contains_cycle(g, k):
        raise PreconditionViolated(f"graph contains a cycle of length {k}")
    bound = k - 2
    i_max = (k - 1) // 2
    entries = []
    max_chi = 0
    ok = True
    for root in range(g.n):
        layers = bfs_layers(g, root)
        for i in range(min(i_max, len(layers) - 1) + 1):
            sub = induced_subgraph(g, layers[i])
            chi = chromatic_number_exact(sub)
            good = chi <= bound
            ok = ok and good
            max_chi = max(max_chi, chi)
            entries.append((root, i, chi, good))
    return LayerColoringReport(k, bound, ok, max_chi, tuple(entries))


# ---------------------------------------------------------------------------
# pattern descriptions ("C5", "K4", "K2,3")
# ---------------------------------------------------------------------------


def parse_pattern(text: str):
    """Parse a forbidden-pattern name: C<k>, K<t>, or K<t>,<s>.

    Each number is ASCII digits only; int() alone would also take signs,
    spaces, underscores and other scripts' digits.
    """
    text = text.strip().upper()
    m = re.fullmatch(r"C([0-9]+)|K([0-9]+)(?:,([0-9]+))?", text)
    if m and m[1] and int(m[1]) >= 3:
        return ("cycle", int(m[1]))
    if m and m[3]:
        t, s = sorted((int(m[2]), int(m[3])))
        if t >= 1:
            return ("biclique", (t, s))
    elif m and m[2] and int(m[2]) >= 1:
        return ("clique", int(m[2]))
    raise UnsupportedPattern(f"unrecognized pattern {text!r}; use C<k>, K<t>, or K<t>,<s>")


def contains_pattern(g: Graph, text: str) -> bool:
    kind, arg = parse_pattern(text)
    if kind == "cycle":
        return contains_cycle(g, arg)
    if kind == "clique":
        return contains_clique(g, arg)
    t, s = arg
    return contains_complete_bipartite(g, t, s)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return obj


def json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats and booleans are refused, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value, what: str) -> float:
    """value as a float if it is a JSON number; strings and booleans are refused, not converted."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    edges = [(json_int(u, "edge endpoint"), json_int(v, "edge endpoint")) for u, v in obj.get("edges", [])]
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError(f"labels must be a list, got {type(labels).__name__}")
    return from_edges(json_int(obj["n"], "n"), edges, labels)


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _text_int(token: str) -> int:
    """An edge-list number: ASCII digits only, as in parse_pattern."""
    if not re.fullmatch(r"[0-9]+", token):
        raise ValueError(f"edge-list number must be ASCII digits, got {token!r}")
    return int(token)


def graph_from_text(text: str) -> Graph:
    """Parse graph_to_text's format.

    Lines end at "\n" or "\r\n" and tokens are separated by ASCII spaces
    and tabs only, so any other separator (a no-break space, a Unicode line
    separator, a lone "\r") stays inside a token and is refused.
    """
    lines = [(ln, re.findall(r"[^ \t]+", ln)) for ln in text.replace("\r\n", "\n").split("\n")]
    lines = [(ln, tokens) for ln, tokens in lines if tokens]
    if not lines:
        raise ValueError("empty edge-list text")
    (head_line, head), *edge_lines = lines
    if len(head) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {head_line!r}")
    n, m = _text_int(head[0]), _text_int(head[1])
    if len(edge_lines) != m:
        raise ValueError(f"header promises {m} edges, found {len(edge_lines)} edge lines")
    edges = []
    for ln, ends in edge_lines:
        if len(ends) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        edges.append((_text_int(ends[0]), _text_int(ends[1])))
    return from_edges(n, edges)

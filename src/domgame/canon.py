"""Canonical labeling of partially dominated graphs.

Individualization and refinement (McKay & Piperno, *Practical graph
isomorphism II*, JSC 2014) on bitmask graphs.  An ordered partition is a
list of disjoint vertex bitmasks, its cells.  Refinement splits cells by
neighbour counts until the partition is equitable; individualization
puts one vertex of a cell in a cell of its own.  The search tree of
individualizations ends in discrete partitions, each a relabeling of the
graph; the greatest relabeled graph is the canonical form.  Two leaves
with the same relabeled graph differ by an automorphism, and the
automorphisms found so far prune the children that they map onto
children already searched.

Every step depends on cell positions and neighbour counts, never on
vertex ids, so isomorphic inputs get equal forms.  The dominated set is
the last initial cell, so an isomorphism must map it onto the other
dominated set, and every automorphism preserves it.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, bits, non_edges


def canonical_form(graph: Graph, dominated: int = 0):
    """(key, generators) of the pair (graph, dominated).

    The key is hashable and equal for two pairs exactly when some vertex
    bijection maps one graph onto the other and one dominated set onto
    the other.  The generators are permutations (tuples, v -> perm[v])
    that generate the automorphism group of the pair.
    """
    adj = [row ^ (1 << v) for v, row in enumerate(graph.closed)]
    undominated = graph.full_mask & ~dominated
    cells = [c for c in (undominated, dominated) if c]
    search = _Search(adj)
    search.run(_refine(adj, cells, cells))
    return (dominated.bit_count(), search.best[2]), search.generators


def canonical_key(graph: Graph, dominated: int = 0):
    """The key of `canonical_form` alone."""
    return canonical_form(graph, dominated)[0]


def edge_set_orbits(graph: Graph, k: int, generators):
    """The orbits of the k-sets of non-edges of `graph` under the group of
    `generators`: sorted lists of edge sets (sorted tuples of pairs u < v),
    by least member, each one edge set closed under the generators."""
    pairs = non_edges(graph)
    index = {pair: i for i, pair in enumerate(pairs)}
    perms = [[index[min(g[u], g[v]), max(g[u], g[v])] for u, v in pairs]
             for g in generators]
    # Indices follow the pairs' lexicographic order, so index tuples sort
    # as their edge sets do, and each orbit is met at its least member.
    seen = set()
    orbits = []
    for combo in combinations(range(len(pairs)), k):
        if combo in seen:
            continue
        orbit, frontier = {combo}, [combo]
        while frontier:
            member = frontier.pop()
            for perm in perms:
                image = tuple(sorted([perm[i] for i in member]))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append([tuple([pairs[i] for i in m]) for m in sorted(orbit)])
    return orbits


def _refine(adj, cells, splitters):
    """The coarsest equitable partition finer than `cells`.

    Each splitter W, taken in queue order, splits every cell by the
    number of neighbours its vertices have in W; the parts keep the
    cell's position, fewest neighbours first.  A split cell still in the
    queue is replaced there by all its parts, any other by all but its
    first largest part (Hopcroft's rule).
    """
    queue = list(splitters)
    pending = set(queue)
    n = len(adj)
    for w in queue:
        if len(cells) == n:
            break
        if w not in pending:
            continue
        pending.discard(w)
        single = not w & (w - 1)
        if single:
            touched = adj[w.bit_length() - 1]
        else:
            touched = 0
            for v in bits(w):
                touched |= adj[v]
        refined = []
        for c in cells:
            if not c & touched or not c & (c - 1):
                refined.append(c)
                continue
            if single:
                # One neighbour in w or none.
                parts = [c & ~touched, c & touched]
                if not parts[0]:
                    refined.append(c)
                    continue
            else:
                counts = {}
                for v in bits(c):
                    k = (adj[v] & w).bit_count()
                    counts[k] = counts.get(k, 0) | (1 << v)
                if len(counts) == 1:
                    refined.append(c)
                    continue
                parts = [counts[k] for k in sorted(counts)]
            refined.extend(parts)
            if c in pending:
                pending.discard(c)
                new = parts
            else:
                largest = max(parts, key=int.bit_count)
                new = [p for p in parts if p != largest]
            queue.extend(new)
            pending.update(new)
        cells = refined
    return cells


class _Search:
    """One depth-first search of the individualization tree."""

    def __init__(self, adj):
        self.adj = adj
        self.neighbours = [list(bits(row)) for row in adj]
        self.generators = []
        self.first = None       # (path, labeling, rows) of the first leaf
        self.best = None        # the same for the greatest leaf so far

    def run(self, cells, path=()):
        """Search below the node reached by individualizing `path`.

        Returns None, or the depth of the ancestor to resume from when
        an automorphism showed that the rest of its current child's
        subtree repeats leaves already seen.
        """
        if len(cells) == len(self.adj):
            return self._leaf(cells, path)
        target = min((c for c in cells if c & (c - 1)), key=int.bit_count)
        at = cells.index(target)
        depth = len(path)
        searched = 0
        for v in bits(target):
            if searched >> v & 1:
                continue
            single = 1 << v
            child = cells[:at] + [single, target ^ single] + cells[at + 1:]
            back = self.run(_refine(self.adj, child, [single]), path + (v,))
            if back is not None and back < depth:
                return back
            searched = self._orbit(searched | single, path)
        return None

    def _leaf(self, cells, path):
        labeling = [c.bit_length() - 1 for c in cells]
        bit = [0] * len(labeling)
        for i, v in enumerate(labeling):
            bit[v] = 1 << i
        rows = tuple(sum([bit[u] for u in self.neighbours[v]]) for v in labeling)
        leaf = (path, labeling, rows)
        if self.first is None:
            self.first = self.best = leaf
            return None
        for seen in (self.first, self.best):
            if leaf[2] == seen[2]:
                # seen[1][i] -> labeling[i] maps the graph onto itself.
                perm = [0] * len(labeling)
                for u, v in zip(seen[1], labeling):
                    perm[u] = v
                self.generators.append(tuple(perm))
                return _common_prefix(path, seen[0])
        if leaf[2] > self.best[2]:
            self.best = leaf
        return None

    def _orbit(self, mask, path):
        """`mask` closed under the generators that fix `path` pointwise."""
        gens = [g for g in self.generators if all(g[v] == v for v in path)]
        while True:
            grown = mask
            for g in gens:
                for v in bits(mask):
                    grown |= 1 << g[v]
            if grown == mask:
                return mask
            mask = grown


def _common_prefix(a, b):
    depth = 0
    for u, v in zip(a, b):
        if u != v:
            break
        depth += 1
    return depth

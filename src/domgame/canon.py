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

from itertools import combinations

from .graph import Graph, non_edges


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

    A vertex outside the union of W's neighbourhoods has no neighbour in
    W, so only the vertices of a cell inside that union are counted.
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
        rest = w & (w - 1)
        refined = []
        if not rest:
            # One neighbour in w or none: a cell splits into the part
            # outside w's neighbourhood and the part inside it.
            touched = adj[w.bit_length() - 1]
            for c in cells:
                inside = c & touched
                if not inside or inside == c:
                    refined.append(c)
                    continue
                outside = c ^ inside
                refined += (outside, inside)
                if c in pending:
                    pending.discard(c)
                    queue += (outside, inside)
                    pending.update((outside, inside))
                else:
                    small = (inside if outside.bit_count() >= inside.bit_count()
                             else outside)
                    queue.append(small)
                    pending.add(small)
            cells = refined
            continue
        touched = adj[(w ^ rest).bit_length() - 1]
        while rest:
            low = rest & -rest
            touched |= adj[low.bit_length() - 1]
            rest ^= low
        for c in cells:
            inside = c & touched
            if not inside or not c & (c - 1):
                refined.append(c)
                continue
            outside = c ^ inside
            counts = {}
            while inside:
                low = inside & -inside
                k = (adj[low.bit_length() - 1] & w).bit_count()
                counts[k] = counts.get(k, 0) | low
                inside ^= low
            if len(counts) == 1 and not outside:
                refined.append(c)
                continue
            parts = [counts[k] for k in sorted(counts)]
            if outside:
                parts.insert(0, outside)
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
        self.generators = []
        self.first = None       # (path, cells, rows) of the first leaf
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
        rest = target
        while rest:
            single = rest & -rest
            rest ^= single
            if searched & single:
                continue
            child = cells[:at] + [single, target ^ single] + cells[at + 1:]
            back = self.run(_refine(self.adj, child, [single]),
                            path + (single.bit_length() - 1,))
            if back is not None and back < depth:
                return back
            searched = self._orbit(searched | single, path)
        return None

    def _leaf(self, cells, path):
        """Relabel the graph by the discrete partition `cells`: vertex v
        in cells[i] becomes i, and row i of the result is the relabeled
        neighbourhood of v, read from `adj` a lowest bit at a time."""
        new_bit = {c: 1 << i for i, c in enumerate(cells)}
        adj = self.adj
        rows = []
        for c in cells:
            m = adj[c.bit_length() - 1]
            row = 0
            while m:
                low = m & -m
                row |= new_bit[low]
                m ^= low
            rows.append(row)
        rows = tuple(rows)
        leaf = (path, cells, rows)
        if self.first is None:
            self.first = self.best = leaf
            return None
        for seen in (self.first, self.best):
            if rows == seen[2]:
                # The vertex of seen[1][i] -> that of cells[i] maps the
                # graph onto itself.
                perm = [0] * len(cells)
                for a, b in zip(seen[1], cells):
                    perm[a.bit_length() - 1] = b.bit_length() - 1
                self.generators.append(tuple(perm))
                return _common_prefix(path, seen[0])
        if rows > self.best[2]:
            self.best = leaf
        return None

    def _orbit(self, mask, path):
        """`mask` closed under the generators that fix `path` pointwise."""
        gens = [g for g in self.generators if all(g[v] == v for v in path)]
        if not gens:
            return mask
        while True:
            grown = mask
            m = mask
            while m:
                low = m & -m
                v = low.bit_length() - 1
                for g in gens:
                    grown |= 1 << g[v]
                m ^= low
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

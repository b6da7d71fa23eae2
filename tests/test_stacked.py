"""Stacked per-graph kernels: a stack of graphs of one vertex count gives, for
each graph, what that graph gives alone, and the per-graph checks still name
the graph that fails them."""

import random

import numpy as np
import pytest

import qwalk as q
from qwalk import partitions, spectral, walkalg

from conftest import random_connected_graphs

SIZES = (1, 2, 3, 5, 8, 13)


def stacks(graphs, seed):
    """The graphs grouped by vertex count, shuffled, and cut into stacks of
    every size in SIZES in turn; every third stack repeats its first graph."""
    rng = random.Random(seed)
    by_n = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    out = []
    for group in by_n.values():
        rng.shuffle(group)
        start = 0
        while start < len(group):
            size = SIZES[len(out) % len(SIZES)]
            stack = group[start:start + size]
            if len(out) % 3 == 2:
                stack.append(stack[0])
            out.append(stack)
            start += size
    return out


def roots_for(stack, seed):
    """Per graph: every vertex, a random subset, or none."""
    rng = random.Random(seed)
    choice = []
    for i, g in enumerate(stack):
        kind = i % 3
        if kind == 0:
            choice.append(list(range(g.n)))
        elif kind == 1:
            choice.append(rng.sample(range(g.n), rng.randint(1, g.n)))
        else:
            choice.append([])
    return choice


@pytest.fixture(scope="module")
def corpus(atlas_connected):
    graphs = [g for n in range(1, 8) for g in atlas_connected[n]]
    return graphs + random_connected_graphs(300, 10, seed=20240901)


class TestStackMatchesOneGraph:
    def test_char_polys(self, corpus):
        for stack in stacks(corpus, seed=1):
            assert spectral._faddeev_leverrier(stack) == \
                [spectral._faddeev_leverrier([g])[0] for g in stack]

    def test_walk_ranks_and_minimal_polys(self, corpus):
        for i, stack in enumerate(stacks(corpus, seed=2)):
            roots = roots_for(stack, seed=i)
            assert walkalg._walk_krylov(stack, roots, 64) == \
                [walkalg._walk_krylov([g], [r], 64)[0] for g, r in zip(stack, roots)]

    def test_controllability(self, corpus):
        for i, stack in enumerate(stacks(corpus, seed=3)):
            roots = roots_for(stack, seed=i)
            assert walkalg.controllability_stack(stack, roots) == \
                [walkalg.controllability(g, r) for g, r in zip(stack, roots)]

    def test_delta_partitions(self, corpus):
        for i, stack in enumerate(stacks(corpus, seed=4)):
            roots = roots_for(stack, seed=i)
            assert partitions.delta_stack(stack, roots) == \
                [partitions.delta_partitions(g, r) for g, r in zip(stack, roots)]

    def test_batches_split_across_graphs(self, monkeypatch, atlas_connected):
        # small entry budgets cut the rows of a stack into batches that hold
        # a part of one graph's rows or several graphs'
        stack = atlas_connected[7][:40]
        roots = [range(7)] * len(stack)
        alone_ranks = [walkalg._walk_krylov([g], [r], 64)[0] for g, r in zip(stack, roots)]
        alone_deltas = [partitions.delta_partitions(g, r) for g, r in zip(stack, roots)]
        monkeypatch.setattr(walkalg, "_BATCH_ENTRIES", 5 * 7 * 7)
        monkeypatch.setattr(partitions, "_BATCH_ENTRIES", 11 * 7 * 7)
        assert walkalg._walk_krylov(stack, roots, 64) == alone_ranks
        assert partitions.delta_stack(stack, roots) == alone_deltas

    def test_large_graphs(self):
        # one stack per vertex count at the sizes the scan cap allows
        rng = np.random.default_rng(64)
        for n in (32, 64):
            stack = [q.path(n), q.cycle(n)] + [
                q.Graph(a + a.T) for a in
                (np.triu((rng.random((n, n)) < d).astype(int), 1) for d in (0.1, 0.5))]
            roots = [range(n), [0, n - 1], range(0, n, 3), []]
            assert spectral._faddeev_leverrier(stack) == \
                [spectral._faddeev_leverrier([g])[0] for g in stack]
            assert walkalg.controllability_stack(stack, roots) == \
                [walkalg.controllability(g, r) for g, r in zip(stack, roots)]

    def test_primes_cover_the_densest_graph(self, monkeypatch):
        # the coefficient bound grows with the edge count, so a stack takes
        # its primes from its densest graph, wherever that sits in the stack
        stack = [q.path(40), q.complete(40), q.star(39)]
        asked = []
        real = spectral._residue_primes
        monkeypatch.setattr(spectral, "_residue_primes",
                            lambda n, m: asked.append((n, m)) or real(n, m))
        assert spectral._faddeev_leverrier(stack) == \
            [spectral._faddeev_leverrier([g])[0] for g in stack]
        assert asked[0] == (40, 40 * 39 // 2)


@pytest.mark.internal_check
def test_corrupt_residue_in_a_stack_names_its_graph(monkeypatch):
    stack = [q.petersen(), q.path(10), q.cycle(10), q.star(9), q.complete(10)]
    rows = 10 + 1 + 10 * 10  # of each graph: phi, then the phi(G - u)
    real = spectral._combine

    def corrupt(target, columns):
        def combine(residues, primes):
            residues = residues.copy()
            last = (target + 1) * rows - 1  # the last coefficient of phi(G - 9)
            residues[last, columns] = (residues[last, columns] + 1) % np.array(primes)[columns]
            return real(residues, primes)
        return combine

    # every prime: the check prime agrees, and phi' = sum phi(G - u) fails
    monkeypatch.setattr(spectral, "_combine", corrupt(2, slice(None)))
    with pytest.raises(q.InternalCheckError, match="phi'") as err:
        spectral._faddeev_leverrier(stack)
    assert str(err.value).startswith(q.encode_graph6(stack[2]) + ":")
    # the check prime alone
    monkeypatch.setattr(spectral, "_combine", corrupt(3, slice(-1, None)))
    with pytest.raises(q.InternalCheckError, match="check prime") as err:
        spectral._faddeev_leverrier(stack)
    assert str(err.value).startswith(q.encode_graph6(stack[3]) + ":")


@pytest.mark.internal_check
def test_controllability_disagreement_in_a_stack_names_its_graph(monkeypatch):
    # the rank route claims full rank for every root of C4 alone, where no
    # vertex is controllable
    stack = [q.path(4), q.cycle(4), q.star(3)]
    real = walkalg._walk_krylov

    def lying(graphs, roots, cap):
        out = real(graphs, roots, cap)
        ranks, psi = out[1]
        out[1] = ({u: 4 for u in ranks}, psi)
        return out

    monkeypatch.setattr(walkalg, "_walk_krylov", lying)
    with pytest.raises(q.InternalCheckError) as err:
        walkalg.controllability_stack(stack, [range(4)] * 3)
    assert str(err.value).startswith(q.encode_graph6(stack[1]) + ":")

"""Chain classification against a ``scipy.sparse.csgraph`` oracle.

Dense generators are classified in Python (an iterative Tarjan and one
reverse search); sparse generators run ``csgraph``.  Both must give what
the reference below gives — classes ordered by their smallest state,
members in index order, the same leak rule, and the lowest-index MTTA
offender with the same message — on random digraphs with reducible
parts, absorbing states and isolated states, and on one chain past
``SPARSE_THRESHOLD``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

from repro.core.compiled import compile_model
from repro.core.model import MarkovModel
from repro.ctmc.batch import pattern_structure
from repro.ctmc.generator import SPARSE_THRESHOLD, GeneratorMatrix
from repro.ctmc.structure import (
    classify_states,
    communicating_classes,
    reachable_from,
)


def _adjacency(n, arcs):
    rows = [i for i, _ in arcs]
    cols = [j for _, j in arcs]
    return sp.csr_matrix((np.ones(len(arcs)), (rows, cols)), shape=(n, n))


def _reached(adjacency, seeds):
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    for seed in seeds:
        order = csgraph.breadth_first_order(
            adjacency, seed, directed=True, return_predecessors=False
        )
        seen[order] = True
    return seen


def reference(n, arcs, up):
    """What the chain's classification must be, from csgraph."""
    adjacency = _adjacency(n, arcs)
    _, labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    members = {}
    for index, label in enumerate(labels):
        members.setdefault(label, []).append(index)
    classes = sorted(members.values(), key=lambda states: states[0])
    leaking = {labels[i] for i, j in arcs if labels[i] != labels[j]}
    has_arcs = {i for i, _ in arcs}
    recurrent, transient, absorbing = [], [], []
    for states in classes:
        if labels[states[0]] in leaking:
            transient.extend(states)
        else:
            recurrent.append(states)
            if len(states) == 1 and states[0] not in has_arcs:
                absorbing.append(states[0])
    down = [i for i in range(n) if not up[i]]
    offender = None
    if down and any(up):
        reaches_down = _reached(adjacency.T.tocsr(), down)
        blocked = [i for i in range(n) if up[i] and not reaches_down[i]]
        offender = blocked[0] if blocked else None
    return classes, recurrent, transient, absorbing, offender


def _names(indices):
    return tuple(f"s{i}" for i in indices)


def _generator(n, arcs, up, sparse):
    q = np.zeros((n, n))
    for i, j in arcs:
        q[i, j] = 1.0 + 0.5 * ((i + j) % 3)
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(
        matrix=sp.csr_matrix(q) if sparse else q,
        state_names=_names(range(n)),
        rewards=np.asarray(up, dtype=float),
    )


def _compiled(n, arcs, up):
    """A weakly connected model holding ``arcs`` (plus a spine), and the
    pattern that switches on exactly ``arcs``."""
    model = MarkovModel("oracle")
    for name, is_up in zip(_names(range(n)), up):
        model.add_state(name, reward=1.0 if is_up else 0.0)
    chosen = set(arcs)
    spine = [(i, i + 1) for i in range(n - 1) if (i, i + 1) not in chosen]
    for i, j in list(arcs) + spine:
        model.add_transition(f"s{i}", f"s{j}", 1.0)
    pattern = np.array([True] * len(arcs) + [False] * len(spine), dtype=bool)
    return compile_model(model), pattern


def check_against_reference(n, arcs, up, sparse):
    classes, recurrent, transient, absorbing, offender = reference(
        n, arcs, up
    )
    generator = _generator(n, arcs, up, sparse)
    assert generator.is_sparse == sparse
    assert communicating_classes(generator) == [_names(c) for c in classes]
    classification = classify_states(generator)
    assert classification.recurrent_classes == tuple(
        _names(c) for c in recurrent
    )
    assert classification.transient_states == _names(transient)
    assert classification.absorbing_states == _names(absorbing)
    adjacency = _adjacency(n, arcs)
    for seeds in ([0], [n - 1], sorted({0, n // 2, n - 1})):
        assert reachable_from(generator, _names(seeds)) == _names(
            np.flatnonzero(_reached(adjacency, seeds))
        )

    if not any(up):
        return  # a model needs an up state
    compiled, pattern = _compiled(n, arcs, up)
    info = pattern_structure(compiled, pattern)
    assert info.n_recurrent_classes == len(recurrent)
    if len(recurrent) == 1:
        assert info.covers_all == (len(recurrent[0]) == n)
    else:
        assert info.covers_all is False
    if offender is None:
        assert info.mtta_error is None
    else:
        targets = sorted(f"s{i}" for i in range(n) if not up[i])
        assert info.mtta_error == (
            f"state 's{offender}' cannot reach any target state "
            f"{targets}; hitting time is infinite"
        )


@st.composite
def digraphs(draw):
    """Random digraphs of 1-60 states: sparse ones leave absorbing and
    isolated states and reducible parts; an optional ring makes the
    chain irreducible."""
    n = draw(st.integers(1, 60))
    arcs = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        arcs = draw(
            st.lists(
                pair.filter(lambda p: p[0] != p[1]),
                max_size=draw(st.sampled_from([1, n, 4 * n])),
                unique=True,
            )
        )
        if draw(st.booleans()):
            ring = [(i, (i + 1) % n) for i in range(n)]
            arcs = arcs + [arc for arc in ring if arc not in set(arcs)]
    up = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, arcs, up


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_dense_classification_matches_csgraph(graph):
    check_against_reference(*graph, sparse=False)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_classification_matches_csgraph(seed):
    """Past ``SPARSE_THRESHOLD`` the generator is a scipy matrix and the
    classification runs csgraph; the pattern structure takes the same
    branch."""
    rng = np.random.default_rng(seed)
    n = SPARSE_THRESHOLD + 40
    # A ring over the first half, random chords into (never out of) a
    # tail with its own random arcs; the last five states have no arcs
    # of their own, so they are absorbing or isolated.
    half = n // 2
    arcs = {(i, (i + 1) % half) for i in range(half)}
    arcs |= {
        (int(i), int(j))
        for i, j in zip(rng.integers(0, half, 6), rng.integers(half, n, 6))
    }
    tail = rng.integers(half, n - 5, size=(2, n))
    arcs |= {(int(i), int(j)) for i, j in zip(*tail) if i != j}
    up = (rng.random(n) < 0.8).tolist()
    check_against_reference(n, sorted(arcs), up, sparse=True)

"""Structural analysis of CTMC state spaces.

Availability models are usually irreducible (every failure is eventually
repaired), while reliability models deliberately contain absorbing failure
states.  The steady-state and absorption solvers use these helpers to fail
loudly when handed a chain of the wrong shape, instead of returning a
numerically-plausible nonsense vector.

Every helper works on the arc list of the transition graph.  A dense
generator (below :data:`~repro.ctmc.generator.SPARSE_THRESHOLD` states)
is searched in Python: an iterative Tarjan for the communicating classes
and one stack search for reachability, which at these sizes beat
building a scipy sparse matrix and need no scipy import.  A sparse
generator is already a scipy matrix and runs
:mod:`scipy.sparse.csgraph`, several times faster than Tarjan in
Python at its sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.ctmc.generator import GeneratorMatrix


def _arcs(generator: GeneratorMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``(sources, targets)`` of the positive off-diagonal entries."""
    if generator.is_sparse:
        coo = generator.matrix.tocoo()
        mask = (coo.data > 0.0) & (coo.row != coo.col)
        return coo.row[mask].astype(np.intp), coo.col[mask].astype(np.intp)
    positive = generator.matrix > 0.0
    np.fill_diagonal(positive, False)
    return np.nonzero(positive)


def _successors(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> List[List[int]]:
    successors: List[List[int]] = [[] for _ in range(n)]
    for source, target in zip(sources.tolist(), targets.tolist()):
        successors[source].append(target)
    return successors


def _tarjan(n: int, sources: np.ndarray, targets: np.ndarray) -> List[int]:
    """Strongly connected component label per state (iterative Tarjan).

    Linear in states plus arcs; labels come out in reverse topological
    order of the condensation.
    """
    successors = _successors(n, sources, targets)
    order = [0] * n  # 1-based DFS discovery number; 0 = not visited
    low = [0] * n
    label = [-1] * n  # a visited state is on the stack until labelled
    stack: List[int] = []
    counter = 0
    n_labels = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if label[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        label[w] = n_labels
                        if w == v:
                            break
                    n_labels += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return label


def _class_labels(
    generator: GeneratorMatrix, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Class label per state, classes numbered by their smallest state."""
    n = generator.n_states
    if generator.is_sparse:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        adjacency = sp.csr_matrix(
            (np.ones(sources.size), (sources, targets)), shape=(n, n)
        )
        n_classes, labels = connected_components(
            adjacency, directed=True, connection="strong"
        )
    else:
        labels = np.asarray(_tarjan(n, sources, targets), dtype=np.intp)
        n_classes = int(labels.max()) + 1 if n else 0
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(n_classes, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(n_classes)
    return rank[labels], n_classes


def _group(
    generator: GeneratorMatrix, labels: np.ndarray, n_classes: int
) -> List[Tuple[str, ...]]:
    classes: List[List[str]] = [[] for _ in range(n_classes)]
    for name, label in zip(generator.state_names, labels.tolist()):
        classes[label].append(name)
    return [tuple(names) for names in classes]


def _reachable_mask(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    seeds: Sequence[int],
    sparse: bool,
) -> np.ndarray:
    """States reachable in >= 0 steps from any seed along the arcs.

    Pass the arcs reversed to get the states that can reach a seed.
    ``sparse`` selects :mod:`scipy.sparse.csgraph` (one breadth-first
    search from a virtual root feeding every seed) over the Python
    search.
    """
    if sparse:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import breadth_first_order

        root = np.full(len(seeds), n, dtype=np.intp)
        rows = np.concatenate([sources, root])
        cols = np.concatenate([targets, np.asarray(seeds, dtype=np.intp)])
        adjacency = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1)
        )
        order = breadth_first_order(
            adjacency, n, directed=True, return_predecessors=False
        )
        seen = np.zeros(n + 1, dtype=bool)
        seen[order] = True
        return seen[:n]
    successors = _successors(n, sources, targets)
    reached = [False] * n
    stack = [int(seed) for seed in seeds]
    for seed in stack:
        reached[seed] = True
    while stack:
        for w in successors[stack.pop()]:
            if not reached[w]:
                reached[w] = True
                stack.append(w)
    return np.array(reached, dtype=bool)


def communicating_classes(generator: GeneratorMatrix) -> List[Tuple[str, ...]]:
    """Strongly connected components of the transition graph.

    Returns one tuple of state names per class, ordered by the smallest
    state index they contain; members are in index order.
    """
    labels, n_classes = _class_labels(generator, *_arcs(generator))
    return _group(generator, labels, n_classes)


def is_irreducible(generator: GeneratorMatrix) -> bool:
    """True if every state communicates with every other state."""
    return len(communicating_classes(generator)) == 1


@dataclass(frozen=True)
class StateClassification:
    """Partition of states into transient and recurrent (per class)."""

    recurrent_classes: Tuple[Tuple[str, ...], ...]
    transient_states: Tuple[str, ...]
    absorbing_states: Tuple[str, ...]

    @property
    def has_single_recurrent_class(self) -> bool:
        return len(self.recurrent_classes) == 1


def classify_states(generator: GeneratorMatrix) -> StateClassification:
    """Classify each state as transient or member of a recurrent class.

    A communicating class is recurrent iff no transition leaves it.  A
    recurrent singleton with no outgoing arcs at all is an absorbing state.
    """
    sources, targets = _arcs(generator)
    labels, n_classes = _class_labels(generator, sources, targets)
    classes = _group(generator, labels, n_classes)
    leaks = np.zeros(n_classes, dtype=bool)
    from_labels = labels[sources]
    leaks[from_labels[from_labels != labels[targets]]] = True

    recurrent: List[Tuple[str, ...]] = []
    transient: List[str] = []
    absorbing: List[str] = []
    exit_rates = generator.exit_rates()
    for k, names in enumerate(classes):
        if leaks[k]:
            transient.extend(names)
        else:
            recurrent.append(names)
            if len(names) == 1:
                index = generator.index_of(names[0])
                if exit_rates[index] == 0.0:
                    absorbing.append(names[0])
    return StateClassification(
        recurrent_classes=tuple(recurrent),
        transient_states=tuple(transient),
        absorbing_states=tuple(absorbing),
    )


def reachable_from(
    generator: GeneratorMatrix, sources: Sequence[str]
) -> Tuple[str, ...]:
    """All states reachable (in >= 0 steps) from the given source states."""
    seeds = [generator.index_of(name) for name in sources]
    reached = _reachable_mask(
        generator.n_states, *_arcs(generator), seeds, generator.is_sparse
    )
    return tuple(
        name for name, hit in zip(generator.state_names, reached) if hit
    )


def _reaching(
    generator: GeneratorMatrix, targets: Iterable[str]
) -> np.ndarray:
    """Mask of the states that reach some target in >= 0 steps.

    One reverse search from the whole target set, in state index order.
    """
    sources, arc_targets = _arcs(generator)
    seeds = [generator.index_of(name) for name in targets]
    return _reachable_mask(
        generator.n_states, arc_targets, sources, seeds, generator.is_sparse
    )

"""A discrete Bayesian network with CPT estimation, BIC structure
learning and exact inference.

Small and dependency-free: COBAYN's networks have ~15 nodes with 2-4
states each, so exact methods (enumeration over the joint of the
un-observed query variables) are fast and simple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

Assignment = Mapping[str, int]


@dataclass
class NodeSpec:
    """One variable: its name and the number of discrete states."""

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 2:
            raise ValueError(f"node {self.name!r} needs >= 2 states")


class BayesError(ValueError):
    """Raised on structural misuse (cycles, unknown nodes, ...)."""


class DiscreteBayesianNetwork:
    """Directed graphical model over discrete variables.

    Build with node specs and edges, then :meth:`fit` CPTs from data
    (rows are ``{node: state_index}`` mappings).  Laplace smoothing
    keeps every conditional strictly positive so unseen flag
    combinations keep a nonzero posterior.
    """

    def __init__(self, nodes: Iterable[NodeSpec]) -> None:
        self._nodes: Dict[str, NodeSpec] = {}
        for spec in nodes:
            if spec.name in self._nodes:
                raise BayesError(f"duplicate node {spec.name!r}")
            self._nodes[spec.name] = spec
        self._parents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        # CPTs: node -> array of shape (prod(parent cards), cardinality)
        self._cpts: Dict[str, np.ndarray] = {}

    # -- structure ------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    def cardinality(self, node: str) -> int:
        return self._nodes[node].cardinality

    def parents(self, node: str) -> List[str]:
        return list(self._parents[node])

    def edges(self) -> List[Tuple[str, str]]:
        return [
            (parent, child)
            for child, parents in self._parents.items()
            for parent in parents
        ]

    def add_edge(self, parent: str, child: str) -> None:
        if parent not in self._nodes or child not in self._nodes:
            raise BayesError(f"unknown node in edge {parent!r} -> {child!r}")
        if parent == child:
            raise BayesError("self loops are not allowed")
        if parent in self._parents[child]:
            return
        self._parents[child].append(parent)
        if self._has_cycle():
            self._parents[child].remove(parent)
            raise BayesError(f"edge {parent!r} -> {child!r} creates a cycle")
        self._cpts.clear()  # structure changed: parameters invalid

    def remove_edge(self, parent: str, child: str) -> None:
        if parent in self._parents.get(child, []):
            self._parents[child].remove(parent)
            self._cpts.clear()

    def _has_cycle(self) -> bool:
        visited: Dict[str, int] = {}  # 0=unseen 1=in-stack 2=done

        def visit(node: str) -> bool:
            state = visited.get(node, 0)
            if state == 1:
                return True
            if state == 2:
                return False
            visited[node] = 1
            for parent in self._parents[node]:
                if visit(parent):
                    return True
            visited[node] = 2
            return False

        return any(visit(node) for node in self._nodes)

    def topological_order(self) -> List[str]:
        order: List[str] = []
        seen: Set[str] = set()

        def visit(node: str) -> None:
            if node in seen:
                return
            seen.add(node)
            for parent in self._parents[node]:
                visit(parent)
            order.append(node)

        for node in self._nodes:
            visit(node)
        return order

    # -- parameters -------------------------------------------------------------

    def fit(self, rows: Sequence[Assignment], alpha: float = 1.0) -> None:
        """Estimate every CPT from complete data with Laplace ``alpha``."""
        columns = _encode(rows, self._nodes)
        for node in self._nodes:
            counts = self._family_counts(columns, node, self._parents[node]) + alpha
            self._cpts[node] = counts / counts.sum(axis=1, keepdims=True)

    def _family_counts(
        self, columns: Mapping[str, np.ndarray], node: str, parents: Sequence[str]
    ) -> np.ndarray:
        """Observed (parent configuration, ``node`` state) counts, shaped
        like the CPT: one row per joint parent index, as in
        :meth:`_parent_index`."""
        index = np.zeros(len(columns[node]), dtype=np.intp)
        combos = 1
        for parent in parents:
            card = self._nodes[parent].cardinality
            index = index * card + columns[parent]
            combos *= card
        counts = np.zeros((combos, self._nodes[node].cardinality))
        np.add.at(counts, (index, columns[node]), 1.0)
        return counts

    def _family_bic(
        self,
        columns: Mapping[str, np.ndarray],
        node: str,
        parents: Sequence[str],
        alpha: float,
    ) -> float:
        """BIC term of one (node, parents) family: the log-likelihood of
        the node's column under its smoothed CPT, less the family's share
        of the parameter penalty."""
        counts = self._family_counts(columns, node, parents)
        smoothed = counts + alpha
        probabilities = smoothed / smoothed.sum(axis=1, keepdims=True)
        seen = counts > 0
        log_likelihood = float(np.sum(counts[seen] * np.log(probabilities[seen])))
        parameters = counts.shape[0] * (counts.shape[1] - 1)
        rows = len(columns[node])
        return log_likelihood - 0.5 * parameters * math.log(max(2, rows))

    @staticmethod
    def _parent_index(
        parents: List[str], parent_cards: List[int], row: Assignment
    ) -> int:
        index = 0
        for parent, card in zip(parents, parent_cards):
            index = index * card + row[parent]
        return index

    def cpt(self, node: str) -> np.ndarray:
        if node not in self._cpts:
            raise BayesError(f"network not fitted (missing CPT for {node!r})")
        return self._cpts[node]

    # -- inference --------------------------------------------------------------

    def log_probability(self, row: Assignment) -> float:
        """Joint log-probability of one complete assignment."""
        total = 0.0
        for node in self._nodes:
            parents = self._parents[node]
            parent_cards = [self._nodes[p].cardinality for p in parents]
            index = self._parent_index(parents, parent_cards, row)
            total += math.log(self.cpt(node)[index, row[node]])
        return total

    def probability(self, row: Assignment) -> float:
        return math.exp(self.log_probability(row))

    def posterior(
        self, query: Mapping[str, int], evidence: Optional[Assignment] = None
    ) -> float:
        """P(query | evidence) by enumeration over hidden variables."""
        return self.posteriors([query], evidence)[0]

    def posteriors(
        self, queries: Iterable[Mapping[str, int]], evidence: Optional[Assignment] = None
    ) -> List[float]:
        """P(query | evidence) of each query, in order.

        The evidence marginal (the denominator) is enumerated once for
        all queries; a query that contradicts the evidence gets 0.
        """
        evidence = dict(evidence or {})
        denominator = self._marginal(evidence)
        results: List[float] = []
        for query in queries:
            if any(query[node] != evidence[node] for node in query if node in evidence):
                results.append(0.0)
                continue
            numerator = self._marginal({**evidence, **query})
            results.append(0.0 if denominator == 0.0 else numerator / denominator)
        return results

    def _marginal(self, partial: Assignment) -> float:
        hidden = [name for name in self._nodes if name not in partial]
        cards = [self._nodes[name].cardinality for name in hidden]
        total = 0.0
        for states in itertools.product(*(range(card) for card in cards)):
            row = dict(partial)
            row.update(zip(hidden, states))
            total += self.probability(row)
        return total

    def sample(self, rng: np.random.Generator, count: int = 1) -> List[Dict[str, int]]:
        """Ancestral sampling of complete assignments."""
        order = self.topological_order()
        samples: List[Dict[str, int]] = []
        for _ in range(count):
            row: Dict[str, int] = {}
            for node in order:
                parents = self._parents[node]
                parent_cards = [self._nodes[p].cardinality for p in parents]
                index = self._parent_index(parents, parent_cards, row)
                probs = self.cpt(node)[index]
                row[node] = int(rng.choice(len(probs), p=probs))
            samples.append(row)
        return samples

    # -- scoring -----------------------------------------------------------------

    def bic_score(self, rows: Sequence[Assignment], alpha: float = 1.0) -> float:
        """Bayesian Information Criterion of this structure on ``rows``.

        BIC decomposes over families, so this is the sum of one
        :meth:`_family_bic` term per node; the CPTs are left untouched.
        """
        columns = _encode(rows, self._nodes)
        return sum(
            self._family_bic(columns, node, self._parents[node], alpha)
            for node in self._nodes
        )


def _encode(rows: Sequence[Assignment], names: Iterable[str]) -> Dict[str, np.ndarray]:
    """The rows as one integer column of state indices per node."""
    return {
        name: np.fromiter((row[name] for row in rows), dtype=np.intp, count=len(rows))
        for name in names
    }


def learn_structure(
    nodes: Sequence[NodeSpec],
    rows: Sequence[Assignment],
    max_parents: int = 2,
    max_iterations: int = 25,
    forbidden_children: Optional[Set[str]] = None,
    seed: int = 7,
) -> DiscreteBayesianNetwork:
    """Greedy hill-climbing structure search under the BIC score.

    ``forbidden_children`` lists nodes that may not *receive* edges —
    COBAYN's feature nodes are observed evidence, so arcs only point
    from features to flags (and among flags).
    """
    forbidden_children = forbidden_children or set()
    network = DiscreteBayesianNetwork(nodes)
    names = [spec.name for spec in nodes]
    columns = _encode(rows, names)
    rng = np.random.default_rng(seed)
    # a move changes one family only, so each candidate is scored by that
    # family's BIC delta; family scores are cached for this search
    family_scores: Dict[Tuple[str, Tuple[str, ...]], float] = {}

    def family_score(child: str, parents: List[str]) -> float:
        key = (child, tuple(parents))
        if key not in family_scores:
            family_scores[key] = network._family_bic(columns, child, parents, 1.0)
        return family_scores[key]

    def improves(child: str, parents: List[str], trial: List[str]) -> bool:
        return family_score(child, trial) > family_score(child, parents) + 1e-9

    for _ in range(max_iterations):
        improved = False
        candidates = [
            (parent, child)
            for parent in names
            for child in names
            if parent != child and child not in forbidden_children
        ]
        rng.shuffle(candidates)
        for parent, child in candidates:
            parents = network.parents(child)
            if parent in parents:
                if improves(child, parents, [p for p in parents if p != parent]):
                    network.remove_edge(parent, child)
                    improved = True
                continue
            if len(parents) >= max_parents or not improves(
                child, parents, parents + [parent]
            ):
                continue
            try:
                network.add_edge(parent, child)
            except BayesError:
                continue
            improved = True
        if not improved:
            break
    network.fit(rows)
    return network
